#pragma once
/// \file dual2.hpp
/// Second-order forward-mode scalars in two spatial dimensions.
///
/// A Dual2 carries (v, v_x, v_y, v_xx, v_xy, v_yy): the 2-D second-order
/// Taylor data needed by PINN residuals (Laplacians, advection terms).
/// Instantiated with T = ad::Var, every coefficient lives on the reverse
/// tape, so a single backward sweep after forming the residual loss yields
/// exact dLoss/dtheta -- forward-over-reverse, what jax.grad(loss)(theta)
/// with jax.hessian-style residuals computes for the paper's PINNs.
///
/// That generic pass writes every coefficient of every unit as tape nodes.
/// PINN training instead records each network evaluation as one tape
/// operation, nn::Mlp::forward_taylor, whose forward repeats these
/// expressions (unary_chain below, bias-first linear sums) in plain doubles,
/// so its planes equal the Dual2<Var> ones bit for bit, and whose
/// hand-written VJP applies the reverse of unary_chain: with f1, f2, f3 =
/// f', f'', f''' at a.v, the adjoint of a.v gathers f1 vbar, f2 times the
/// gradient and Hessian planes' adjoints, and the f3 term from the
/// Hessian planes' dependence on a.v through f2 (mlp.hpp states it in
/// full).

#include <cmath>

#include "autodiff/var_math.hpp"

namespace updec::ad {

template <typename T>
struct Dual2 {
  T v;             ///< value
  T gx, gy;        ///< gradient w.r.t. the two seeded inputs
  T hxx, hxy, hyy; ///< upper triangle of the Hessian

  Dual2() = default;
  Dual2(T v_, T gx_, T gy_, T hxx_, T hxy_, T hyy_)
      : v(std::move(v_)),
        gx(std::move(gx_)),
        gy(std::move(gy_)),
        hxx(std::move(hxx_)),
        hxy(std::move(hxy_)),
        hyy(std::move(hyy_)) {}
};

/// Seeds for the plain double case (Var seeds are built by callers that own
/// a tape, using tape.constant(...) for the zero/one channels).
inline Dual2<double> dual2_x(double x) { return {x, 1.0, 0.0, 0.0, 0.0, 0.0}; }
inline Dual2<double> dual2_y(double y) { return {y, 0.0, 1.0, 0.0, 0.0, 0.0}; }
inline Dual2<double> dual2_constant(double c) {
  return {c, 0.0, 0.0, 0.0, 0.0, 0.0};
}

// ---- arithmetic ----

template <typename T>
Dual2<T> operator+(const Dual2<T>& a, const Dual2<T>& b) {
  return {a.v + b.v,     a.gx + b.gx,   a.gy + b.gy,
          a.hxx + b.hxx, a.hxy + b.hxy, a.hyy + b.hyy};
}

template <typename T>
Dual2<T> operator-(const Dual2<T>& a, const Dual2<T>& b) {
  return {a.v - b.v,     a.gx - b.gx,   a.gy - b.gy,
          a.hxx - b.hxx, a.hxy - b.hxy, a.hyy - b.hyy};
}

template <typename T>
Dual2<T> operator*(const Dual2<T>& a, const Dual2<T>& b) {
  return {a.v * b.v,
          a.gx * b.v + a.v * b.gx,
          a.gy * b.v + a.v * b.gy,
          a.hxx * b.v + 2.0 * (a.gx * b.gx) + a.v * b.hxx,
          a.hxy * b.v + a.gx * b.gy + a.gy * b.gx + a.v * b.hxy,
          a.hyy * b.v + 2.0 * (a.gy * b.gy) + a.v * b.hyy};
}

template <typename T>
Dual2<T> operator-(const Dual2<T>& a) {
  return {-a.v, -a.gx, -a.gy, -a.hxx, -a.hxy, -a.hyy};
}

template <typename T>
Dual2<T> operator+(const Dual2<T>& a, double c) {
  return {a.v + c, a.gx, a.gy, a.hxx, a.hxy, a.hyy};
}
template <typename T>
Dual2<T> operator+(double c, const Dual2<T>& a) {
  return a + c;
}
template <typename T>
Dual2<T> operator-(const Dual2<T>& a, double c) {
  return {a.v - c, a.gx, a.gy, a.hxx, a.hxy, a.hyy};
}
template <typename T>
Dual2<T> operator-(double c, const Dual2<T>& a) {
  return {c - a.v, -a.gx, -a.gy, -a.hxx, -a.hxy, -a.hyy};
}
template <typename T>
Dual2<T> operator*(const Dual2<T>& a, double c) {
  return {a.v * c, a.gx * c, a.gy * c, a.hxx * c, a.hxy * c, a.hyy * c};
}
template <typename T>
Dual2<T> operator*(double c, const Dual2<T>& a) {
  return a * c;
}
template <typename T>
Dual2<T> operator/(const Dual2<T>& a, double c) {
  return a * (1.0 / c);
}

namespace detail {
/// Chain rule for a unary f with derivatives f1 = f'(a.v), f2 = f''(a.v):
///   g_i  = f1 * a.g_i
///   h_ij = f1 * a.h_ij + f2 * a.g_i * a.g_j
template <typename T>
Dual2<T> unary_chain(const Dual2<T>& a, T f, T f1, T f2) {
  return {std::move(f),
          f1 * a.gx,
          f1 * a.gy,
          f1 * a.hxx + f2 * (a.gx * a.gx),
          f1 * a.hxy + f2 * (a.gx * a.gy),
          f1 * a.hyy + f2 * (a.gy * a.gy)};
}
}  // namespace detail

// ---- math functions ----

template <typename T>
Dual2<T> tanh(const Dual2<T>& a) {
  using std::tanh;
  const T t = tanh(a.v);
  const T f1 = 1.0 - t * t;
  const T f2 = -2.0 * (t * f1);
  return detail::unary_chain(a, t, f1, f2);
}

template <typename T>
Dual2<T> exp(const Dual2<T>& a) {
  using std::exp;
  const T e = exp(a.v);
  return detail::unary_chain(a, e, e, e);
}

template <typename T>
Dual2<T> sin(const Dual2<T>& a) {
  using std::cos;
  using std::sin;
  const T s = sin(a.v);
  const T c = cos(a.v);
  return detail::unary_chain(a, s, c, -s);
}

template <typename T>
Dual2<T> cos(const Dual2<T>& a) {
  using std::cos;
  using std::sin;
  const T c = cos(a.v);
  const T s = sin(a.v);
  return detail::unary_chain(a, c, -s, -c);
}

template <typename T>
Dual2<T> sqrt(const Dual2<T>& a) {
  using std::sqrt;
  const T s = sqrt(a.v);
  const T f1 = 0.5 / s;
  const T f2 = -0.5 * (f1 / a.v);
  return detail::unary_chain(a, s, f1, f2);
}

/// Reciprocal (building block of division).
template <typename T>
Dual2<T> recip(const Dual2<T>& a) {
  const T inv = 1.0 / a.v;
  const T f1 = -1.0 * (inv * inv);
  const T f2 = -2.0 * (f1 * inv);
  return detail::unary_chain(a, inv, f1, f2);
}

template <typename T>
Dual2<T> operator/(const Dual2<T>& a, const Dual2<T>& b) {
  return a * recip(b);
}
template <typename T>
Dual2<T> operator/(double c, const Dual2<T>& a) {
  return recip(a) * c;
}

template <typename T>
Dual2<T> square(const Dual2<T>& a) {
  return a * a;
}

}  // namespace updec::ad
