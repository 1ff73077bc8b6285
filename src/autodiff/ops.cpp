#include "autodiff/ops.hpp"

#include "la/blas.hpp"

namespace updec::ad {

namespace {

/// Bytes of one node index kept by an op's closure.
constexpr std::size_t kIndexBytes = sizeof(std::int64_t);

Tape& tape_of(const VarVec& v) {
  UPDEC_REQUIRE(!v.empty(), "empty VarVec has no tape");
  UPDEC_REQUIRE(v.front().valid(), "VarVec holds null Vars");
  return *v.front().tape();
}

std::vector<std::int64_t> indices_of(const VarVec& v) {
  std::vector<std::int64_t> idx(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) idx[i] = v[i].index();
  return idx;
}

VarVec wrap_outputs(Tape& tape, std::int64_t start, std::size_t count) {
  VarVec out(count);
  for (std::size_t i = 0; i < count; ++i)
    out[i] = Var(&tape, start + static_cast<std::int64_t>(i));
  return out;
}

}  // namespace

VarVec make_variables(Tape& tape, const la::Vector& values) {
  VarVec v(values.size());
  for (std::size_t i = 0; i < values.size(); ++i)
    v[i] = tape.variable(values[i]);
  return v;
}

VarVec make_constants(Tape& tape, const la::Vector& values) {
  return make_variables(tape, values);
}

la::Vector values(const VarVec& v) {
  la::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i].value();
  return out;
}

la::Vector adjoints(const VarVec& v) {
  la::Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = v[i].adjoint();
  return out;
}

VarVec stop_gradient(const VarVec& v) {
  VarVec out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = stop_gradient(v[i]);
  return out;
}

Var sum(const VarVec& v) {
  Tape& tape = tape_of(v);
  double total = 0.0;
  for (const Var& x : v) total += x.value();
  const std::int64_t start = tape.custom_op(
      {total}, v.size() * kIndexBytes,
      [idx = indices_of(v)](Tape& t, std::int64_t out) {
        const double ybar = t.adjoint(out);
        if (ybar == 0.0) return;
        for (const std::int64_t i : idx) t.adjoint_ref(i) += ybar;
      });
  return {&tape, start};
}

Var dot(const VarVec& a, const VarVec& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "dot size mismatch");
  Tape& tape = tape_of(a);
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    total += a[i].value() * b[i].value();
  const std::int64_t start = tape.custom_op(
      {total}, a.size() * 2 * (kIndexBytes + sizeof(double)),
      [ia = indices_of(a), ib = indices_of(b), va = values(a),
       vb = values(b)](Tape& t, std::int64_t out) {
        const double ybar = t.adjoint(out);
        if (ybar == 0.0) return;
        for (std::size_t i = 0; i < ia.size(); ++i) {
          t.adjoint_ref(ia[i]) += ybar * vb[i];
          t.adjoint_ref(ib[i]) += ybar * va[i];
        }
      });
  return {&tape, start};
}

Var dot(const VarVec& a, const la::Vector& w) {
  UPDEC_REQUIRE(a.size() == w.size(), "dot size mismatch");
  Tape& tape = tape_of(a);
  double total = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) total += a[i].value() * w[i];
  const std::int64_t start = tape.custom_op(
      {total}, a.size() * (kIndexBytes + sizeof(double)),
      [ia = indices_of(a), w](Tape& t, std::int64_t out) {
        const double ybar = t.adjoint(out);
        if (ybar == 0.0) return;
        for (std::size_t i = 0; i < ia.size(); ++i)
          t.adjoint_ref(ia[i]) += ybar * w[i];
      });
  return {&tape, start};
}

VarVec spmv(const la::CsrMatrix& a, const VarVec& x) {
  UPDEC_REQUIRE(a.cols() == x.size(), "spmv size mismatch");
  Tape& tape = tape_of(x);
  const la::Vector xv = values(x);
  const la::Vector yv = a.apply(xv);
  const std::int64_t start = tape.custom_op(
      yv.std(), x.size() * kIndexBytes,
      [&a, ix = indices_of(x)](Tape& t, std::int64_t out) {
        // x_bar += A^T y_bar
        la::Vector ybar(a.rows());
        for (std::size_t i = 0; i < a.rows(); ++i)
          ybar[i] = t.adjoint(out + static_cast<std::int64_t>(i));
        const la::Vector xbar = a.apply_transpose(ybar);
        for (std::size_t j = 0; j < ix.size(); ++j)
          t.adjoint_ref(ix[j]) += xbar[j];
      });
  return wrap_outputs(tape, start, a.rows());
}

VarVec gemv(const la::Matrix& a, const VarVec& x) {
  UPDEC_REQUIRE(a.cols() == x.size(), "gemv size mismatch");
  Tape& tape = tape_of(x);
  const la::Vector xv = values(x);
  const la::Vector yv = la::matvec(a, xv);
  const std::int64_t start = tape.custom_op(
      yv.std(), x.size() * kIndexBytes,
      [&a, ix = indices_of(x)](Tape& t, std::int64_t out) {
        la::Vector ybar(a.rows());
        for (std::size_t i = 0; i < a.rows(); ++i)
          ybar[i] = t.adjoint(out + static_cast<std::int64_t>(i));
        const la::Vector xbar = la::matvec_t(a, ybar);
        for (std::size_t j = 0; j < ix.size(); ++j)
          t.adjoint_ref(ix[j]) += xbar[j];
      });
  return wrap_outputs(tape, start, a.rows());
}

VarVec solve(const la::LuFactorization& lu, const VarVec& b) {
  UPDEC_REQUIRE(lu.size() == b.size(), "solve size mismatch");
  Tape& tape = tape_of(b);
  const la::Vector bv = values(b);
  const la::Vector xv = lu.solve(bv);
  const std::int64_t start = tape.custom_op(
      xv.std(), b.size() * kIndexBytes,
      [&lu, ib = indices_of(b)](Tape& t, std::int64_t out) {
        // b_bar += A^{-T} x_bar
        la::Vector xbar(lu.size());
        for (std::size_t i = 0; i < lu.size(); ++i)
          xbar[i] = t.adjoint(out + static_cast<std::int64_t>(i));
        const la::Vector bbar = lu.solve_transpose(xbar);
        for (std::size_t i = 0; i < ib.size(); ++i)
          t.adjoint_ref(ib[i]) += bbar[i];
      });
  return wrap_outputs(tape, start, b.size());
}

VarVec solve(const la::SparseFirstSolver& op, const VarVec& b) {
  UPDEC_REQUIRE(op.size() == b.size(), "solve size mismatch");
  Tape& tape = tape_of(b);
  const la::Vector bv = values(b);
  const la::Vector xv = op.solve(bv);
  const std::int64_t start = tape.custom_op(
      xv.std(), b.size() * kIndexBytes,
      [&op, ib = indices_of(b)](Tape& t, std::int64_t out) {
        // b_bar += A^{-T} x_bar
        la::Vector xbar(op.size());
        for (std::size_t i = 0; i < op.size(); ++i)
          xbar[i] = t.adjoint(out + static_cast<std::int64_t>(i));
        const la::Vector bbar = op.solve_transpose(xbar);
        for (std::size_t i = 0; i < ib.size(); ++i)
          t.adjoint_ref(ib[i]) += bbar[i];
      });
  return wrap_outputs(tape, start, b.size());
}

VarVec solve(const VarVec& a_flat, const VarVec& b) {
  const std::size_t n = b.size();
  UPDEC_REQUIRE(a_flat.size() == n * n, "solve expects n*n matrix entries");
  Tape& tape = tape_of(b);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = a_flat[i * n + j].value();
  auto lu = std::make_shared<la::LuFactorization>(std::move(a));
  const la::Vector xv = lu->solve(values(b));
  // Kept: the factors (n^2 values, n pivots), both index lists and x.
  const std::size_t kept = n * n * (sizeof(double) + kIndexBytes) +
                           n * (sizeof(std::size_t) + kIndexBytes +
                                sizeof(double));
  const std::int64_t start = tape.custom_op(
      xv.std(), kept,
      [lu, ia = indices_of(a_flat), ib = indices_of(b),
       xv](Tape& t, std::int64_t out) {
        const std::size_t m = ib.size();
        la::Vector xbar(m);
        for (std::size_t i = 0; i < m; ++i)
          xbar[i] = t.adjoint(out + static_cast<std::int64_t>(i));
        const la::Vector lambda = lu->solve_transpose(xbar);
        for (std::size_t i = 0; i < m; ++i) {
          t.adjoint_ref(ib[i]) += lambda[i];
          // A_bar = -lambda x^T
          for (std::size_t j = 0; j < m; ++j)
            t.adjoint_ref(ia[i * m + j]) -= lambda[i] * xv[j];
        }
      });
  return wrap_outputs(tape, start, n);
}

VarVec add(const VarVec& a, const VarVec& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "add size mismatch");
  VarVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

VarVec sub(const VarVec& a, const VarVec& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "sub size mismatch");
  VarVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

VarVec hadamard(const VarVec& a, const VarVec& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "hadamard size mismatch");
  VarVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

VarVec scale(double s, const VarVec& a) {
  VarVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

VarVec add_scaled(const VarVec& a, double s, const VarVec& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "add_scaled size mismatch");
  VarVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    out[i] = a[i].tape()->node2(a[i].value() + s * b[i].value(), a[i].index(),
                                1.0, b[i].index(), s);
  return out;
}

}  // namespace updec::ad
