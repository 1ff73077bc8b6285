#pragma once
/// \file mlp.hpp
/// Multilayer perceptrons for the PINN strategy (section 2.3). The paper's
/// networks: 3x30 tanh for the Laplace problem (Table 1), 5x50 tanh for
/// Navier-Stokes (Table 2), plus small 1-D control networks c_theta.
///
/// The generic forward pass is templated on the activation scalar T and the
/// parameter scalar S, connected by a `lift` functor: plain doubles,
/// Dual/Dual2 for input derivatives, and (T = Dual2<Var>, S = Var) for
/// forward-over-reverse, where every scalar of the pass is a tape node.
///
/// PINN training instead records each network evaluation as one tape
/// operation, forward_taylor(). Its forward runs in plain doubles over a
/// Taylor stack of P planes per unit (1: value; 2: value and one directional
/// derivative; 6: value, gradient and upper Hessian in two seeded
/// directions) and keeps every hidden layer's pre-activations z and
/// activations a. Each plane of z accumulates the bias first (0 on the
/// derivative planes), then W_ji a_i for i = 0..fan_in-1, and the activation
/// uses the expressions of var_math.hpp, dual.hpp and dual2.hpp, so every
/// output equals what the generic pass over Var, Dual<Var> or Dual2<Var>
/// computes, bit for bit. The reverse sweep is a hand-written VJP that
/// writes straight into the parameters' adjoints. Per linear layer:
///   W_bar += sum_p zbar_p a_p^T,  b_bar += zbar_v,  abar_p = W^T zbar_p.
/// Through the activation a_v = sigma(z_v), a_k = s1 z_k (gradient planes),
/// a_kl = s1 z_kl + s2 z_k z_l (Hessian planes), with s1, s2, s3 = sigma',
/// sigma'', sigma''' at z_v:
///   zbar_kl = s1 abar_kl
///   zbar_k  = s1 abar_k + s2 sum_lm abar_lm d(z_l z_m)/dz_k
///   zbar_v  = s1 abar_v + s2 (sum_k z_k abar_k + sum_kl z_kl abar_kl)
///             + s3 sum_kl z_k z_l abar_kl.
/// The s3 (third-derivative) term is the Hessian planes' dependence on z_v
/// through sigma''.

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "autodiff/tape.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace updec::nn {

enum class Activation { kTanh, kSin, kRelu, kIdentity };

const char* to_string(Activation activation);

/// Fully connected network with a fixed activation on hidden layers and a
/// linear output layer. Parameters are stored flat (layer by layer, weights
/// row-major then biases) so optimisers and tapes can treat them as one
/// vector.
class Mlp {
 public:
  /// \param layer_sizes e.g. {2, 30, 30, 30, 1} for the paper's Laplace u_theta.
  Mlp(std::vector<std::size_t> layer_sizes, Activation activation,
      std::uint64_t seed = 0);

  [[nodiscard]] const std::vector<std::size_t>& layer_sizes() const {
    return layers_;
  }
  [[nodiscard]] Activation activation() const { return activation_; }
  [[nodiscard]] std::size_t num_parameters() const { return params_.size(); }
  [[nodiscard]] std::size_t num_inputs() const { return layers_.front(); }
  [[nodiscard]] std::size_t num_outputs() const { return layers_.back(); }

  /// Flat parameter vector (Glorot-initialised at construction).
  [[nodiscard]] const std::vector<double>& parameters() const {
    return params_;
  }
  void set_parameters(std::span<const double> params);

  /// Re-initialise with a new seed (fresh network, same architecture).
  void reinitialize(std::uint64_t seed);

  /// Generic forward pass.
  /// \param params flat parameters of scalar type S (length num_parameters()).
  /// \param inputs network inputs of scalar type T (length num_inputs()).
  /// \param lift   converts S -> T (identity when S == T).
  template <typename T, typename S, typename Lift>
  std::vector<T> forward(std::span<const S> params, std::span<const T> inputs,
                         Lift&& lift) const {
    UPDEC_REQUIRE(params.size() == num_parameters(),
                  "parameter vector size mismatch");
    UPDEC_REQUIRE(inputs.size() == num_inputs(), "input size mismatch");
    std::vector<T> current(inputs.begin(), inputs.end());
    std::size_t offset = 0;
    for (std::size_t layer = 0; layer + 1 < layers_.size(); ++layer) {
      const std::size_t fan_in = layers_[layer];
      const std::size_t fan_out = layers_[layer + 1];
      std::vector<T> next;
      next.reserve(fan_out);
      for (std::size_t j = 0; j < fan_out; ++j) {
        // z_j = b_j + sum_i W_ji x_i  (weights row-major: W[j][i])
        T z = lift(params[offset + fan_in * fan_out + j]);  // bias
        for (std::size_t i = 0; i < fan_in; ++i)
          z = z + lift(params[offset + j * fan_in + i]) * current[i];
        const bool hidden = layer + 2 < layers_.size();
        next.push_back(hidden ? activate(z) : z);
      }
      offset += fan_in * fan_out + fan_out;
      current = std::move(next);
    }
    return current;
  }

  /// Taped forward over a Taylor stack of `planes` planes (1, 2 or 6; see
  /// the file comment), recorded as one operation on `tape`.
  /// \param params the flat parameters as consecutive nodes of `tape`, as
  ///               ad::make_variables records them.
  /// \param inputs num_inputs() x planes doubles, input-major: plane p of
  ///               input i at i * planes + p.
  /// \return index of the first output node; plane p of output k is node
  ///         start + k * planes + p. The operation keeps the hidden layers'
  ///         z and a and the inputs (O(activations), declared to the tape).
  std::int64_t forward_taylor(ad::Tape& tape, std::span<const ad::Var> params,
                              std::span<const double> inputs,
                              std::size_t planes) const;

  /// Convenience: plain double forward.
  [[nodiscard]] std::vector<double> forward(
      std::span<const double> inputs) const {
    return forward<double, double>(std::span<const double>(params_), inputs,
                                   [](double w) { return w; });
  }

  [[nodiscard]] std::string summary() const;

 private:
  template <typename T>
  T activate(const T& z) const {
    using std::sin;
    using std::tanh;
    switch (activation_) {
      case Activation::kTanh: return tanh(z);
      case Activation::kSin: return sin(z);
      case Activation::kRelu: return relu(z);
      case Activation::kIdentity: return z;
    }
    UPDEC_REQUIRE(false, "unreachable activation");
    return z;
  }

  // ReLU branches on the forward value: exact for double/Var, and the
  // standard subgradient choice (0 on the inactive side) for dual types.
  template <typename T>
  static double value_probe(const T& z) {
    if constexpr (std::is_arithmetic_v<T>) {
      return static_cast<double>(z);
    } else if constexpr (requires { z.value(); }) {
      return z.value();
    } else {
      return value_probe(z.v);  // Dual / Dual2 recurse through .v
    }
  }
  template <typename T>
  static T relu(const T& z) {
    if (value_probe(z) > 0.0) return z;
    return z * 0.0;
  }

  std::vector<std::size_t> layers_;
  Activation activation_;
  std::vector<double> params_;
};

}  // namespace updec::nn
