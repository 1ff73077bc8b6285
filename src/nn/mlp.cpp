#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace updec::nn {

namespace {

// ---- the Taylor-stack operation behind Mlp::forward_taylor ---------------
// A unit's P planes are contiguous: v, then (P = 2) d, or (P = 6) gx, gy,
// hxx, hxy, hyy.

/// dual2.hpp's unary_chain on the derivative planes of one unit.
void chain2(const double* z, double f1, double f2, double* a) {
  a[1] = f1 * z[1];
  a[2] = f1 * z[2];
  a[3] = f1 * z[3] + f2 * (z[1] * z[1]);
  a[4] = f1 * z[4] + f2 * (z[1] * z[2]);
  a[5] = f1 * z[5] + f2 * (z[2] * z[2]);
}

/// One unit's activation with the expressions of var_math.hpp (P = 1),
/// dual.hpp (P = 2) and dual2.hpp (P = 6), so the planes match the generic
/// pass bit for bit.
template <std::size_t P>
void activate_unit(Activation activation, const double* z, double* a) {
  switch (activation) {
    case Activation::kTanh: {
      const double t = std::tanh(z[0]);
      const double f1 = 1.0 - t * t;
      a[0] = t;
      if constexpr (P == 2) a[1] = z[1] * f1;
      if constexpr (P == 6) chain2(z, f1, -2.0 * (t * f1), a);
      return;
    }
    case Activation::kSin: {
      const double s = std::sin(z[0]);
      a[0] = s;
      if constexpr (P == 2) a[1] = z[1] * std::cos(z[0]);
      if constexpr (P == 6) chain2(z, std::cos(z[0]), -s, a);
      return;
    }
    case Activation::kRelu:
      // Mlp::relu: z itself when active, z * 0.0 plane by plane otherwise.
      for (std::size_t p = 0; p < P; ++p)
        a[p] = z[0] > 0.0 ? z[p] : z[p] * 0.0;
      return;
    case Activation::kIdentity:
      std::copy(z, z + P, a);
      return;
  }
}

/// sigma', sigma'' and sigma''' at z: the partials the generic pass records,
/// through f1 and f2 where they are themselves functions of z.
struct Slopes {
  double s1, s2, s3;
};

Slopes slopes(Activation activation, double z) {
  switch (activation) {
    case Activation::kTanh: {
      const double t = std::tanh(z);
      const double s1 = 1.0 - t * t;
      const double s2 = -2.0 * (t * s1);
      return {s1, s2, -2.0 * (s1 * s1 + t * s2)};
    }
    case Activation::kSin: {
      const double c = std::cos(z);
      return {c, -std::sin(z), -c};
    }
    case Activation::kRelu: return {z > 0.0 ? 1.0 : 0.0, 0.0, 0.0};
    case Activation::kIdentity: return {1.0, 0.0, 0.0};
  }
  return {1.0, 0.0, 0.0};
}

/// Reverse of activate_unit: the second-order chain rule (mlp.hpp).
template <std::size_t P>
void activate_unit_vjp(Activation activation, const double* z,
                       const double* abar, double* zbar) {
  const Slopes s = slopes(activation, z[0]);
  zbar[0] = s.s1 * abar[0];
  if constexpr (P == 2) {
    zbar[1] = s.s1 * abar[1];
    zbar[0] += s.s2 * (z[1] * abar[1]);
  }
  if constexpr (P == 6) {
    zbar[1] = s.s1 * abar[1] + s.s2 * (2.0 * z[1] * abar[3] + z[2] * abar[4]);
    zbar[2] = s.s1 * abar[2] + s.s2 * (z[1] * abar[4] + 2.0 * z[2] * abar[5]);
    for (std::size_t p = 3; p < 6; ++p) zbar[p] = s.s1 * abar[p];
    zbar[0] += s.s2 * (z[1] * abar[1] + z[2] * abar[2] + z[3] * abar[3] +
                       z[4] * abar[4] + z[5] * abar[5]) +
               s.s3 * (z[1] * z[1] * abar[3] + z[1] * z[2] * abar[4] +
                       z[2] * z[2] * abar[5]);
  }
}

/// z_j = b_j + sum_i W_ji a_i plane by plane, bias first then i ascending,
/// as Mlp::forward accumulates; the derivative planes' lifted bias is 0.
template <std::size_t P>
void linear_forward(const double* w, const double* b, std::size_t fan_in,
                    std::size_t fan_out, const double* a, double* z) {
  for (std::size_t j = 0; j < fan_out; ++j) {
    const double* row = w + j * fan_in;
    double acc[P] = {};
    acc[0] = b[j];
    for (std::size_t i = 0; i < fan_in; ++i) {
      const double* ai = a + i * P;
      for (std::size_t p = 0; p < P; ++p) acc[p] += row[i] * ai[p];
    }
    std::copy(acc, acc + P, z + j * P);
  }
}

/// W_bar += sum_p zbar_p a_p^T, b_bar += zbar_v and, when abar is given,
/// abar_p += W^T zbar_p.
template <std::size_t P>
void linear_vjp(const double* w, std::size_t fan_in, std::size_t fan_out,
                const double* a, const double* zbar, double* wbar,
                double* bbar, double* abar) {
  for (std::size_t j = 0; j < fan_out; ++j) {
    const double* zb = zbar + j * P;
    bbar[j] += zb[0];
    double* row_bar = wbar + j * fan_in;
    for (std::size_t i = 0; i < fan_in; ++i) {
      const double* ai = a + i * P;
      double g = 0.0;
      for (std::size_t p = 0; p < P; ++p) g += zb[p] * ai[p];
      row_bar[i] += g;
    }
    if (abar == nullptr) continue;
    const double* row = w + j * fan_in;
    for (std::size_t i = 0; i < fan_in; ++i)
      for (std::size_t p = 0; p < P; ++p) abar[i * P + p] += row[i] * zb[p];
  }
}

/// Records the operation. `kept` holds [a_0 | z_1 | a_1 | ... | z_H | a_H]:
/// the inputs, then each hidden layer's pre-activations and activations.
template <std::size_t P>
std::int64_t record_taylor(const std::vector<std::size_t>& layers,
                           Activation activation, ad::Tape& tape,
                           std::int64_t theta_start, std::size_t n_params,
                           std::span<const double> inputs) {
  std::size_t kept_size = layers.front() * P;
  for (std::size_t l = 1; l + 1 < layers.size(); ++l)
    kept_size += 2 * layers[l] * P;
  std::vector<double> kept(kept_size);
  std::copy(inputs.begin(), inputs.end(), kept.begin());
  std::vector<double> out(layers.back() * P);

  const std::span<const double> theta = tape.values(theta_start, n_params);
  const double* a = kept.data();
  double* cursor = kept.data() + layers.front() * P;
  std::size_t offset = 0;
  for (std::size_t l = 0; l + 1 < layers.size(); ++l) {
    const std::size_t fan_in = layers[l];
    const std::size_t fan_out = layers[l + 1];
    const double* w = theta.data() + offset;
    const bool hidden = l + 2 < layers.size();
    double* z = hidden ? cursor : out.data();
    linear_forward<P>(w, w + fan_in * fan_out, fan_in, fan_out, a, z);
    if (hidden) {
      double* act = z + fan_out * P;
      for (std::size_t j = 0; j < fan_out; ++j)
        activate_unit<P>(activation, z + j * P, act + j * P);
      a = act;
      cursor = act + fan_out * P;
    }
    offset += fan_in * fan_out + fan_out;
  }

  const std::size_t kept_bytes =
      kept.size() * sizeof(double) + layers.size() * sizeof(std::size_t);
  return tape.custom_op(
      out, kept_bytes,
      [layers, activation, theta_start, n_params,
       kept = std::move(kept)](ad::Tape& t, std::int64_t out_start) {
        const std::span<const double> ybar =
            t.adjoints(out_start, layers.back() * P);
        // Like the scalar sweep, which skips nodes whose adjoint is zero.
        if (std::all_of(ybar.begin(), ybar.end(),
                        [](double y) { return y == 0.0; }))
          return;
        const std::span<const double> theta = t.values(theta_start, n_params);
        const std::span<double> theta_bar = t.adjoints(theta_start, n_params);
        // Offsets of each linear layer's parameters and input activations.
        const std::size_t n_linear = layers.size() - 1;
        std::vector<std::size_t> param_off(n_linear), a_off(n_linear);
        for (std::size_t l = 1; l < n_linear; ++l) {
          param_off[l] = param_off[l - 1] + layers[l - 1] * layers[l] +
                         layers[l];
          a_off[l] = a_off[l - 1] + (layers[l - 1] + layers[l]) * P;
        }
        std::vector<double> zbar(ybar.begin(), ybar.end()), abar;
        for (std::size_t l = n_linear; l-- > 0;) {
          const std::size_t fan_in = layers[l];
          const std::size_t fan_out = layers[l + 1];
          const double* w = theta.data() + param_off[l];
          double* wbar = theta_bar.data() + param_off[l];
          abar.assign(l > 0 ? fan_in * P : 0, 0.0);
          linear_vjp<P>(w, fan_in, fan_out, kept.data() + a_off[l],
                        zbar.data(), wbar, wbar + fan_in * fan_out,
                        l > 0 ? abar.data() : nullptr);
          if (l == 0) break;
          // Hidden layer l: its z sits just before its a in `kept`.
          const double* z = kept.data() + a_off[l] - fan_in * P;
          zbar.resize(fan_in * P);
          for (std::size_t i = 0; i < fan_in; ++i)
            activate_unit_vjp<P>(activation, z + i * P, abar.data() + i * P,
                                 zbar.data() + i * P);
        }
      });
}

}  // namespace

std::int64_t Mlp::forward_taylor(ad::Tape& tape,
                                 std::span<const ad::Var> params,
                                 std::span<const double> inputs,
                                 std::size_t planes) const {
  UPDEC_REQUIRE(params.size() == num_parameters(),
                "parameter vector size mismatch");
  UPDEC_REQUIRE(inputs.size() == num_inputs() * planes,
                "Taylor stack size mismatch");
  UPDEC_REQUIRE(params.front().tape() == &tape,
                "parameters live on another tape");
  const std::int64_t theta_start = params.front().index();
  UPDEC_REQUIRE(params.back().index() ==
                    theta_start + static_cast<std::int64_t>(params.size()) - 1,
                "forward_taylor needs the parameters as consecutive nodes");
  for (std::size_t k = 0; k < params.size(); ++k)
    UPDEC_ASSERT(params[k].index() ==
                 theta_start + static_cast<std::int64_t>(k));
  switch (planes) {
    case 1:
      return record_taylor<1>(layers_, activation_, tape, theta_start,
                              params.size(), inputs);
    case 2:
      return record_taylor<2>(layers_, activation_, tape, theta_start,
                              params.size(), inputs);
    case 6:
      return record_taylor<6>(layers_, activation_, tape, theta_start,
                              params.size(), inputs);
    default:
      UPDEC_REQUIRE(false, "a Taylor stack has 1, 2 or 6 planes");
      return -1;
  }
}

const char* to_string(Activation activation) {
  switch (activation) {
    case Activation::kTanh: return "tanh";
    case Activation::kSin: return "sin";
    case Activation::kRelu: return "relu";
    case Activation::kIdentity: return "identity";
  }
  return "?";
}

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Activation activation,
         std::uint64_t seed)
    : layers_(std::move(layer_sizes)), activation_(activation) {
  UPDEC_REQUIRE(layers_.size() >= 2, "MLP needs at least input and output");
  for (const std::size_t width : layers_)
    UPDEC_REQUIRE(width > 0, "layer widths must be positive");
  std::size_t count = 0;
  for (std::size_t layer = 0; layer + 1 < layers_.size(); ++layer)
    count += layers_[layer] * layers_[layer + 1] + layers_[layer + 1];
  params_.resize(count);
  reinitialize(seed);
}

void Mlp::reinitialize(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x1234567ull);
  std::size_t offset = 0;
  for (std::size_t layer = 0; layer + 1 < layers_.size(); ++layer) {
    const std::size_t fan_in = layers_[layer];
    const std::size_t fan_out = layers_[layer + 1];
    // Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
    const double a =
        std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (std::size_t k = 0; k < fan_in * fan_out; ++k)
      params_[offset + k] = rng.uniform(-a, a);
    for (std::size_t k = 0; k < fan_out; ++k)
      params_[offset + fan_in * fan_out + k] = 0.0;  // zero biases
    offset += fan_in * fan_out + fan_out;
  }
}

void Mlp::set_parameters(std::span<const double> params) {
  UPDEC_REQUIRE(params.size() == params_.size(),
                "parameter vector size mismatch");
  params_.assign(params.begin(), params.end());
}

std::string Mlp::summary() const {
  std::ostringstream os;
  os << "Mlp(";
  for (std::size_t i = 0; i < layers_.size(); ++i)
    os << (i ? "x" : "") << layers_[i];
  os << ", " << to_string(activation_) << ", " << num_parameters()
     << " parameters)";
  return os.str();
}

}  // namespace updec::nn
