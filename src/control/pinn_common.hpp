#pragma once
/// \file pinn_common.hpp
/// Shared machinery of the PINN strategy (section 2.3): configuration,
/// training records, and the tape-side network evaluations that give exact
/// input derivatives of u_theta with dLoss/dtheta on the reverse tape.
///
/// Each evaluation is one tape operation, nn::Mlp::forward_taylor: its
/// forward runs in plain doubles over a Taylor stack (value; value and a
/// directional derivative; value, gradient and upper Hessian) and its
/// reverse sweep is a hand-written VJP through the layers, the activation's
/// second-order chain rule included (mlp.hpp). The handles returned here
/// point at the operation's outputs, and every value equals what the
/// generic Mlp::forward over Var, Dual<Var> or Dual2<Var> computes.

#include <vector>

#include "autodiff/dual.hpp"
#include "autodiff/dual2.hpp"
#include "autodiff/ops.hpp"
#include "nn/mlp.hpp"

namespace updec::control {

/// Hyper-parameters of one PINN training run (Tables 1 and 2 rows).
struct PinnConfig {
  std::vector<std::size_t> u_hidden = {30, 30, 30};  ///< paper Laplace: 3x30
  std::vector<std::size_t> c_hidden = {20};
  std::size_t epochs = 1000;
  std::size_t n_interior = 800;    ///< collocation points in Omega
  std::size_t n_boundary = 48;     ///< points per boundary segment
  std::size_t batch_interior = 64;
  std::size_t batch_boundary = 32;
  double learning_rate = 1e-3;     ///< paper: 1e-3 for both problems
  double omega = 0.1;              ///< cost weight (paper Laplace: 1e-1)
  std::uint64_t seed = 0;
  bool alternating = true;         ///< alternate u/c updates (section 2.3)
  bool train_control = true;       ///< false freezes c (line-search step 2)
};

/// Per-epoch training record.
struct PinnHistory {
  std::vector<double> total_loss;
  std::vector<double> pde_loss;
  std::vector<double> boundary_loss;
  std::vector<double> cost_term;  ///< J as seen by the network
};

namespace pinn_detail {

/// Handle on plane `plane` of output `k` of a forward_taylor operation
/// starting at node `start` with `planes` planes per output.
inline ad::Var taylor_output(ad::Tape& tape, std::int64_t start,
                             std::size_t planes, std::size_t k,
                             std::size_t plane) {
  return {&tape, start + static_cast<std::int64_t>(k * planes + plane)};
}

/// Value handles of every output of a one-plane forward_taylor operation.
inline std::vector<ad::Var> taylor_values(const nn::Mlp& net, ad::Tape& tape,
                                          std::int64_t start) {
  std::vector<ad::Var> out;
  out.reserve(net.num_outputs());
  for (std::size_t k = 0; k < net.num_outputs(); ++k)
    out.push_back(taylor_output(tape, start, 1, k, 0));
  return out;
}

/// Evaluate an MLP at (x, y) with tape weights and full second-order input
/// derivatives: returns one Dual2<Var> per network output.
inline std::vector<ad::Dual2<ad::Var>> eval_dual2(
    const nn::Mlp& net, std::span<const ad::Var> theta, ad::Tape& tape,
    double x, double y) {
  const double stack[] = {x, 1.0, 0.0, 0.0, 0.0, 0.0,
                          y, 0.0, 1.0, 0.0, 0.0, 0.0};
  const std::int64_t start = net.forward_taylor(tape, theta, stack, 6);
  std::vector<ad::Dual2<ad::Var>> out;
  out.reserve(net.num_outputs());
  for (std::size_t k = 0; k < net.num_outputs(); ++k) {
    const auto plane = [&](std::size_t p) {
      return taylor_output(tape, start, 6, k, p);
    };
    out.emplace_back(plane(0), plane(1), plane(2), plane(3), plane(4),
                     plane(5));
  }
  return out;
}

/// First-order directional evaluation: derivative channel seeded along
/// (dx, dy). Cheaper than Dual2 when only one gradient is needed.
inline std::vector<ad::Dual<ad::Var>> eval_dual1(
    const nn::Mlp& net, std::span<const ad::Var> theta, ad::Tape& tape,
    double x, double y, double dx, double dy) {
  const double stack[] = {x, dx, y, dy};
  const std::int64_t start = net.forward_taylor(tape, theta, stack, 2);
  std::vector<ad::Dual<ad::Var>> out;
  out.reserve(net.num_outputs());
  for (std::size_t k = 0; k < net.num_outputs(); ++k)
    out.emplace_back(taylor_output(tape, start, 2, k, 0),
                     taylor_output(tape, start, 2, k, 1));
  return out;
}

/// Plain value evaluation on the tape (Dirichlet penalties).
inline std::vector<ad::Var> eval_value(const nn::Mlp& net,
                                       std::span<const ad::Var> theta,
                                       ad::Tape& tape, double x, double y) {
  const double stack[] = {x, y};
  return taylor_values(net, tape, net.forward_taylor(tape, theta, stack, 1));
}

/// 1-D network evaluation (control networks c_theta).
inline std::vector<ad::Var> eval_value1d(const nn::Mlp& net,
                                         std::span<const ad::Var> theta,
                                         ad::Tape& tape, double t) {
  const double stack[] = {t};
  return taylor_values(net, tape, net.forward_taylor(tape, theta, stack, 1));
}

}  // namespace pinn_detail

}  // namespace updec::control
