#pragma once
/// \file channel_problem.hpp
/// The Navier-Stokes inflow-control problem of section 3.2: find the inlet
/// velocity profile that produces a parabolic outflow despite the
/// blowing/suction cross-flow. Cost of eq. (11):
///   J = 1/2 int_0^Ly ( |u(Lx,y) - 4 y (Ly-y)/Ly^2|^2 + |v(Lx,y)|^2 ) dy.
///
/// Strategies:
///  * DP  -- exact reverse sweep through the whole k-refinement projection
///           rollout (one tape operation over the stored step states),
///  * DAL -- continuous adjoint Navier-Stokes equations marched to steady
///           state with the same projection machinery (the scheme whose
///           gradient quality collapses at Re = 100 in the paper),
///  * FD  -- central finite differences (footnote 11).

#include <memory>

#include "control/problem.hpp"
#include "pde/channel_flow.hpp"

namespace updec::control {

class ChannelFlowControlProblem final : public ControlProblem {
 public:
  /// The problem owns its cloud and solver.
  ChannelFlowControlProblem(const pc::ChannelSpec& spec,
                            const rbf::Kernel& kernel,
                            const pde::ChannelFlowConfig& config);

  [[nodiscard]] std::string name() const override { return "navier-stokes"; }
  [[nodiscard]] std::size_t control_size() const override {
    return solver_->inlet_nodes().size();
  }
  /// Paper: initial inflow guess 4 y (Ly - y) / Ly^2.
  [[nodiscard]] la::Vector initial_control() const override {
    return solver_->parabolic_inflow();
  }
  [[nodiscard]] double cost(const la::Vector& control) const override;

  /// Cost of an already-computed flow state.
  [[nodiscard]] double cost_of_flow(const pde::Flow& flow) const;

  /// Outflow u-profile for a control (Fig. 4d / Fig. 1 series).
  [[nodiscard]] la::Vector outflow_profile(const la::Vector& control) const;

  [[nodiscard]] const pde::ChannelFlowSolver& solver() const {
    return *solver_;
  }
  [[nodiscard]] const pc::PointCloud& cloud() const { return cloud_; }

 private:
  pc::PointCloud cloud_;
  const rbf::Kernel* kernel_;
  std::unique_ptr<pde::ChannelFlowSolver> solver_;
};

/// \param smoothing Tikhonov weight alpha on sum (c_{q+1} - c_q)^2 / dy:
///        section 4 of the paper suggests penalising the control's
///        variations to cure DP's rough profiles but refrains for fairness;
///        0 (the default) reproduces the paper's setting. The returned cost
///        is always the raw J; the gradient includes the penalty.
std::unique_ptr<GradientStrategy> make_channel_dp(
    std::shared_ptr<const ChannelFlowControlProblem> problem,
    double smoothing = 0.0);

std::unique_ptr<GradientStrategy> make_channel_dal(
    std::shared_ptr<const ChannelFlowControlProblem> problem);
std::unique_ptr<GradientStrategy> make_channel_fd(
    std::shared_ptr<const ChannelFlowControlProblem> problem,
    double step = 1e-5);

}  // namespace updec::control
