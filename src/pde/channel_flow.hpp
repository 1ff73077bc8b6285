#pragma once
/// \file channel_flow.hpp
/// Steady incompressible Navier-Stokes channel flow (section 3.2, fig. 4a):
/// blowing and suction patches disturb a channel flow; the inflow profile
/// is the control. Discretisation follows the paper: RBF-FD derivatives on
/// a scattered cloud, a Chorin-inspired projection scheme marched to steady
/// state [11, 51], wrapped in k Picard "refinements" that re-linearise the
/// advection operator.
///
/// The differentiation matrices and the pressure-Poisson factorisation are
/// constant for a fixed cloud, so the DP tape of a full solve contains only
/// SpMVs, pointwise arithmetic and reusable-LU solves -- the structure whose
/// memory footprint Table 3 of the paper measures (it grows linearly in the
/// total number of pseudo-time steps, i.e. super-linearly in k).

#include "la/robust_solve.hpp"
#include "pde/backend.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/rbffd.hpp"

namespace updec::pde {

/// Solver configuration (paper defaults in comments).
struct ChannelFlowConfig {
  double reynolds = 100.0;       ///< paper: Re = 100 (10 for the DAL ablation)
  double dt = 0.004;             ///< pseudo-time step of the projection
  std::size_t refinements = 3;   ///< k: DAL used 3, DP used 10
  std::size_t steps_per_refinement = 200;
  double steady_tol = 1e-9;      ///< early exit when max |du|/dt drops below
  double patch_velocity = 1.0;   ///< peak blowing/suction speed (the fig. 1
                                 ///< cross-flow is comparable to the inflow)
  double advection = 1.0;        ///< advection scale: 0 gives Stokes flow
  /// Pressure Laplacian discretisation: true uses the consistent product
  /// Dx.Dx + Dy.Dy (projection removes exactly the divergence it sees),
  /// false the compact RBF-FD Laplacian (the ablation of DESIGN.md).
  bool consistent_pressure = true;
  /// Implicit biharmonic hyperviscosity coefficient (units of viscosity):
  /// adds gamma*dt*Lap^2 to the momentum operator. Scattered-node PHS
  /// Laplacians carry a few spurious eigenvalues with small positive real
  /// part; the biharmonic term pushes them back into the stable half-plane
  /// while perturbing resolved scales at O(h^2). Set 0 to disable (the
  /// stability ablation).
  double hyperviscosity = 0.02;
  rbf::RbffdConfig rbffd;        ///< stencil size / polynomial degree
};

/// Velocity-pressure state of one flow solve.
template <typename VecT>
struct FlowState {
  VecT u, v, p;
  std::size_t steps_taken = 0;
};

using Flow = FlowState<la::Vector>;
using FlowAd = FlowState<ad::VarVec>;

/// Steady channel-flow solver over a fixed cloud.
class ChannelFlowSolver {
 public:
  /// \param cloud  channel point cloud (canonical ordering; must outlive
  ///               the solver), normally from pc::channel_cloud(spec).
  /// \param spec   the geometry the cloud was generated from (patch
  ///               positions and channel dimensions).
  ChannelFlowSolver(const pc::PointCloud& cloud, const rbf::Kernel& kernel,
                    const ChannelFlowConfig& config = {},
                    const pc::ChannelSpec& spec = {});

  /// Plain solve given the inflow control (one u-velocity per inlet node,
  /// ordered by increasing y).
  [[nodiscard]] Flow solve(const la::Vector& inflow) const;

  /// Differentiable solve: the whole projection rollout is recorded on the
  /// tape (the DP strategy's forward pass).
  [[nodiscard]] FlowAd solve(ad::Tape& tape, const ad::VarVec& inflow) const;

  /// Memory-lean DP variant (the obvious remedy for the paper's section-4
  /// memory complaint): run the first k-1 Picard refinements in plain
  /// arithmetic and record only the final refinement on the tape, starting
  /// from the detached state. The gradient ignores the sensitivity of the
  /// earlier sweeps (they re-enter only through the frozen advection
  /// field), so it is approximate; the tape shrinks by ~k.
  [[nodiscard]] FlowAd solve_last_refinement(ad::Tape& tape,
                                             const ad::VarVec& inflow) const;

  // ---- problem geometry / data ----

  [[nodiscard]] const pc::PointCloud& cloud() const { return *cloud_; }
  [[nodiscard]] const ChannelFlowConfig& config() const { return config_; }
  [[nodiscard]] const pc::ChannelSpec& spec() const { return spec_; }

  /// Inlet / outlet nodes sorted by increasing y, and their y-coordinates.
  [[nodiscard]] const std::vector<std::size_t>& inlet_nodes() const {
    return inlet_nodes_;
  }
  [[nodiscard]] const std::vector<std::size_t>& outlet_nodes() const {
    return outlet_nodes_;
  }
  [[nodiscard]] const std::vector<double>& inlet_y() const { return inlet_y_; }
  [[nodiscard]] const std::vector<double>& outlet_y() const {
    return outlet_y_;
  }

  /// Trapezoidal quadrature weights along the outlet (for the cost of
  /// eq. (11)).
  [[nodiscard]] const la::Vector& outlet_quadrature() const {
    return outlet_quad_;
  }

  /// Target parabolic outflow 4 y (Ly - y) / Ly^2.
  [[nodiscard]] double target_outflow(double y) const;

  /// Paper's initial control guess: the same parabola at the inlet.
  [[nodiscard]] la::Vector parabolic_inflow() const;

  /// RBF-FD differentiation matrices (constant per cloud).
  [[nodiscard]] const la::CsrMatrix& dx_matrix() const { return dx_; }
  [[nodiscard]] const la::CsrMatrix& dy_matrix() const { return dy_; }
  [[nodiscard]] const la::CsrMatrix& laplacian_matrix() const { return lap_; }

  /// Pressure-Poisson operator (constant per cloud), factored once as a
  /// band LU.
  [[nodiscard]] const la::SparseFirstSolver& pressure_op() const {
    return pressure_op_;
  }

  /// Semi-implicit momentum operator (I - dt/Re Lap on interior rows,
  /// identity on boundary rows). Removes the diffusive CFL limit that the
  /// wall-graded cloud would otherwise impose (cf. Zamolo & Nobile [51]).
  [[nodiscard]] const la::SparseFirstSolver& momentum_op() const {
    return momentum_op_;
  }

  /// How the band factorisations were obtained (Tikhonov shift applied?).
  [[nodiscard]] la::FactorReport pressure_factor_report() const {
    return pressure_op_.factor_report();
  }
  [[nodiscard]] la::FactorReport momentum_factor_report() const {
    return momentum_op_.factor_report();
  }

  /// Consistent Laplacian Dx.Dx + Dy.Dy restricted to interior rows
  /// (boundary rows structurally empty). Shared with the DAL adjoint
  /// solver, which builds its own momentum operator with adjoint boundary
  /// rows from it.
  [[nodiscard]] const la::CsrMatrix& interior_laplacian() const {
    return lap_consistent_;
  }

  /// Pressure-interior mask: 1 for nodes whose pressure row is the
  /// Laplacian (i.e. interior nodes).
  [[nodiscard]] const std::vector<std::uint8_t>& interior_mask() const {
    return is_interior_;
  }

  /// Prescribed wall-normal velocity at a node (patch bump profile; zero on
  /// plain wall segments).
  [[nodiscard]] double patch_velocity_at(std::size_t node) const;

  /// Divergence field of a velocity state (diagnostic).
  [[nodiscard]] la::Vector divergence(const la::Vector& u,
                                      const la::Vector& v) const;

  /// The spec used when this solver built its own cloud.
  [[nodiscard]] static pc::PointCloud make_cloud(const pc::ChannelSpec& spec) {
    return pc::channel_cloud(spec);
  }

 private:
  template <typename Backend>
  FlowState<typename Backend::Vec> initial_state(
      const Backend& backend, const typename Backend::Vec& inflow) const;

  template <typename Backend>
  void run_refinements(const Backend& backend,
                       FlowState<typename Backend::Vec>& state,
                       const typename Backend::Vec& inflow,
                       std::size_t count) const;

  template <typename Backend>
  FlowState<typename Backend::Vec> run(const Backend& backend,
                                       const typename Backend::Vec& inflow)
      const;

  template <typename Backend>
  void apply_velocity_bcs(const Backend& backend,
                          typename Backend::Vec& u,
                          typename Backend::Vec& v,
                          const typename Backend::Vec& inflow) const;

  const pc::PointCloud* cloud_;
  ChannelFlowConfig config_;
  pc::ChannelSpec spec_;

  rbf::RbffdOperators operators_;
  la::CsrMatrix dx_, dy_, lap_;
  la::CsrMatrix lap_consistent_;  // Dx.Dx + Dy.Dy on interior rows
  la::SparseFirstSolver pressure_op_;
  la::SparseFirstSolver momentum_op_;

  std::vector<std::size_t> inlet_nodes_, outlet_nodes_;
  std::vector<double> inlet_y_, outlet_y_;
  la::Vector outlet_quad_;
  std::vector<std::uint8_t> is_interior_;  // pressure-interior mask
  std::vector<std::size_t> wall_nodes_;    // walls incl. patches
};

}  // namespace updec::pde
