#pragma once
/// \file laplace.hpp
/// The Laplace boundary-control substrate of section 3.1: Lap u = 0 on the
/// unit square, Dirichlet data everywhere, with the *top wall* data acting
/// as the control. The collocation matrix is factored once; both the plain
/// (double) and the differentiable (tape) solve paths reuse it.

#include "autodiff/ops.hpp"
#include "la/robust_solve.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/collocation.hpp"
#include "rbf/rbffd.hpp"

namespace updec::pde {

/// Laplace solver on the unit square with a controllable top wall.
class LaplaceSolver {
 public:
  /// \param grid_n     grid resolution: (grid_n+1)^2 nodes (paper: 100x100).
  /// \param poly_degree appended monomial degree (paper: 1).
  LaplaceSolver(std::size_t grid_n, const rbf::Kernel& kernel,
                int poly_degree = 1);

  /// Nodes on the controlled top wall, ordered by increasing x.
  [[nodiscard]] const std::vector<std::size_t>& top_nodes() const {
    return top_nodes_;
  }
  /// x-coordinates of the top-wall nodes (same order as top_nodes()).
  [[nodiscard]] const std::vector<double>& top_x() const { return top_x_; }

  /// The problem is x-periodic, so the two top corners carry the same
  /// control value: the control vector has one entry per top node except
  /// the x = 1 corner, which reuses entry 0.
  [[nodiscard]] std::size_t num_control() const {
    return top_nodes_.size() - 1;
  }
  /// x-coordinates of the control degrees of freedom (top_x() minus x = 1).
  [[nodiscard]] std::vector<double> control_x() const {
    return {top_x_.begin(), top_x_.end() - 1};
  }
  /// Control index used by top node i (ties the periodic corners).
  [[nodiscard]] std::size_t control_index(std::size_t top_node) const {
    return top_node + 1 == top_nodes_.size() ? 0 : top_node;
  }
  [[nodiscard]] const pc::PointCloud& cloud() const { return cloud_; }
  [[nodiscard]] const rbf::GlobalCollocation& collocation() const {
    return collocation_;
  }
  /// Mutable access for serve-layer cache plumbing (install_lu of a
  /// memoized factorisation before the first solve).
  [[nodiscard]] rbf::GlobalCollocation& collocation() { return collocation_; }

  /// Solve with control values c (one per top node; the other walls carry
  /// the fixed data of eq. (7)). Returns the N+M RBF coefficients.
  [[nodiscard]] la::Vector solve(const la::Vector& control) const;

  /// Batched solve: column j of `controls` is one control vector; column j
  /// of the result its N+M coefficients. One pass over the cached LU for
  /// the whole batch (LuFactorization::solve_many), so k candidate controls
  /// -- FD probe sweeps, omega candidates, concurrent serve jobs sharing a
  /// factorisation -- cost far less than k separate solves.
  [[nodiscard]] la::Matrix solve_many(const la::Matrix& controls) const;

  /// du/dy at the top-wall nodes for each coefficient column (the batched
  /// twin of flux_top).
  [[nodiscard]] la::Matrix flux_top_many(const la::Matrix& coeffs) const;

  /// Differentiable twin: control lives on a tape; the solve is recorded as
  /// one custom op against the cached LU (the DP path).
  [[nodiscard]] ad::VarVec solve(ad::Tape& tape,
                                 const ad::VarVec& control) const;

  /// du/dy sampled at the top-wall nodes for given coefficients (the flux
  /// entering the cost objective of eq. (8)).
  [[nodiscard]] la::Vector flux_top(const la::Vector& coeffs) const;
  [[nodiscard]] ad::VarVec flux_top(const ad::VarVec& coeffs) const;

  /// Nodal state u at all cloud nodes.
  [[nodiscard]] la::Vector state_at_nodes(const la::Vector& coeffs) const;

  /// Evaluation matrix rows for du/dy at the top nodes (used by DAL too).
  [[nodiscard]] const la::Matrix& flux_matrix() const { return flux_matrix_; }

  /// Trapezoidal quadrature weights along the top wall (integral in J).
  [[nodiscard]] const la::Vector& quadrature_weights() const {
    return quad_weights_;
  }

  /// Fixed boundary datum on the non-controlled walls: sin(2 pi x) at the
  /// bottom, 0 on the sides.
  ///
  /// NOTE: the paper's eq. (7c) prints sin(pi x) / cos(pi x), but its own
  /// analytic minimiser (and the source problem in Mowlavi & Nabi [28])
  /// corresponds to sin(2 pi x) bottom data with target flux cos(2 pi x);
  /// we follow the analytic solution so that Fig. 3's exact references hold.
  [[nodiscard]] static double fixed_boundary_value(const pc::Node& node);

  /// Target flux q(x) = cos(2 pi x) in the cost of eq. (8).
  [[nodiscard]] static double target_flux(double x);

  /// Analytic minimiser c*(x) = sech(2pi) sin(2pi x)
  ///                          + tanh(2pi) cos(2pi x) / (2pi).
  [[nodiscard]] static double analytic_control(double x);

  /// State solution u*(x, y) corresponding to the analytic minimiser.
  [[nodiscard]] static double analytic_state(double x, double y);

 private:
  /// Full RHS with control scattered into the top-wall rows.
  [[nodiscard]] la::Vector assemble_rhs(const la::Vector& control) const;

  pc::PointCloud cloud_;
  rbf::GlobalCollocation collocation_;
  std::vector<std::size_t> top_nodes_;
  std::vector<double> top_x_;
  la::Matrix flux_matrix_;   // d/dy rows at top nodes vs all coefficients
  la::Vector quad_weights_;  // trapezoid weights on the top wall
  la::Vector base_rhs_;      // RHS with zero control (fixed walls only)
};

/// RBF-FD twin of LaplaceSolver: the same periodic boundary-control problem
/// discretised with local stencils instead of global collocation, so the
/// system matrix is sparse (one stencil-sized row per node) and unknowns are
/// the nodal values themselves, not RBF coefficients. Solves route through
/// la::SparseFirstSolver's band LU, which is what makes large-N Laplace
/// sweeps affordable (the global collocation matrix is dense and O(N^3) to
/// factor by construction).
///
/// Row layout (mirroring LaplaceSolver's laplace_row):
///   interior        RBF-FD Laplacian stencil row
///   bottom / top    identity (Dirichlet: fixed data / control)
///   left (x = 0)    u_i - u_partner = 0          (x-periodicity, value)
///   right (x = 1)   Dx row(partner) - Dx row(i)  (x-periodicity, slope)
/// where `partner` is the lateral node at the same y on the opposite wall.
class LaplaceFdSolver {
 public:
  LaplaceFdSolver(std::size_t grid_n, const rbf::Kernel& kernel,
                  const rbf::RbffdConfig& config = {});

  /// Build over an explicit (possibly adaptively refined) cloud. The cloud
  /// must carry the unit-square boundary layout of pc::unit_square_grid --
  /// tagged bottom/top/left/right Dirichlet walls, lateral nodes pairing up
  /// by height -- but its interior nodes are free-form, which is exactly
  /// what refine::AdaptiveLoop produces (it only inserts/removes interior
  /// nodes, so the boundary contract is preserved by construction).
  /// `previous` + `old_index` (both set or both null) route stencil assembly
  /// through RbffdOperators' incremental path: weight rows are recomputed
  /// only where the neighbourhood changed.
  LaplaceFdSolver(pc::PointCloud cloud, const rbf::Kernel& kernel,
                  const rbf::RbffdConfig& config = {},
                  const rbf::RbffdOperators* previous = nullptr,
                  const std::vector<std::ptrdiff_t>* old_index = nullptr);

  /// Nodes on the controlled top wall, ordered by increasing x.
  [[nodiscard]] const std::vector<std::size_t>& top_nodes() const {
    return top_nodes_;
  }
  [[nodiscard]] const std::vector<double>& top_x() const { return top_x_; }

  /// Control layout identical to LaplaceSolver: one DOF per top node except
  /// the periodic x = 1 corner, which reuses entry 0.
  [[nodiscard]] std::size_t num_control() const {
    return top_nodes_.size() - 1;
  }
  [[nodiscard]] std::size_t control_index(std::size_t top_node) const {
    return top_node + 1 == top_nodes_.size() ? 0 : top_node;
  }

  [[nodiscard]] const pc::PointCloud& cloud() const { return cloud_; }

  /// The stencil operators (exposed for the refinement planner / estimator).
  [[nodiscard]] const rbf::RbffdOperators& operators() const {
    return operators_;
  }

  /// The factored system operator (exposed for the adjoint solves and
  /// benchmarks).
  [[nodiscard]] const la::SparseFirstSolver& op() const { return op_; }

  /// Solve for the nodal state u (size = cloud().size()). Unlike
  /// LaplaceSolver::solve, the result is the field itself, not coefficients.
  [[nodiscard]] la::Vector solve(const la::Vector& control,
                                 la::SolveReport* report = nullptr) const;

  /// Batched twin: column j of `controls` -> column j of the nodal states.
  [[nodiscard]] la::Matrix solve_many(const la::Matrix& controls,
                                      la::SolveReport* report = nullptr) const;

  /// du/dy at the top-wall nodes of a nodal state (Dy stencil rows).
  [[nodiscard]] la::Vector flux_top(const la::Vector& u) const;
  [[nodiscard]] la::Matrix flux_top_many(const la::Matrix& u) const;

  /// Trapezoidal quadrature weights along the top wall.
  [[nodiscard]] const la::Vector& quadrature_weights() const {
    return quad_weights_;
  }

  /// Full RHS for a control vector (fixed-wall data + control scattered into
  /// the top Dirichlet rows). Exposed so callers can replay the assembled
  /// system through op() while this class keeps owning the boundary layout.
  [[nodiscard]] la::Vector rhs_for(const la::Vector& control) const {
    return assemble_rhs(control);
  }

 private:
  [[nodiscard]] la::Vector assemble_rhs(const la::Vector& control) const;

  pc::PointCloud cloud_;
  rbf::RbffdOperators operators_;
  la::CsrMatrix dy_;         // Dy stencils (flux extraction)
  la::SparseFirstSolver op_;
  std::vector<std::size_t> top_nodes_;
  std::vector<double> top_x_;
  la::Vector quad_weights_;
  la::Vector base_rhs_;
};

}  // namespace updec::pde
