#pragma once
/// \file heat.hpp
/// Unsteady heat equation on a mesh-free cloud: the "incorporate time"
/// direction of the paper's future work (section 5), built from the same
/// substrate as the stationary solvers. A theta-scheme with factor-once
/// matrices:
///   (I - theta dt a L) u^{n+1} = (I + (1-theta) dt a L) u^n,
/// Dirichlet rows replaced by identity with time-dependent boundary data.
/// L is the consistent product Laplacian Dx.Dx + Dy.Dy (see DESIGN.md 3b on
/// why the compact RBF-FD Laplacian is avoided in time-stepping operators).

#include <functional>

#include "la/lu.hpp"
#include "la/robust_solve.hpp"
#include "pointcloud/cloud.hpp"
#include "rbf/rbffd.hpp"

namespace updec::pde {

/// Time-dependent Dirichlet boundary datum g(node, t).
using HeatBoundary = std::function<double(const pc::Node&, double)>;

class HeatSolver {
 public:
  /// \param alpha  diffusivity.
  /// \param dt     time step (theta >= 1/2 makes the scheme A-stable on the
  ///               resolved spectrum; theta slightly above 1/2 damps the
  ///               spurious scattered-node modes).
  HeatSolver(const pc::PointCloud& cloud, const rbf::Kernel& kernel,
             double alpha, double dt, double theta = 0.55,
             const rbf::RbffdConfig& config = {});

  /// One theta-scheme step from u at time t; returns u at t + dt.
  [[nodiscard]] la::Vector step(const la::Vector& u,
                                const HeatBoundary& boundary,
                                double t) const;

  /// March `steps` steps from u0 at t0; returns the final field.
  [[nodiscard]] la::Vector advance(la::Vector u0, const HeatBoundary& boundary,
                                   double t0, std::size_t steps) const;

  /// Batched theta-scheme step: column j of U is one temperature field (an
  /// ensemble of initial conditions / scenario batch); all columns advance
  /// through one multi-RHS solve against the shared implicit factorisation
  /// instead of one triangular sweep per member.
  [[nodiscard]] la::Matrix step_many(const la::Matrix& u,
                                     const HeatBoundary& boundary,
                                     double t) const;

  /// March a whole ensemble `steps` steps (batched twin of advance()).
  [[nodiscard]] la::Matrix advance_many(la::Matrix u0,
                                        const HeatBoundary& boundary,
                                        double t0, std::size_t steps) const;

  [[nodiscard]] const pc::PointCloud& cloud() const { return *cloud_; }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] double alpha() const { return alpha_; }

  /// Implicit operator I - theta dt a L (identity on boundary rows),
  /// factored once as a band LU.
  [[nodiscard]] const la::SparseFirstSolver& implicit_op() const {
    return implicit_op_;
  }

 private:
  const pc::PointCloud* cloud_;
  double alpha_, dt_, theta_;
  la::CsrMatrix explicit_part_;       // I + (1-theta) dt a L on interior rows
  la::SparseFirstSolver implicit_op_; // I - theta dt a L, identity on boundary
};

}  // namespace updec::pde
