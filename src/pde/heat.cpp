#include "pde/heat.hpp"

#include "la/blas.hpp"
#include "la/robust_solve.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace updec::pde {

HeatSolver::HeatSolver(const pc::PointCloud& cloud, const rbf::Kernel& kernel,
                       double alpha, double dt, double theta,
                       const rbf::RbffdConfig& config)
    : cloud_(&cloud), alpha_(alpha), dt_(dt), theta_(theta) {
  UPDEC_REQUIRE(alpha > 0.0 && dt > 0.0, "diffusivity and dt must be positive");
  UPDEC_REQUIRE(theta >= 0.0 && theta <= 1.0, "theta must be in [0, 1]");
  const std::size_t n = cloud.size();
  const rbf::RbffdOperators operators(cloud, kernel, config);
  const la::CsrMatrix dx = operators.weights_for(rbf::LinearOp::d_dx());
  const la::CsrMatrix dy = operators.weights_for(rbf::LinearOp::d_dy());

  // Consistent Laplacian rows on interior nodes, assembled sparse straight
  // from the stencil weights.
  std::vector<std::uint8_t> interior(n, 0);
  for (std::size_t i = 0; i < cloud.num_internal(); ++i) interior[i] = 1;
  const la::CsrMatrix lap = rbf::consistent_laplacian(dx, dy, interior);

  la::SparseBuilder implicit_part(n, n);
  la::SparseBuilder explicit_part(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    implicit_part.add(i, i, 1.0);
    if (i < cloud.num_internal()) {
      explicit_part.add(i, i, 1.0);
      for (std::size_t k = lap.row_ptr()[i]; k < lap.row_ptr()[i + 1]; ++k) {
        const std::size_t j = lap.col_idx()[k];
        const double w = lap.values()[k];
        implicit_part.add(i, j, -theta_ * dt_ * alpha_ * w);
        explicit_part.add(i, j, (1.0 - theta_) * dt_ * alpha_ * w);
      }
    }
    // Boundary rows: identity in the implicit matrix, zero in the explicit
    // part -- the RHS carries the boundary datum directly.
  }
  explicit_part_ = la::CsrMatrix(explicit_part);
  implicit_op_ = la::SparseFirstSolver(la::CsrMatrix(implicit_part));
}

la::Vector HeatSolver::step(const la::Vector& u, const HeatBoundary& boundary,
                            double t) const {
  UPDEC_TRACE_SCOPE("pde/heat_step");
  UPDEC_METRIC_ADD("pde/heat.steps", 1);
  UPDEC_REQUIRE(u.size() == cloud_->size(), "field size mismatch");
  la::Vector rhs = explicit_part_.apply(u);
  const double t_next = t + dt_;
  for (std::size_t i = cloud_->num_internal(); i < cloud_->size(); ++i)
    rhs[i] = boundary(cloud_->node(i), t_next);
  return la::checked_solve(implicit_op_, rhs, "HeatSolver::step");
}

la::Vector HeatSolver::advance(la::Vector u0, const HeatBoundary& boundary,
                               double t0, std::size_t steps) const {
  la::Vector u = std::move(u0);
  for (std::size_t s = 0; s < steps; ++s)
    u = step(u, boundary, t0 + static_cast<double>(s) * dt_);
  return u;
}

la::Matrix HeatSolver::step_many(const la::Matrix& u,
                                 const HeatBoundary& boundary,
                                 double t) const {
  UPDEC_TRACE_SCOPE("pde/heat_step");
  UPDEC_METRIC_ADD("pde/heat.steps", u.cols());
  UPDEC_REQUIRE(u.rows() == cloud_->size(), "field size mismatch");
  la::Matrix rhs = explicit_part_.apply_many(u);
  const double t_next = t + dt_;
  for (std::size_t i = cloud_->num_internal(); i < cloud_->size(); ++i) {
    const double g = boundary(cloud_->node(i), t_next);
    for (std::size_t j = 0; j < u.cols(); ++j) rhs(i, j) = g;
  }
  return implicit_op_.solve_many(rhs);
}

la::Matrix HeatSolver::advance_many(la::Matrix u0, const HeatBoundary& boundary,
                                    double t0, std::size_t steps) const {
  la::Matrix u = std::move(u0);
  for (std::size_t s = 0; s < steps; ++s)
    u = step_many(u, boundary, t0 + static_cast<double>(s) * dt_);
  return u;
}

}  // namespace updec::pde
