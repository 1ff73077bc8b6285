#include "rom/laplace_rom.hpp"

#include <cmath>
#include <utility>

#include "la/blas.hpp"
#include "util/error.hpp"

namespace updec::rom {

using pde::LaplaceSolver;

LaplaceFdControlProblem::LaplaceFdControlProblem(
    std::size_t grid_n, const rbf::Kernel& kernel,
    const rbf::RbffdConfig& config)
    : solver_(grid_n, kernel, config) {}

LaplaceFdControlProblem::LaplaceFdControlProblem(
    pc::PointCloud cloud, const rbf::Kernel& kernel,
    const rbf::RbffdConfig& config, const rbf::RbffdOperators* previous,
    const std::vector<std::ptrdiff_t>* old_index)
    : solver_(std::move(cloud), kernel, config, previous, old_index) {}

double LaplaceFdControlProblem::cost(const la::Vector& control) const {
  return cost_from_flux(solver_.flux_top(solver_.solve(control)));
}

double LaplaceFdControlProblem::cost_from_flux(const la::Vector& flux) const {
  const auto& w = solver_.quadrature_weights();
  const auto& xs = solver_.top_x();
  double j = 0.0;
  for (std::size_t i = 0; i < flux.size(); ++i) {
    const double d = flux[i] - LaplaceSolver::target_flux(xs[i]);
    j += w[i] * d * d;
  }
  return j;
}

namespace {

/// Adjoint RHS: the continuous adjoint problem has the same operator as the direct one, with top-wall Dirichlet data
/// 2 (du/dy - target) and homogeneous data everywhere else.
la::Vector adjoint_rhs(const pde::LaplaceFdSolver& solver,
                       const la::Vector& flux) {
  la::Vector rhs(solver.cloud().size(), 0.0);
  const auto& top = solver.top_nodes();
  const auto& xs = solver.top_x();
  for (std::size_t i = 0; i < top.size(); ++i)
    rhs[top[i]] = 2.0 * (flux[i] - LaplaceSolver::target_flux(xs[i]));
  return rhs;
}

/// Fold a top-wall adjoint flux into the control gradient (the periodic
/// corners share one DOF, so their contributions sum).
la::Vector gradient_from_lambda_flux(const pde::LaplaceFdSolver& solver,
                                     std::size_t control_size,
                                     const la::Vector& lambda_flux) {
  la::Vector gradient(control_size, 0.0);
  const auto& w = solver.quadrature_weights();
  for (std::size_t i = 0; i < solver.top_nodes().size(); ++i)
    gradient[solver.control_index(i)] += w[i] * lambda_flux[i];
  return gradient;
}

/// DAL on the sparse path: direct solve, continuous adjoint solve against
/// the same band factorisation, gradient = quadrature-weighted adjoint flux.
class LaplaceFdDalStrategy final : public control::GradientStrategy {
 public:
  explicit LaplaceFdDalStrategy(
      std::shared_ptr<const LaplaceFdControlProblem> p)
      : problem_(std::move(p)) {}

  [[nodiscard]] std::string name() const override { return "DAL-sparse"; }

  bool set_adjoint_observer(control::AdjointObserver* observer) override {
    observer_ = observer;
    return true;
  }

  double value_and_gradient(const la::Vector& control,
                            la::Vector& gradient) override {
    const auto& solver = problem_->solver();
    la::SolveReport direct_report;
    const la::Vector u = solver.solve(control, &direct_report);
    direct_report.require_converged("laplace-fd DAL direct solve");
    const la::Vector flux = solver.flux_top(u);
    const double j = problem_->cost_from_flux(flux);

    la::SolveReport adjoint_report;
    const la::Vector lambda =
        solver.op().solve(adjoint_rhs(solver, flux), &adjoint_report);
    adjoint_report.require_converged("laplace-fd DAL adjoint solve");
    gradient = gradient_from_lambda_flux(solver, problem_->control_size(),
                                         solver.flux_top(lambda));
    // Both nodal fields are in hand anyway -- hand them to the estimator
    // (src/refine) before they go out of scope.
    if (observer_) observer_->on_adjoint_pair(u, lambda);
    return j;
  }

 private:
  std::shared_ptr<const LaplaceFdControlProblem> problem_;
  control::AdjointObserver* observer_ = nullptr;
};

}  // namespace

std::unique_ptr<control::GradientStrategy> make_laplace_fd_dal(
    std::shared_ptr<const LaplaceFdControlProblem> problem) {
  return std::make_unique<LaplaceFdDalStrategy>(std::move(problem));
}

}  // namespace updec::rom
