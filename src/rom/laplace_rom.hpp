#pragma once
/// \file laplace_rom.hpp
/// \brief The Laplace boundary-control problem on the sparse RBF-FD path,
///        with its DAL gradient strategy.
///
/// The continuous adjoint of the Laplace control problem uses the SAME
/// system operator as the direct problem -- only the Dirichlet data on the
/// top wall changes -- so both solves of a DAL gradient reuse one band
/// factorisation. (The file keeps the name of the reduced-order tier it
/// once belonged to; the benchmark, bench_refine, the refinement oracle
/// and serve's refined bundles include it by this path.)

#include <memory>

#include "control/problem.hpp"
#include "pde/laplace.hpp"

namespace updec::rom {

/// J(c) over the RBF-FD (sparse) Laplace discretisation -- the full-path
/// twin of control::LaplaceControlProblem, sized for operators where the
/// dense collocation path is no longer affordable.
class LaplaceFdControlProblem final : public control::ControlProblem {
 public:
  LaplaceFdControlProblem(std::size_t grid_n, const rbf::Kernel& kernel,
                          const rbf::RbffdConfig& config = {});

  /// Build over an explicit (e.g. adaptively refined) cloud; `previous` /
  /// `old_index` route stencil assembly through RbffdOperators' incremental
  /// path. See pde::LaplaceFdSolver's cloud constructor for the layout
  /// contract.
  LaplaceFdControlProblem(pc::PointCloud cloud, const rbf::Kernel& kernel,
                          const rbf::RbffdConfig& config = {},
                          const rbf::RbffdOperators* previous = nullptr,
                          const std::vector<std::ptrdiff_t>* old_index =
                              nullptr);

  [[nodiscard]] std::string name() const override { return "laplace-fd"; }
  [[nodiscard]] std::size_t control_size() const override {
    return solver_.num_control();
  }
  [[nodiscard]] la::Vector initial_control() const override {
    return la::Vector(control_size(), 0.0);
  }
  [[nodiscard]] double cost(const la::Vector& control) const override;

  /// Cost from a precomputed top-wall flux (shared by the strategies).
  [[nodiscard]] double cost_from_flux(const la::Vector& flux) const;

  [[nodiscard]] const pde::LaplaceFdSolver& solver() const { return solver_; }

 private:
  pde::LaplaceFdSolver solver_;
};

/// DAL on the sparse path: direct solve, continuous adjoint solve against
/// the same operator, gradient = quadrature-weighted adjoint flux.
[[nodiscard]] std::unique_ptr<control::GradientStrategy> make_laplace_fd_dal(
    std::shared_ptr<const LaplaceFdControlProblem> problem);

}  // namespace updec::rom
