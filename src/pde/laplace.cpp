#include "pde/laplace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "la/blas.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace updec::pde {

namespace tags = pc::tags;

namespace {

/// Row layout of the periodic Laplace problem: Laplacian rows inside,
/// Dirichlet rows on the bottom (fixed data) and top (control), and
/// periodic matching on the lateral walls -- u(0,y) = u(1,y) on the left
/// nodes, du/dx(0,y) = du/dx(1,y) on the right nodes. (The paper's analytic
/// minimiser corresponds to this x-periodic configuration; see laplace.hpp.)
std::vector<rbf::RowTerm> laplace_row(const pc::Node& node) {
  using rbf::LinearOp;
  using rbf::RowTerm;
  switch (node.tag) {
    case pc::tags::kInterior:
      return {{node.pos, LinearOp::laplacian(), 1.0}};
    case pc::tags::kBottom:
    case pc::tags::kTop:
      return {{node.pos, LinearOp::identity(), 1.0}};
    case pc::tags::kLeft:
      return {{{0.0, node.pos.y}, LinearOp::identity(), 1.0},
              {{1.0, node.pos.y}, LinearOp::identity(), -1.0}};
    case pc::tags::kRight:
      return {{{0.0, node.pos.y}, LinearOp::d_dx(), 1.0},
              {{1.0, node.pos.y}, LinearOp::d_dx(), -1.0}};
    default:
      UPDEC_REQUIRE(false, "unexpected tag in Laplace cloud");
      return {};
  }
}

}  // namespace

LaplaceSolver::LaplaceSolver(std::size_t grid_n, const rbf::Kernel& kernel,
                             int poly_degree)
    : cloud_(pc::unit_square_grid(grid_n, grid_n)),
      collocation_(cloud_, kernel, poly_degree,
                   [](std::size_t, const pc::Node& node) {
                     return laplace_row(node);
                   }) {
  // Controlled wall nodes sorted by x so control vectors read left to right.
  top_nodes_ = cloud_.indices_with_tag(tags::kTop);
  std::sort(top_nodes_.begin(), top_nodes_.end(),
            [&](std::size_t a, std::size_t b) {
              return cloud_.node(a).pos.x < cloud_.node(b).pos.x;
            });
  top_x_.reserve(top_nodes_.size());
  for (const std::size_t i : top_nodes_) top_x_.push_back(cloud_.node(i).pos.x);

  // du/dy rows at the top nodes.
  std::vector<pc::Vec2> pts;
  pts.reserve(top_nodes_.size());
  for (const std::size_t i : top_nodes_) pts.push_back(cloud_.node(i).pos);
  flux_matrix_ = collocation_.evaluation_matrix(pts, rbf::LinearOp::d_dy());

  // Trapezoidal weights over x in [0, 1].
  const std::size_t m = top_nodes_.size();
  quad_weights_ = la::Vector(m, 0.0);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const double h = top_x_[i + 1] - top_x_[i];
    quad_weights_[i] += 0.5 * h;
    quad_weights_[i + 1] += 0.5 * h;
  }

  // RHS contribution of the fixed walls (zero control).
  base_rhs_ = collocation_.assemble_rhs(
      [](const pc::Node&) { return 0.0; },
      [](const pc::Node& node) { return fixed_boundary_value(node); });
}

double LaplaceSolver::fixed_boundary_value(const pc::Node& node) {
  if (node.tag == tags::kBottom)
    return std::sin(2.0 * std::numbers::pi * node.pos.x);
  return 0.0;  // sides fixed at zero, top supplied by the control
}

double LaplaceSolver::target_flux(double x) {
  return std::cos(2.0 * std::numbers::pi * x);
}

double LaplaceSolver::analytic_control(double x) {
  const double two_pi = 2.0 * std::numbers::pi;
  return (1.0 / std::cosh(two_pi)) * std::sin(two_pi * x) +
         std::tanh(two_pi) * std::cos(two_pi * x) / two_pi;
}

double LaplaceSolver::analytic_state(double x, double y) {
  const double two_pi = 2.0 * std::numbers::pi;
  const double sech = 1.0 / std::cosh(two_pi);
  return 0.5 * sech * std::sin(two_pi * x) *
             (std::exp(two_pi * (y - 1.0)) + std::exp(two_pi * (1.0 - y))) +
         (1.0 / (4.0 * std::numbers::pi)) * sech * std::cos(two_pi * x) *
             (std::exp(two_pi * y) - std::exp(-two_pi * y));
}

la::Vector LaplaceSolver::assemble_rhs(const la::Vector& control) const {
  UPDEC_REQUIRE(control.size() == num_control(),
                "one control value per control DOF required");
  la::Vector rhs = base_rhs_;
  for (std::size_t i = 0; i < top_nodes_.size(); ++i)
    rhs[top_nodes_[i]] = control[control_index(i)];
  return rhs;
}

la::Vector LaplaceSolver::solve(const la::Vector& control) const {
  UPDEC_TRACE_SCOPE("pde/laplace_solve");
  UPDEC_METRIC_ADD("pde/laplace.solves", 1);
  // Route through the guarded collocation solve: non-finite coefficients
  // trigger a Tikhonov-shifted recovery instead of poisoning the cost.
  return collocation_.solve(assemble_rhs(control));
}

la::Matrix LaplaceSolver::solve_many(const la::Matrix& controls) const {
  UPDEC_TRACE_SCOPE("pde/laplace_solve_many");
  UPDEC_REQUIRE(controls.rows() == num_control(),
                "one control value per control DOF required (rows)");
  const std::size_t k = controls.cols();
  UPDEC_METRIC_ADD("pde/laplace.solves", k);
  la::Matrix rhs(collocation_.system_size(), k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < rhs.rows(); ++i) rhs(i, j) = base_rhs_[i];
  for (std::size_t i = 0; i < top_nodes_.size(); ++i) {
    const std::size_t row = top_nodes_[i];
    const std::size_t c = control_index(i);
    for (std::size_t j = 0; j < k; ++j) rhs(row, j) = controls(c, j);
  }
  la::Matrix x = collocation_.lu().solve_many(rhs);
  // Parity with the guarded scalar path: a non-finite batch falls back to
  // the per-column collocation solve, which carries the Tikhonov recovery.
  bool finite = true;
  const double* data = x.data();
  for (std::size_t i = 0, e = x.rows() * x.cols(); i < e && finite; ++i)
    finite = std::isfinite(data[i]);
  if (!finite) {
    la::Vector col(rhs.rows());
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < rhs.rows(); ++i) col[i] = rhs(i, j);
      const la::Vector sol = collocation_.solve(col);
      for (std::size_t i = 0; i < rhs.rows(); ++i) x(i, j) = sol[i];
    }
  }
  return x;
}

la::Matrix LaplaceSolver::flux_top_many(const la::Matrix& coeffs) const {
  return la::matmul(flux_matrix_, coeffs);
}

ad::VarVec LaplaceSolver::solve(ad::Tape& tape,
                                const ad::VarVec& control) const {
  UPDEC_TRACE_SCOPE("pde/laplace_solve_ad");
  UPDEC_METRIC_ADD("pde/laplace.ad_solves", 1);
  UPDEC_REQUIRE(control.size() == num_control(),
                "one control value per control DOF required");
  // RHS on tape: fixed-wall entries as constants, control vars scattered
  // into the top-wall rows (the periodic corner reuses control[0]).
  ad::VarVec rhs = ad::make_constants(tape, base_rhs_);
  for (std::size_t i = 0; i < top_nodes_.size(); ++i)
    rhs[top_nodes_[i]] = control[control_index(i)];
  return ad::solve(collocation_.lu(), rhs);
}

la::Vector LaplaceSolver::flux_top(const la::Vector& coeffs) const {
  return la::matvec(flux_matrix_, coeffs);
}

ad::VarVec LaplaceSolver::flux_top(const ad::VarVec& coeffs) const {
  return ad::gemv(flux_matrix_, coeffs);
}

la::Vector LaplaceSolver::state_at_nodes(const la::Vector& coeffs) const {
  return collocation_.evaluate_at_nodes(coeffs, rbf::LinearOp::identity());
}

namespace {

/// Dispatch between the from-scratch and incremental stencil builds (the
/// member-initialiser list cannot validate the pair first).
rbf::RbffdOperators make_fd_operators(
    const pc::PointCloud& cloud, const rbf::Kernel& kernel,
    const rbf::RbffdConfig& config, const rbf::RbffdOperators* previous,
    const std::vector<std::ptrdiff_t>* old_index) {
  if (previous != nullptr) {
    UPDEC_REQUIRE(old_index != nullptr,
                  "incremental stencil rebuild needs the old_index map");
    return rbf::RbffdOperators(cloud, *previous, *old_index);
  }
  return rbf::RbffdOperators(cloud, kernel, config);
}

}  // namespace

LaplaceFdSolver::LaplaceFdSolver(std::size_t grid_n, const rbf::Kernel& kernel,
                                 const rbf::RbffdConfig& config)
    : LaplaceFdSolver(pc::unit_square_grid(grid_n, grid_n), kernel, config) {}

LaplaceFdSolver::LaplaceFdSolver(pc::PointCloud cloud,
                                 const rbf::Kernel& kernel,
                                 const rbf::RbffdConfig& config,
                                 const rbf::RbffdOperators* previous,
                                 const std::vector<std::ptrdiff_t>* old_index)
    : cloud_(std::move(cloud)),
      operators_(
          make_fd_operators(cloud_, kernel, config, previous, old_index)) {
  UPDEC_TRACE_SCOPE("pde/laplace_fd_setup");
  const std::size_t n = cloud_.size();
  const la::CsrMatrix& dx = operators_.dx();
  dy_ = operators_.dy();
  const la::CsrMatrix& lap = operators_.laplacian();

  // Pair each lateral node with the node at the same y on the opposite wall
  // (the grid generator places them at identical heights).
  auto left = cloud_.indices_with_tag(tags::kLeft);
  auto right = cloud_.indices_with_tag(tags::kRight);
  UPDEC_REQUIRE(left.size() == right.size(),
                "lateral walls must have matching node counts");
  const auto by_y = [&](std::size_t a, std::size_t b) {
    return cloud_.node(a).pos.y < cloud_.node(b).pos.y;
  };
  std::sort(left.begin(), left.end(), by_y);
  std::sort(right.begin(), right.end(), by_y);

  la::SparseBuilder system(n, n);
  const auto scatter = [&](std::size_t row, const la::CsrMatrix& m,
                           std::size_t src, double scale) {
    for (std::size_t k = m.row_ptr()[src]; k < m.row_ptr()[src + 1]; ++k)
      system.add(row, m.col_idx()[k], scale * m.values()[k]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    switch (cloud_.node(i).tag) {
      case tags::kInterior:
        scatter(i, lap, i, 1.0);
        break;
      case tags::kBottom:
      case tags::kTop:
        system.add(i, i, 1.0);
        break;
      default:
        break;  // lateral rows assembled pairwise below
    }
  }
  for (std::size_t p = 0; p < left.size(); ++p) {
    const std::size_t l = left[p];
    const std::size_t r = right[p];
    UPDEC_REQUIRE(std::abs(cloud_.node(l).pos.y - cloud_.node(r).pos.y) < 1e-12,
                  "lateral wall nodes must pair up by height");
    // u(0,y) = u(1,y) carried by the left node ...
    system.add(l, l, 1.0);
    system.add(l, r, -1.0);
    // ... du/dx(0,y) = du/dx(1,y) carried by the right node.
    scatter(r, dx, l, 1.0);
    scatter(r, dx, r, -1.0);
  }
  op_ = la::SparseFirstSolver(la::CsrMatrix(system));

  top_nodes_ = cloud_.indices_with_tag(tags::kTop);
  std::sort(top_nodes_.begin(), top_nodes_.end(),
            [&](std::size_t a, std::size_t b) {
              return cloud_.node(a).pos.x < cloud_.node(b).pos.x;
            });
  top_x_.reserve(top_nodes_.size());
  for (const std::size_t i : top_nodes_) top_x_.push_back(cloud_.node(i).pos.x);

  const std::size_t m = top_nodes_.size();
  quad_weights_ = la::Vector(m, 0.0);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    const double h = top_x_[i + 1] - top_x_[i];
    quad_weights_[i] += 0.5 * h;
    quad_weights_[i + 1] += 0.5 * h;
  }

  // Fixed-wall RHS: sin(2 pi x) on the bottom rows, zero elsewhere (the
  // interior Laplacian rows and the periodic matching rows are homogeneous).
  base_rhs_ = la::Vector(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (cloud_.node(i).tag == tags::kBottom)
      base_rhs_[i] = LaplaceSolver::fixed_boundary_value(cloud_.node(i));
}

la::Vector LaplaceFdSolver::assemble_rhs(const la::Vector& control) const {
  UPDEC_REQUIRE(control.size() == num_control(),
                "one control value per control DOF required");
  la::Vector rhs = base_rhs_;
  for (std::size_t i = 0; i < top_nodes_.size(); ++i)
    rhs[top_nodes_[i]] = control[control_index(i)];
  return rhs;
}

la::Vector LaplaceFdSolver::solve(const la::Vector& control,
                                  la::SolveReport* report) const {
  UPDEC_TRACE_SCOPE("pde/laplace_fd_solve");
  UPDEC_METRIC_ADD("pde/laplace_fd.solves", 1);
  return op_.solve(assemble_rhs(control), report);
}

la::Matrix LaplaceFdSolver::solve_many(const la::Matrix& controls,
                                       la::SolveReport* report) const {
  UPDEC_TRACE_SCOPE("pde/laplace_fd_solve_many");
  UPDEC_REQUIRE(controls.rows() == num_control(),
                "one control value per control DOF required (rows)");
  const std::size_t k = controls.cols();
  UPDEC_METRIC_ADD("pde/laplace_fd.solves", k);
  la::Matrix rhs(cloud_.size(), k);
  for (std::size_t j = 0; j < k; ++j)
    for (std::size_t i = 0; i < rhs.rows(); ++i) rhs(i, j) = base_rhs_[i];
  for (std::size_t i = 0; i < top_nodes_.size(); ++i) {
    const std::size_t row = top_nodes_[i];
    const std::size_t c = control_index(i);
    for (std::size_t j = 0; j < k; ++j) rhs(row, j) = controls(c, j);
  }
  return op_.solve_many(rhs, report);
}

la::Vector LaplaceFdSolver::flux_top(const la::Vector& u) const {
  UPDEC_REQUIRE(u.size() == cloud_.size(), "nodal state size mismatch");
  la::Vector flux(top_nodes_.size(), 0.0);
  for (std::size_t i = 0; i < top_nodes_.size(); ++i) {
    const std::size_t row = top_nodes_[i];
    double s = 0.0;
    for (std::size_t k = dy_.row_ptr()[row]; k < dy_.row_ptr()[row + 1]; ++k)
      s += dy_.values()[k] * u[dy_.col_idx()[k]];
    flux[i] = s;
  }
  return flux;
}

la::Matrix LaplaceFdSolver::flux_top_many(const la::Matrix& u) const {
  UPDEC_REQUIRE(u.rows() == cloud_.size(), "nodal state size mismatch");
  la::Matrix flux(top_nodes_.size(), u.cols());
  for (std::size_t i = 0; i < top_nodes_.size(); ++i) {
    const std::size_t row = top_nodes_[i];
    for (std::size_t j = 0; j < u.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = dy_.row_ptr()[row]; k < dy_.row_ptr()[row + 1]; ++k)
        s += dy_.values()[k] * u(dy_.col_idx()[k], j);
      flux(i, j) = s;
    }
  }
  return flux;
}

}  // namespace updec::pde
