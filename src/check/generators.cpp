#include "check/generators.hpp"

#include <algorithm>
#include <cmath>

#include "pointcloud/generators.hpp"
#include "util/error.hpp"

namespace updec::check {

la::Vector random_vector(Rng& rng, std::size_t n, double scale) {
  la::Vector v(n);
  for (auto& x : v) x = scale * rng.normal();
  return v;
}

la::Matrix random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  la::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  return m;
}

la::Matrix random_spd(Rng& rng, std::size_t n) {
  const la::Matrix b = random_matrix(rng, n, n);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < n; ++k) s += b(k, i) * b(k, j);
      a(i, j) = s;
    }
    a(i, i) += static_cast<double>(n);
  }
  return a;
}

la::Matrix random_diag_dominant(Rng& rng, std::size_t n) {
  la::Matrix a = random_matrix(rng, n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) off += std::abs(a(i, j));
    // Keep the diagonal sign random but the magnitude dominant.
    const double sign = a(i, i) < 0.0 ? -1.0 : 1.0;
    a(i, i) = sign * (off + 1.0 + rng.uniform());
  }
  return a;
}

la::Matrix random_ill_conditioned(Rng& rng, std::size_t n, double log10_cond) {
  UPDEC_REQUIRE(n >= 2, "ill-conditioned generator needs n >= 2");
  // SPD core with O(1) eigenvalues...
  la::Matrix core = random_spd(rng, n);
  double max_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) max_diag = std::max(max_diag, core(i, i));
  // ...then a graded two-sided diagonal scaling: kappa(S A S) ~ kappa(S)^2,
  // so grade each side by half the requested decades.
  la::Vector s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n - 1);
    s[i] = std::pow(10.0, -0.5 * log10_cond * t);
  }
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = s[i] * (core(i, j) / max_diag) * s[j];
  return a;
}

la::CsrMatrix random_sparse_diag_dominant(Rng& rng, std::size_t n,
                                          std::size_t nnz_per_row) {
  nnz_per_row = std::max<std::size_t>(1, std::min(nnz_per_row, n));
  la::SparseBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    // stencil-like sparsity: the diagonal plus nnz_per_row - 1 random
    // off-diagonal couplings (duplicates are summed by the builder).
    for (std::size_t k = 0; k + 1 < nnz_per_row; ++k) {
      const auto j = static_cast<std::size_t>(rng.uniform_index(n));
      if (j == i) continue;
      const double v = rng.normal();
      builder.add(i, j, v);
      off += std::abs(v);
    }
    builder.add(i, i, off + 1.0 + rng.uniform());
  }
  return la::CsrMatrix(builder);
}

pc::PointCloud random_cloud(Rng& rng, std::size_t n_interior,
                            std::size_t n_per_side) {
  return pc::unit_square_scattered(n_interior, n_per_side, rng.next_u64());
}

la::CsrMatrix random_rbffd_system(Rng& rng, std::size_t n_interior) {
  const auto side = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(n_interior)) + 2.0);
  const pc::PointCloud cloud = random_cloud(rng, n_interior, side);
  const rbf::PolyharmonicSpline kernel(3);
  const rbf::RbffdOperators ops(cloud, kernel,
                                random_stencil_config(rng, cloud.size()));
  const la::CsrMatrix& lap = ops.laplacian();
  la::SparseBuilder system(cloud.size(), cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    if (i >= cloud.num_internal()) {
      system.add(i, i, 1.0);
      continue;
    }
    for (std::size_t k = lap.row_ptr()[i]; k < lap.row_ptr()[i + 1]; ++k)
      system.add(i, lap.col_idx()[k], lap.values()[k]);
  }
  return la::CsrMatrix(system);
}

std::unique_ptr<rbf::Kernel> random_kernel(Rng& rng) {
  switch (rng.uniform_index(5)) {
    case 0:
      return std::make_unique<rbf::PolyharmonicSpline>(3);
    case 1:
      return std::make_unique<rbf::PolyharmonicSpline>(5);
    case 2:
      return std::make_unique<rbf::GaussianKernel>(rng.uniform(0.5, 3.0));
    case 3:
      return std::make_unique<rbf::MultiquadricKernel>(rng.uniform(0.5, 3.0));
    default:
      return std::make_unique<rbf::InverseMultiquadricKernel>(
          rng.uniform(0.5, 3.0));
  }
}

rbf::RbffdConfig random_stencil_config(Rng& rng, std::size_t cloud_size) {
  rbf::RbffdConfig config;
  config.poly_degree = static_cast<int>(rng.uniform_index(2)) + 1;  // 1 or 2
  // Stencil must cover the polynomial basis ((d+1)(d+2)/2 monomials) with
  // headroom, and cannot exceed the cloud.
  const std::size_t min_k = config.poly_degree == 1 ? 9 : 13;
  const std::size_t max_k =
      std::min<std::size_t>(21, cloud_size > 0 ? cloud_size : min_k);
  config.stencil_size =
      min_k >= max_k ? max_k : min_k + rng.uniform_index(max_k - min_k + 1);
  return config;
}

LaplaceCase random_laplace_case(Rng& rng, std::size_t max_grid) {
  LaplaceCase c;
  const std::size_t min_grid = 6;
  max_grid = std::max(max_grid, min_grid);
  c.grid_n = min_grid + rng.uniform_index(max_grid - min_grid + 1);
  // PHS keeps the global collocation matrix well-behaved at every grid the
  // shrinker can visit; shape-parameter kernels are exercised separately.
  c.kernel = std::make_shared<rbf::PolyharmonicSpline>(3);
  c.problem =
      std::make_shared<control::LaplaceControlProblem>(c.grid_n, *c.kernel);
  // A smooth random iterate plus noise: gradients are probed away from the
  // symmetric zero control where cancellations could mask sign bugs.
  const std::vector<double> xs = c.problem->solver().control_x();
  const double a = rng.uniform(-0.5, 0.5);
  const double b = rng.uniform(-0.5, 0.5);
  c.control = la::Vector(c.problem->control_size());
  for (std::size_t i = 0; i < c.control.size(); ++i) {
    c.control[i] = a * std::sin(2.0 * 3.14159265358979323846 * xs[i]) +
                   b * std::cos(2.0 * 3.14159265358979323846 * xs[i]) +
                   0.05 * rng.normal();
  }
  return c;
}

}  // namespace updec::check
