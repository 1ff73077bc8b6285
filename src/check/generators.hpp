#pragma once
/// \file generators.hpp
/// \brief Seeded random-input generators for the property-based correctness
/// harness.
///
/// Every generator draws exclusively from an updec::Rng passed by the
/// caller, so a whole random test case is reproducible bit-for-bit from one
/// 64-bit seed (the contract the fuzz driver's replay / shrinking machinery
/// and the UPDEC_FUZZ_SEED environment variable rely on). Generators cover
/// the input families the solver stack actually meets: well-behaved and
/// pathological dense matrices, sparse RBF-FD-like operators, scattered 2-D
/// point clouds, RBF kernels with random shape parameters, and small
/// instances of the paper's Laplace boundary-control problem.

#include <cstdint>
#include <memory>

#include "control/laplace_problem.hpp"
#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "pointcloud/cloud.hpp"
#include "rbf/kernels.hpp"
#include "rbf/rbffd.hpp"
#include "util/rng.hpp"

namespace updec::check {

/// Vector of iid standard normals scaled by `scale`.
[[nodiscard]] la::Vector random_vector(Rng& rng, std::size_t n,
                                       double scale = 1.0);

/// Dense rows-by-cols matrix of iid standard normals.
[[nodiscard]] la::Matrix random_matrix(Rng& rng, std::size_t rows,
                                       std::size_t cols);

/// Symmetric positive-definite matrix B^T B + n I (eigenvalues >= n, so the
/// factorisations under test never stumble on conditioning by accident).
[[nodiscard]] la::Matrix random_spd(Rng& rng, std::size_t n);

/// Strictly diagonally dominant matrix: random off-diagonals with the
/// diagonal inflated past the row sum. Every solver in the stack must
/// handle these without escalation.
[[nodiscard]] la::Matrix random_diag_dominant(Rng& rng, std::size_t n);

/// Ill-conditioned SPD matrix with kappa_2 ~= 10^log10_cond, built by
/// grading an SPD core with the diagonal scaling S = diag(10^(-p i / n)):
/// A = S (B^T B / ||.|| + I) S. This is the flat-kernel / Runge regime the
/// robust-solve escalation chain exists for.
[[nodiscard]] la::Matrix random_ill_conditioned(Rng& rng, std::size_t n,
                                                double log10_cond = 8.0);

/// Sparse strictly diagonally dominant square matrix with about
/// `nnz_per_row` entries per row -- the shape of an RBF-FD operator row.
[[nodiscard]] la::CsrMatrix random_sparse_diag_dominant(
    Rng& rng, std::size_t n, std::size_t nnz_per_row = 7);

/// Square RBF-FD system on a random cloud of about `n_interior` interior
/// nodes: the PHS Laplacian stencil row (random stencil configuration) at
/// each interior node, the identity at each boundary node. Boundary columns
/// carry O(1/h^2) interior couplings against a unit diagonal, so direct
/// solvers must pivot.
[[nodiscard]] la::CsrMatrix random_rbffd_system(Rng& rng,
                                                std::size_t n_interior);

/// Scattered unit-square cloud: Halton interior nodes (jittered by the rng)
/// plus uniformly spaced Dirichlet boundary nodes.
[[nodiscard]] pc::PointCloud random_cloud(Rng& rng, std::size_t n_interior,
                                          std::size_t n_per_side);

/// A randomly chosen kernel from the paper's ablation set with a random
/// (but numerically sane) shape parameter: PHS r^3 / r^5, Gaussian,
/// multiquadric or inverse multiquadric.
[[nodiscard]] std::unique_ptr<rbf::Kernel> random_kernel(Rng& rng);

/// Random RBF-FD stencil configuration compatible with `cloud_size` nodes.
[[nodiscard]] rbf::RbffdConfig random_stencil_config(Rng& rng,
                                                     std::size_t cloud_size);

/// A small instance of the section 3.1 Laplace boundary-control problem at
/// a random grid resolution with a random non-trivial control iterate. The
/// kernel is owned by the case (the problem only borrows it).
struct LaplaceCase {
  std::shared_ptr<rbf::Kernel> kernel;  ///< must outlive `problem`
  std::shared_ptr<control::LaplaceControlProblem> problem;
  la::Vector control;  ///< random iterate to probe gradients at
  std::size_t grid_n = 0;
};

/// \param max_grid upper bound on the grid resolution (min is 6; the fuzz
/// shrinker lowers max_grid to minimise a failing case).
[[nodiscard]] LaplaceCase random_laplace_case(Rng& rng,
                                              std::size_t max_grid = 14);

}  // namespace updec::check
