#pragma once
/// \file eigen.hpp
/// \brief Eigenvalue routines: dominant-eigenvalue estimation by power
/// iteration (a diagnostic for iteration maps: scattered-node RBF-FD
/// operators can carry spurious eigenvalues with positive real part,
/// DESIGN.md 3b, and the spectral radius of a time-stepping map certifies
/// whether a march can diverge) and a full symmetric eigendecomposition by
/// cyclic Jacobi rotations (the Gram-matrix path of rom/pod_basis, where
/// snapshot Gram matrices are small, dense, frequently near-degenerate and
/// must be resolved reliably).

#include <functional>

#include "la/dense.hpp"
#include "la/sparse.hpp"

namespace updec::la {

struct PowerIterationResult {
  double eigenvalue = 0.0;  ///< dominant eigenvalue (Rayleigh quotient)
  Vector eigenvector;       ///< normalised iterate
  std::size_t iterations = 0;
  bool converged = false;
};

/// Estimate the dominant (largest-magnitude) eigenvalue of the linear map
/// `apply` acting on vectors of length n. The Rayleigh quotient is reported,
/// so for real dominant eigenvalues the sign is recovered too.
PowerIterationResult power_iteration(
    const std::function<Vector(const Vector&)>& apply, std::size_t n,
    std::size_t max_iterations = 200, double tol = 1e-10,
    std::uint64_t seed = 1);

/// Convenience overloads for explicit matrices.
PowerIterationResult power_iteration(const Matrix& a,
                                     std::size_t max_iterations = 200,
                                     double tol = 1e-10);
PowerIterationResult power_iteration(const CsrMatrix& a,
                                     std::size_t max_iterations = 200,
                                     double tol = 1e-10);

/// Full eigendecomposition of a symmetric matrix.
struct SymmetricEigenResult {
  Vector eigenvalues;   ///< descending (lambda_0 >= lambda_1 >= ...)
  Matrix eigenvectors;  ///< column j is the unit eigenvector of lambda_j
  std::size_t sweeps = 0;  ///< full Jacobi sweeps performed
  bool converged = false;  ///< off-diagonal norm met the tolerance
};

/// Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations:
/// A = V diag(lambda) V^T with orthonormal V. Jacobi is quadratically
/// convergent once the off-diagonal mass is small and -- unlike shifted QR
/// variants -- resolves tightly clustered and numerically repeated
/// eigenvalues without deflation hazards, which is exactly the regime of
/// snapshot Gram matrices (near-duplicate snapshots => near-degenerate
/// spectra, rank-deficient banks => trailing zero eigenvalues). Only the
/// lower triangle of `a` is read; asymmetry beyond roundoff is rejected.
/// Throws updec::Error on non-finite input or if `max_sweeps` cyclic sweeps
/// fail to reduce the off-diagonal Frobenius mass below
/// `tol * ||A||_F` (convergence typically takes < 10 sweeps).
SymmetricEigenResult symmetric_eigen(const Matrix& a,
                                     std::size_t max_sweeps = 64,
                                     double tol = 1e-14);

}  // namespace updec::la
