#pragma once
/// \file blas.hpp
/// \brief BLAS-like dense kernels. Level-1/2/3 operations used by the direct
/// solvers and by the autodiff vector layer. Level-2/3 kernels are
/// OpenMP-parallel when built with UPDEC_HAVE_OPENMP.

#include "la/dense.hpp"

namespace updec::la {

// ---- Level 1 ----

/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);

/// x *= alpha
void scal(double alpha, Vector& x);

/// <x, y>
[[nodiscard]] double dot(const Vector& x, const Vector& y);

/// Euclidean norm ||x||_2.
[[nodiscard]] double nrm2(const Vector& x);

/// Max-norm ||x||_inf.
[[nodiscard]] double nrm_inf(const Vector& x);

/// 1-norm ||x||_1.
[[nodiscard]] double nrm1(const Vector& x);

// ---- Level 2 ----

/// y = alpha * A x + beta * y
void gemv(double alpha, const Matrix& A, const Vector& x, double beta,
          Vector& y);

/// y = alpha * A^T x + beta * y
void gemv_t(double alpha, const Matrix& A, const Vector& x, double beta,
            Vector& y);

/// Allocating convenience: A x.
[[nodiscard]] Vector matvec(const Matrix& A, const Vector& x);

/// Allocating convenience: A^T x.
[[nodiscard]] Vector matvec_t(const Matrix& A, const Vector& x);

/// Rank-1 update A += alpha * x y^T.
void ger(double alpha, const Vector& x, const Vector& y, Matrix& A);

// ---- Level 3 ----

/// C = alpha * A B + beta * C (row-major, ikj loop order, OpenMP over rows).
void gemm(double alpha, const Matrix& A, const Matrix& B, double beta,
          Matrix& C);

/// Allocating convenience: A B.
[[nodiscard]] Matrix matmul(const Matrix& A, const Matrix& B);

// ---- Norms of matrices / residuals ----

/// Frobenius norm of A.
[[nodiscard]] double nrm_fro(const Matrix& A);

/// ||A x - b||_2, a common convergence check.
[[nodiscard]] double residual_norm(const Matrix& A, const Vector& x,
                                   const Vector& b);

}  // namespace updec::la
