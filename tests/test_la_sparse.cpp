// Unit and property tests for CSR sparse matrices and the band LU behind
// SparseFirstSolver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "la/band.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "la/robust_solve.hpp"
#include "la/sparse.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using updec::la::BandLu;
using updec::la::CsrMatrix;
using updec::la::Matrix;
using updec::la::SparseBuilder;
using updec::la::Vector;

/// 1-D Poisson matrix (tridiagonal, SPD) of size n.
CsrMatrix poisson_1d(std::size_t n) {
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return CsrMatrix(b);
}

/// Nonsymmetric convection-diffusion-like matrix.
CsrMatrix convection_diffusion_1d(std::size_t n, double peclet) {
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0 + 0.1);
    if (i > 0) b.add(i, i - 1, -1.0 - peclet);
    if (i + 1 < n) b.add(i, i + 1, -1.0 + peclet);
  }
  return CsrMatrix(b);
}

TEST(Csr, BuildSumsDuplicates) {
  SparseBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.5);
  b.add(1, 0, -1.0);
  const CsrMatrix a(b);
  EXPECT_EQ(a.nnz(), 2u);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 0.0);
}

TEST(Csr, SpmvMatchesDense) {
  updec::Rng rng(4);
  SparseBuilder b(8, 6);
  for (int k = 0; k < 20; ++k)
    b.add(rng.uniform_index(8), rng.uniform_index(6), rng.normal());
  const CsrMatrix a(b);
  const Matrix ad = a.to_dense();
  Vector x(6);
  for (auto& v : x) v = rng.normal();
  const Vector y_sparse = a.apply(x);
  const Vector y_dense = updec::la::matvec(ad, x);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-13);
}

TEST(Csr, SpmvTransposeMatchesTransposedCopy) {
  updec::Rng rng(14);
  SparseBuilder b(7, 9);
  for (int k = 0; k < 25; ++k)
    b.add(rng.uniform_index(7), rng.uniform_index(9), rng.normal());
  const CsrMatrix a(b);
  Vector x(7);
  for (auto& v : x) v = rng.normal();
  const Vector y1 = a.apply_transpose(x);
  const Vector y2 = a.transposed().apply(x);
  for (std::size_t j = 0; j < 9; ++j) EXPECT_NEAR(y1[j], y2[j], 1e-13);
}

TEST(Csr, DiagonalExtraction) {
  const CsrMatrix a = poisson_1d(5);
  const Vector d = a.diagonal();
  for (std::size_t i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(d[i], 2.0);
}

TEST(Csr, SpmvAccumulatesWithBeta) {
  const CsrMatrix a = poisson_1d(3);
  const Vector x{1.0, 1.0, 1.0};
  Vector y{10.0, 10.0, 10.0};
  a.spmv(1.0, x, 1.0, y);
  EXPECT_DOUBLE_EQ(y[0], 11.0);  // 2 - 1 = 1, +10
  EXPECT_DOUBLE_EQ(y[1], 10.0);  // -1 + 2 - 1 = 0, +10
}

TEST(CsrProduct, MultiplyMatchesDenseGemm) {
  updec::Rng rng(91);
  SparseBuilder ab(12, 12), bb(12, 12);
  for (std::size_t k = 0; k < 60; ++k) {
    ab.add(rng.uniform_index(12), rng.uniform_index(12), rng.normal());
    bb.add(rng.uniform_index(12), rng.uniform_index(12), rng.normal());
  }
  const CsrMatrix a(ab), b(bb);
  const CsrMatrix c = updec::la::multiply(a, b);
  const Matrix dense =
      updec::la::matmul(a.to_dense(), b.to_dense());
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j)
      EXPECT_NEAR(c.at(i, j), dense(i, j), 1e-12);
}

TEST(CsrProduct, RowMaskLeavesRowsStructurallyEmpty) {
  const CsrMatrix a = poisson_1d(8);
  std::vector<std::uint8_t> mask(8, 1);
  mask[0] = mask[7] = 0;
  const CsrMatrix c = updec::la::multiply(a, a, &mask);
  EXPECT_EQ(c.row_ptr()[1], c.row_ptr()[0]);  // row 0 empty
  EXPECT_EQ(c.row_ptr()[8], c.row_ptr()[7]);  // row 7 empty
  const Matrix dense = updec::la::matmul(a.to_dense(), a.to_dense());
  for (std::size_t i = 1; i < 7; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(c.at(i, j), dense(i, j), 1e-12);
}

TEST(CsrSum, AddMatchesDense) {
  const CsrMatrix a = poisson_1d(10);
  const CsrMatrix b = convection_diffusion_1d(10, 0.3);
  const CsrMatrix c = updec::la::add(2.0, a, -0.5, b);
  for (std::size_t i = 0; i < 10; ++i)
    for (std::size_t j = 0; j < 10; ++j)
      EXPECT_NEAR(c.at(i, j), 2.0 * a.at(i, j) - 0.5 * b.at(i, j), 1e-14);
}

TEST(Csr, ApplyManyMatchesColumnwiseSpmv) {
  const CsrMatrix a = convection_diffusion_1d(15, 0.2);
  updec::Rng rng(7);
  Matrix x(15, 4);
  for (std::size_t i = 0; i < 15; ++i)
    for (std::size_t j = 0; j < 4; ++j) x(i, j) = rng.normal();
  const Matrix y = a.apply_many(x);
  Vector col(15), ref(15);
  for (std::size_t j = 0; j < 4; ++j) {
    for (std::size_t i = 0; i < 15; ++i) col[i] = x(i, j);
    a.spmv(1.0, col, 0.0, ref);
    for (std::size_t i = 0; i < 15; ++i) EXPECT_NEAR(y(i, j), ref[i], 1e-13);
  }
}

// ---- band LU ----------------------------------------------------------------

/// 5-point Laplacian on an m-by-m grid (n = m^2), optionally with its
/// unknowns relabelled by `shuffle` (a permutation), so the natural ordering
/// carries no bandwidth information.
CsrMatrix poisson_2d(std::size_t m, const std::vector<std::size_t>* shuffle =
                                        nullptr) {
  const std::size_t n = m * m;
  const auto label = [&](std::size_t r) {
    return shuffle != nullptr ? (*shuffle)[r] : r;
  };
  SparseBuilder b(n, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t r = i * m + j;
      b.add(label(r), label(r), 4.0);
      if (j > 0) b.add(label(r), label(r - 1), -1.0);
      if (j + 1 < m) b.add(label(r), label(r + 1), -1.0);
      if (i > 0) b.add(label(r), label(r - m), -1.0);
      if (i + 1 < m) b.add(label(r), label(r + m), -1.0);
    }
  }
  return CsrMatrix(b);
}

Vector random_rhs(std::size_t n, std::uint64_t seed) {
  updec::Rng rng(seed);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  return b;
}

Matrix transpose_of(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  return t;
}

TEST(BandLu, RcmOrderingNarrowsAShuffledGrid) {
  const std::size_t m = 12;
  std::vector<std::size_t> shuffle(m * m);
  std::iota(shuffle.begin(), shuffle.end(), std::size_t{0});
  updec::Rng rng(5);
  for (std::size_t i = shuffle.size(); i-- > 1;)
    std::swap(shuffle[i], shuffle[rng.uniform_index(i + 1)]);
  const CsrMatrix a = poisson_2d(m, &shuffle);

  const std::vector<std::size_t> order = updec::la::rcm_ordering(a);
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < sorted.size(); ++k) ASSERT_EQ(sorted[k], k);

  // A breadth-first ordering of an m x m grid has bandwidth about m; the
  // shuffled labels span nearly the whole matrix.
  const BandLu lu(a);
  EXPECT_LE(lu.lower_bandwidth(), m + 1);
  EXPECT_LE(lu.upper_bandwidth(), m + 1);
  const Vector b = random_rhs(m * m, 3);
  const Vector x = lu.solve(b);
  const Vector x_ref = updec::la::solve(a.to_dense(), b);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-12);
}

TEST(BandLu, PivotsPastZeroDiagonalsAndSeparateComponents) {
  // Two disconnected blocks; every diagonal entry of the first is zero, so
  // each column must take its pivot from below the diagonal.
  const std::size_t n = 20;
  SparseBuilder builder(2 * n, 2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) builder.add(i, i + 1, 1.0 + 0.1 * static_cast<double>(i));
    if (i > 0) builder.add(i, i - 1, 2.0);
    builder.add(n + i, n + i, 3.0);
    if (i > 0) builder.add(n + i, n + i - 1, -1.0);
  }
  builder.add(n - 1, n - 1, 0.5);  // keep the first block nonsingular
  const CsrMatrix a(builder);
  const BandLu lu(a);
  const Matrix ad = a.to_dense();
  const Vector b = random_rhs(2 * n, 11);
  const Vector x = lu.solve(b);
  const Vector xt = lu.solve_transpose(b);
  const Vector x_ref = updec::la::solve(ad, b);
  const Vector xt_ref = updec::la::solve(transpose_of(ad), b);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10 * (1.0 + std::abs(x_ref[i])));
    EXPECT_NEAR(xt[i], xt_ref[i], 1e-10 * (1.0 + std::abs(xt_ref[i])));
  }
}

TEST(BandLu, ZeroPivotThrows) {
  SparseBuilder builder(3, 3);
  builder.add(0, 0, 1.0);
  builder.add(1, 0, 1.0);  // row 2 and column 2 empty: singular
  EXPECT_THROW((void)BandLu(CsrMatrix(builder)), updec::Error);
}

// ---- SparseFirstSolver ----------------------------------------------------

TEST(SparseFirst, ForcedModesAgreeWithDenseSolve) {
  // Each factorisation mode, forced by the operator it is given, reproduces
  // a dense LU of the matrix it factors. A regular nonsymmetric operator
  // takes the plain band LU. Splicing an isolated node with no entries into
  // it makes the operator singular, so the band LU meets an exactly zero
  // pivot and factors A + lambda I instead.
  const std::size_t n = 80;
  const CsrMatrix a = convection_diffusion_1d(n, 0.4);
  const Vector b = random_rhs(n, 17);
  const Vector x_ref = updec::la::solve(a.to_dense(), b);

  const updec::la::SparseFirstSolver solver(a);
  updec::la::SolveReport report;
  const Vector x = solver.solve(b, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.method, updec::la::SolveMethod::kBandLu);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_FALSE(solver.factor_report().shifted);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-10);

  const std::size_t hole = n / 2;
  const auto label = [hole](std::size_t i) { return i < hole ? i : i + 1; };
  SparseBuilder builder(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = a.row_ptr()[i]; k < a.row_ptr()[i + 1]; ++k)
      builder.add(label(i), label(a.col_idx()[k]), a.values()[k]);
  const CsrMatrix singular(builder);
  Vector b_singular(n + 1, 0.0);  // zero at the hole: b is in the range
  for (std::size_t i = 0; i < n; ++i) b_singular[label(i)] = b[i];

  const updec::la::SparseFirstSolver shifted(singular);
  const updec::la::FactorReport& factor = shifted.factor_report();
  ASSERT_TRUE(factor.shifted);
  const Vector x_shifted = shifted.solve(b_singular, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.method, updec::la::SolveMethod::kShiftedLu);
  EXPECT_EQ(report.shift, factor.shift);
  Matrix dense = singular.to_dense();
  for (std::size_t i = 0; i <= n; ++i) dense(i, i) += factor.shift;
  const Vector x_shifted_ref = updec::la::solve(dense, b_singular);
  for (std::size_t i = 0; i <= n; ++i)
    EXPECT_NEAR(x_shifted[i], x_shifted_ref[i], 1e-10);
}

TEST(SparseFirst, TransposeSolveMatchesExplicitTranspose) {
  const std::size_t n = 60;
  const CsrMatrix a = convection_diffusion_1d(n, 0.5);
  const Vector b = random_rhs(n, 23);
  const Vector x_ref = updec::la::solve(transpose_of(a.to_dense()), b);

  const updec::la::SparseFirstSolver solver(a);
  updec::la::SolveReport report;
  const Vector x = solver.solve_transpose(b, &report);
  EXPECT_TRUE(report.converged);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-10);
}

TEST(SparseFirst, SolveManyMatchesColumnwiseSolve) {
  const std::size_t n = 48;
  const CsrMatrix a = convection_diffusion_1d(n, 0.25);
  updec::Rng rng(41);
  Matrix b(n, 5);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 5; ++j) b(i, j) = rng.normal();

  const updec::la::SparseFirstSolver solver(a);
  updec::la::SolveReport report;
  const Matrix x = solver.solve_many(b, &report);
  EXPECT_TRUE(report.converged);
  Vector col(n);
  for (std::size_t j = 0; j < 5; ++j) {
    for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
    const Vector ref = solver.solve(col);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, j), ref[i], 1e-12);
  }
}

// ---- agreement across solvers ---------------------------------------------

/// Textbook conjugate gradients: an independent iterative reference for the
/// direct solvers on SPD systems. Stops when ||r|| <= tol ||b||.
Vector cg_reference(const CsrMatrix& a, const Vector& b, double tol) {
  const std::size_t n = b.size();
  Vector x(n, 0.0), r = b, p = b, ap(n);
  double rr = updec::la::dot(r, r);
  const double stop = tol * tol * rr;
  for (std::size_t it = 0; it < 10 * n && rr > stop; ++it) {
    a.spmv(1.0, p, 0.0, ap);
    const double alpha = rr / updec::la::dot(p, ap);
    updec::la::axpy(alpha, p, x);
    updec::la::axpy(-alpha, ap, r);
    const double rr_next = updec::la::dot(r, r);
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + (rr_next / rr) * p[i];
    rr = rr_next;
  }
  return x;
}

// Property sweep: on SPD 1-D Poisson systems the band LU behind
// SparseFirstSolver, a dense LU and a Krylov (conjugate-gradient) reference
// agree.
class KrylovAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KrylovAgreement, AllSolversAgree) {
  const std::size_t n = GetParam();
  const CsrMatrix a = poisson_1d(n);
  const Vector b = random_rhs(n, n);
  const Vector x_lu = updec::la::solve(a.to_dense(), b);
  const updec::la::SparseFirstSolver solver(a);
  updec::la::SolveReport report;
  const Vector x_band = solver.solve(b, &report);
  ASSERT_TRUE(report.converged);
  const Vector x_cg = cg_reference(a, b, 1e-13);
  double scale = 1.0;
  for (const double v : x_lu.std()) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_band[i], x_lu[i], 1e-10 * scale);
    EXPECT_NEAR(x_cg[i], x_lu[i], 1e-8 * scale);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KrylovAgreement,
                         ::testing::Values(5, 16, 64, 128));

}  // namespace
