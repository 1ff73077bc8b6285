#include "la/lu.hpp"

#include <cmath>

#include "la/blas.hpp"
#include "la/simd.hpp"
#include "util/faultinject.hpp"

namespace updec::la {

namespace {
/// 1-norm of a square matrix (max column absolute sum).
double matrix_norm1(const Matrix& a) {
  const std::size_t n = a.cols();
  double best = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) s += std::abs(a(i, j));
    best = std::max(best, s);
  }
  return best;
}
}  // namespace

LuFactorization::LuFactorization(Matrix a) {
  UPDEC_REQUIRE(a.rows() == a.cols(), "LU requires a square matrix");
  UPDEC_REQUIRE(!UPDEC_FAULT_POINT("lu.singular_pivot"),
                "injected fault: simulated singular pivot");
  const std::size_t n = a.rows();
  a_norm1_ = matrix_norm1(a);
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t piv = k;
    double piv_val = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > piv_val) {
        piv_val = v;
        piv = i;
      }
    }
    // A NaN column makes piv_val NaN, which also fails this comparison.
    UPDEC_REQUIRE(piv_val > 0.0,
                  "matrix is singular to working precision or non-finite");
    if (piv != k) {
      double* rk = a.row(k);
      double* rp = a.row(piv);
      for (std::size_t j = 0; j < n; ++j) std::swap(rk[j], rp[j]);
      std::swap(perm_[k], perm_[piv]);
      perm_sign_ = -perm_sign_;
    }
    const double inv_akk = 1.0 / a(k, k);
    // Eliminate below the pivot; rows are independent -> parallel.
#ifdef UPDEC_HAVE_OPENMP
#pragma omp parallel for schedule(static)
#endif
    for (std::ptrdiff_t ii = static_cast<std::ptrdiff_t>(k) + 1;
         ii < static_cast<std::ptrdiff_t>(n); ++ii) {
      const auto i = static_cast<std::size_t>(ii);
      const double lik = a(i, k) * inv_akk;
      a(i, k) = lik;
      const double* UPDEC_RESTRICT rk = a.row(k);
      double* UPDEC_RESTRICT ri = a.row(i);
      UPDEC_PRAGMA_SIMD
      for (std::size_t j = k + 1; j < n; ++j) ri[j] -= lik * rk[j];
    }
  }
  lu_ = std::move(a);
}

void LuFactorization::forward_substitute(Vector& x) const {
  const std::size_t n = size();
  double* UPDEC_RESTRICT xp = x.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* UPDEC_RESTRICT row = lu_.row(i);
    double s = 0.0;
    UPDEC_PRAGMA_SIMD_REDUCTION(+ : s)
    for (std::size_t j = 0; j < i; ++j) s += row[j] * xp[j];
    xp[i] -= s;  // unit diagonal on L
  }
}

void LuFactorization::backward_substitute(Vector& x) const {
  const std::size_t n = size();
  double* UPDEC_RESTRICT xp = x.data();
  for (std::size_t ii = n; ii-- > 0;) {
    const double* UPDEC_RESTRICT row = lu_.row(ii);
    double s = 0.0;
    UPDEC_PRAGMA_SIMD_REDUCTION(+ : s)
    for (std::size_t j = ii + 1; j < n; ++j) s += row[j] * xp[j];
    xp[ii] = (xp[ii] - s) / row[ii];
  }
}

Vector LuFactorization::solve(const Vector& b) const {
  UPDEC_REQUIRE(valid(), "solve on empty factorisation");
  UPDEC_REQUIRE(b.size() == size(), "solve dimension mismatch");
  const std::size_t n = size();
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  forward_substitute(x);
  backward_substitute(x);
  return x;
}

Vector LuFactorization::solve_transpose(const Vector& b) const {
  UPDEC_REQUIRE(valid(), "solve_transpose on empty factorisation");
  UPDEC_REQUIRE(b.size() == size(), "solve dimension mismatch");
  const std::size_t n = size();
  // A^T = (P^T L U)^T = U^T L^T P, so solve U^T y = b, L^T z = y, x = P^T z.
  // Column i of U^T (of L^T) is row i of U (of L): each sweep reads the
  // packed factors by row and eliminates a solved entry from the rest with
  // one contiguous axpy, as solve_many does.
  Vector y = b;
  double* UPDEC_RESTRICT yp = y.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* UPDEC_RESTRICT ui = lu_.row(i);
    const double yi = yp[i] / ui[i];
    yp[i] = yi;
    if (yi == 0.0) continue;
    UPDEC_PRAGMA_SIMD
    for (std::size_t j = i + 1; j < n; ++j) yp[j] -= ui[j] * yi;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* UPDEC_RESTRICT li = lu_.row(ii);
    const double yi = yp[ii];  // unit diagonal
    if (yi == 0.0) continue;
    UPDEC_PRAGMA_SIMD
    for (std::size_t j = 0; j < ii; ++j) yp[j] -= li[j] * yi;
  }
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
  return x;
}

Matrix LuFactorization::solve_many(const Matrix& b) const {
  UPDEC_REQUIRE(valid(), "solve_many on empty factorisation");
  UPDEC_REQUIRE(b.rows() == size(), "solve_many dimension mismatch");
  const std::size_t n = size();
  const std::size_t k = b.cols();
  // Pivot bookkeeping once for the whole batch: gather permuted rows of B
  // (contiguous row copies), instead of re-applying the permutation per
  // column as the old per-column path did.
  Matrix x(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    const double* src = b.row(perm_[i]);
    double* dst = x.row(i);
    for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  }
  // Forward sweep L Y = P B, all columns at once. The inner axpy runs over
  // the contiguous row of X, so one traversal of L serves every RHS.
  for (std::size_t i = 0; i < n; ++i) {
    const double* UPDEC_RESTRICT li = lu_.row(i);
    double* UPDEC_RESTRICT xi = x.row(i);
    for (std::size_t p = 0; p < i; ++p) {
      const double l = li[p];
      if (l == 0.0) continue;
      const double* UPDEC_RESTRICT xp = x.row(p);
      UPDEC_PRAGMA_SIMD
      for (std::size_t j = 0; j < k; ++j) xi[j] -= l * xp[j];
    }
  }
  // Backward sweep U X = Y.
  for (std::size_t ii = n; ii-- > 0;) {
    const double* UPDEC_RESTRICT ui = lu_.row(ii);
    double* UPDEC_RESTRICT xi = x.row(ii);
    for (std::size_t p = ii + 1; p < n; ++p) {
      const double u = ui[p];
      if (u == 0.0) continue;
      const double* UPDEC_RESTRICT xp = x.row(p);
      UPDEC_PRAGMA_SIMD
      for (std::size_t j = 0; j < k; ++j) xi[j] -= u * xp[j];
    }
    const double inv = 1.0 / ui[ii];
    UPDEC_PRAGMA_SIMD
    for (std::size_t j = 0; j < k; ++j) xi[j] *= inv;
  }
  return x;
}

double LuFactorization::determinant() const {
  UPDEC_REQUIRE(valid(), "determinant on empty factorisation");
  double det = perm_sign_;
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

double LuFactorization::condition_estimate() const {
  UPDEC_REQUIRE(valid(), "condition_estimate on empty factorisation");
  const std::size_t n = size();
  // Hager's estimator for ||A^-1||_1 via a few solves with A and A^T.
  Vector x(n, 1.0 / static_cast<double>(n));
  double est = 0.0;
  for (int iter = 0; iter < 5; ++iter) {
    const Vector y = solve(x);
    est = nrm1(y);
    Vector xi(n);
    for (std::size_t i = 0; i < n; ++i) xi[i] = (y[i] >= 0.0) ? 1.0 : -1.0;
    const Vector z = solve_transpose(xi);
    // Pick the coordinate with the largest |z_j| as the next probe.
    std::size_t jmax = 0;
    double zmax = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (std::abs(z[j]) > zmax) {
        zmax = std::abs(z[j]);
        jmax = j;
      }
    }
    if (zmax <= dot(z, x)) break;
    x.fill(0.0);
    x[jmax] = 1.0;
  }
  return est * a_norm1_;
}

LuFactorization LuFactorization::from_parts(Matrix packed,
                                            std::vector<std::size_t> perm,
                                            int perm_sign, double a_norm1) {
  const std::size_t n = packed.rows();
  UPDEC_REQUIRE(packed.cols() == n,
                "LuFactorization::from_parts: packed factors not square");
  UPDEC_REQUIRE(perm.size() == n,
                "LuFactorization::from_parts: permutation size mismatch");
  UPDEC_REQUIRE(perm_sign == 1 || perm_sign == -1,
                "LuFactorization::from_parts: permutation sign must be +/-1");
  std::vector<bool> seen(n, false);
  for (const std::size_t p : perm) {
    UPDEC_REQUIRE(p < n && !seen[p],
                  "LuFactorization::from_parts: not a permutation");
    seen[p] = true;
  }
  LuFactorization lu;
  lu.lu_ = std::move(packed);
  lu.perm_ = std::move(perm);
  lu.perm_sign_ = perm_sign;
  lu.a_norm1_ = a_norm1;
  return lu;
}

Vector solve(Matrix a, const Vector& b) {
  return LuFactorization(std::move(a)).solve(b);
}

Matrix lu_solve_many(Matrix a, const Matrix& b) {
  return LuFactorization(std::move(a)).solve_many(b);
}

}  // namespace updec::la
