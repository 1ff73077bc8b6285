#include "la/robust_solve.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "la/blas.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace updec::la {

namespace {

// Tikhonov schedule shared by the dense and band factorisations.
constexpr double kShiftInitial = 1e-12;  // scaled by max(||A||_1, 1)
constexpr double kShiftGrowth = 100.0;
constexpr std::size_t kMaxShiftAttempts = 6;

// A solve is accepted when ||b - A x|| <= max(kAcceptAbs, kAcceptRel ||b||).
constexpr double kAcceptAbs = 1e-14;
constexpr double kAcceptRel = 1e-8;

/// 1-norm (max column absolute sum) of a CSR matrix; scale for shifts.
double csr_norm1(const CsrMatrix& a) {
  Vector col_sums(a.cols(), 0.0);
  const auto& values = a.values();
  const auto& col_idx = a.col_idx();
  for (std::size_t k = 0; k < values.size(); ++k)
    col_sums[col_idx[k]] += std::abs(values[k]);
  double best = 0.0;
  for (const double s : col_sums) best = std::max(best, s);
  return best;
}

double dense_norm1(const Matrix& a) {
  double best = 0.0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) s += std::abs(a(i, j));
    best = std::max(best, s);
  }
  return best;
}

/// Run `make(shift)` unshifted, then on the Tikhonov schedule until one
/// attempt factors. `make` throws updec::Error on a singular or non-finite
/// pivot; `what` names the factorisation in logs and in the final error,
/// and `shifted_counter` counts the factorisations that needed a shift.
template <typename Factor, typename Make>
Factor factor_with_shifts(double norm1, FactorReport& out, const char* what,
                          const char* shifted_counter, Make&& make) {
  out = FactorReport{};
  ++out.attempts;
  try {
    Factor f = make(0.0);
    out.ok = true;
    return f;
  } catch (const Error& e) {
    log_warn() << what << ": factorisation failed (" << e.what()
               << "); retrying with Tikhonov shift";
  }
  // Scaled by the matrix magnitude so lambda is meaningful for both O(1)
  // and O(1e6) systems.
  double shift = kShiftInitial * std::max(norm1, 1.0);
  for (std::size_t attempt = 0; attempt < kMaxShiftAttempts;
       ++attempt, shift *= kShiftGrowth) {
    ++out.attempts;
    try {
      Factor f = make(shift);
      out.ok = true;
      out.shifted = true;
      out.shift = shift;
      UPDEC_METRIC_ADD(shifted_counter, 1);
      log_warn() << what << ": factored with Tikhonov shift " << shift
                 << " after " << out.attempts << " attempt(s)";
      return f;
    } catch (const Error&) {
      // grow the shift and retry
    }
  }
  std::ostringstream os;
  os << what << ": matrix remained singular after " << out.attempts
     << " attempts (final shift " << shift / kShiftGrowth << ")";
  throw Error(os.str());
}

/// ||b - A x||_2 (or ||b - A^T x||_2), +inf when x has non-finite entries.
double true_residual(const CsrMatrix& a, const Vector& b, const Vector& x,
                     bool transpose) {
  if (!all_finite(x)) return std::numeric_limits<double>::infinity();
  Vector r = b;
  if (transpose)
    a.spmv_t(-1.0, x, 1.0, r);
  else
    a.spmv(-1.0, x, 1.0, r);
  return nrm2(r);
}

}  // namespace

const char* to_string(SolveMethod method) {
  switch (method) {
    case SolveMethod::kIterative: return "iterative";
    case SolveMethod::kBandLu: return "band-lu";
    case SolveMethod::kShiftedLu: return "shifted-lu";
  }
  return "?";
}

const SolveReport& SolveReport::require_converged(const char* context) const {
  if (!converged) {
    std::ostringstream os;
    os << context << ": solve did not converge (method " << to_string(method)
       << ", " << attempts << " attempt(s), residual " << residual_norm
       << ", shift " << shift << ")";
    throw Error(os.str());
  }
  return *this;
}

LuFactorization shifted_lu_factor(const Matrix& a, double relative_shift) {
  const double shift = relative_shift * std::max(dense_norm1(a), 1.0);
  Matrix shifted = a;
  for (std::size_t i = 0; i < shifted.rows(); ++i) shifted(i, i) += shift;
  return LuFactorization(std::move(shifted));
}

bool all_finite(const Vector& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

Vector checked_solve(const LuFactorization& lu, const Vector& b,
                     const char* context) {
  Vector x = lu.solve(b);
  if (!all_finite(x)) {
    std::ostringstream os;
    os << context << ": linear solve produced non-finite entries";
    throw Error(os.str());
  }
  return x;
}

// ---- SparseFirstSolver ----------------------------------------------------

SparseFirstSolver::SparseFirstSolver(CsrMatrix a) : a_(std::move(a)) {
  UPDEC_REQUIRE(a_.rows() == a_.cols(),
                "SparseFirstSolver needs a square matrix");
  UPDEC_TRACE_SCOPE("la/sparse_first_setup");
  lu_ = std::make_shared<const BandLu>(factor_with_shifts<BandLu>(
      csr_norm1(a_), factor_, "band LU", "la/band_lu.shifted",
      [this](double shift) { return BandLu(a_, shift); }));
}

SolveReport SparseFirstSolver::report_for(double residual, double b_norm,
                                          double seconds) const {
  SolveReport report;
  report.method =
      factor_.shifted ? SolveMethod::kShiftedLu : SolveMethod::kBandLu;
  report.attempts = factor_.attempts;
  report.shift = factor_.shift;
  report.residual_norm = residual;
  report.converged = std::isfinite(residual) &&
                     residual <= std::max(kAcceptAbs, kAcceptRel * b_norm);
  report.seconds = seconds;
  UPDEC_METRIC_ADD("la/sparse_first.calls", 1);
  if (!report.converged) {
    UPDEC_METRIC_ADD("la/sparse_first.failures", 1);
    log_warn() << "SparseFirstSolver: residual " << residual
               << " misses the acceptance threshold (method "
               << to_string(report.method) << ", shift " << report.shift
               << ")";
  }
  return report;
}

Vector SparseFirstSolver::solve(const Vector& b, SolveReport* report) const {
  return solve_dir(b, /*transpose=*/false, report);
}

Vector SparseFirstSolver::solve_transpose(const Vector& b,
                                          SolveReport* report) const {
  return solve_dir(b, /*transpose=*/true, report);
}

Vector SparseFirstSolver::solve_dir(const Vector& b, bool transpose,
                                    SolveReport* report) const {
  UPDEC_REQUIRE(valid(), "SparseFirstSolver used before initialisation");
  UPDEC_REQUIRE(b.size() == size(), "SparseFirstSolver rhs size mismatch");
  UPDEC_TRACE_SCOPE("la/sparse_first");
  const Stopwatch watch;
  Vector x = transpose ? lu_->solve_transpose(b) : lu_->solve(b);
  const SolveReport r = report_for(true_residual(a_, b, x, transpose),
                                   nrm2(b), watch.seconds());
  if (report != nullptr) *report = r;
  return x;
}

Matrix SparseFirstSolver::solve_many(const Matrix& b,
                                     SolveReport* report) const {
  UPDEC_REQUIRE(valid(), "SparseFirstSolver used before initialisation");
  UPDEC_REQUIRE(b.rows() == size(),
                "SparseFirstSolver batched rhs size mismatch");
  UPDEC_TRACE_SCOPE("la/sparse_first_many");
  const Stopwatch watch;
  Matrix x = lu_->solve_many(b);
  // Judge the worst column: the one whose residual misses its own
  // threshold by the largest factor.
  Matrix r = b;
  a_.spmm(-1.0, x, 1.0, r);
  double worst_res = 0.0, worst_b = 0.0, worst_ratio = -1.0;
  for (std::size_t j = 0; j < r.cols(); ++j) {
    double s = 0.0, bn = 0.0;
    bool finite = true;
    for (std::size_t i = 0; i < r.rows(); ++i) {
      finite = finite && std::isfinite(x(i, j));
      s += r(i, j) * r(i, j);
      bn += b(i, j) * b(i, j);
    }
    const double res =
        finite ? std::sqrt(s) : std::numeric_limits<double>::infinity();
    const double ratio =
        res / std::max(kAcceptAbs, kAcceptRel * std::sqrt(bn));
    if (!(ratio <= worst_ratio)) {
      worst_ratio = ratio;
      worst_res = res;
      worst_b = std::sqrt(bn);
    }
  }
  const SolveReport rep = report_for(worst_res, worst_b, watch.seconds());
  if (report != nullptr) *report = rep;
  return x;
}

Vector checked_solve(const SparseFirstSolver& op, const Vector& b,
                     const char* context) {
  Vector x = op.solve(b);
  if (!all_finite(x)) {
    std::ostringstream os;
    os << context << ": linear solve produced non-finite entries";
    throw Error(os.str());
  }
  return x;
}

LuFactorization robust_lu_factor(const Matrix& a, FactorReport* report) {
  UPDEC_TRACE_SCOPE("la/lu_factor");
  UPDEC_METRIC_ADD("la/lu_factor.calls", 1);
  FactorReport local;
  return factor_with_shifts<LuFactorization>(
      dense_norm1(a), report != nullptr ? *report : local, "robust_lu_factor",
      "la/lu_factor.shifted", [&a](double shift) {
        Matrix m = a;
        if (shift != 0.0)
          for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += shift;
        return LuFactorization(std::move(m));
      });
}

}  // namespace updec::la
