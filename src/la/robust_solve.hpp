#pragma once
/// \file robust_solve.hpp
/// \brief Checked direct solves for the optimisation stack.
///
/// The paper's three strategies each run hundreds of back-to-back linear
/// solves inside 350-500-iteration optimisation loops; an ill-conditioned
/// or singular system must degrade gracefully instead of silently
/// corrupting the run. Two entry points:
///
///  * SparseFirstSolver: every square CSR system (RBF-FD momentum, pressure,
///    Laplace and heat operators). One band LU (la/band.hpp) is factored at
///    construction and reused for every solve, transpose solve and batched
///    solve; each solve checks its true residual into a SolveReport.
///
///  * robust_lu_factor (dense): factor A for global collocation.
///
/// Both factor paths share one Tikhonov schedule: on a zero or non-finite
/// pivot they refactor A + lambda I with lambda = 1e-12 max(||A||_1, 1),
/// growing 100x per try for up to 6 tries, and record it in a FactorReport.

#include <memory>

#include "la/band.hpp"
#include "la/lu.hpp"
#include "la/sparse.hpp"

namespace updec::la {

/// Which factorisation produced the accepted solution.
enum class SolveMethod {
  /// Produced by nothing: no solver iterates any more. It stays because
  /// perfbench counts solves whose method differs from it, until the
  /// benchmark change that retires its la.krylov_iters and la.fallback_share
  /// counts (which read 0 and 1 meanwhile).
  kIterative,
  kBandLu,     ///< band LU of A
  kShiftedLu,  ///< band LU of A + lambda I (Tikhonov-regularised)
};

[[nodiscard]] const char* to_string(SolveMethod method);

/// Structured outcome of a checked solve. Marked nodiscard so call sites
/// must consume it (satisfying or explicitly waiving the converged check).
struct [[nodiscard]] SolveReport {
  SolveMethod method = SolveMethod::kBandLu;
  std::size_t attempts = 0;     ///< factorisation attempts (1 unless shifted)
  std::size_t iterations = 0;   ///< always 0; read by perfbench
  double residual_norm = 0.0;   ///< ||b - A x|| of the accepted solution
  double shift = 0.0;           ///< Tikhonov lambda (0 when unshifted)
  double seconds = 0.0;         ///< wall time of the solve
  bool converged = false;       ///< accepted solution meets the tolerance

  /// Throw updec::Error naming `context` unless the solve converged.
  const SolveReport& require_converged(const char* context) const;
};

/// Outcome of a robust factorisation.
struct FactorReport {
  std::size_t attempts = 0;  ///< factorisation attempts (>= 1)
  double shift = 0.0;        ///< Tikhonov lambda actually applied
  bool shifted = false;      ///< true iff a shift was needed
  bool ok = false;           ///< a usable factorisation was produced
};

/// Direct solver for one square CSR system, reusable across right-hand
/// sides and safe to share between threads once constructed. The name is
/// historical: it once chose between dense LU and a Krylov chain by size.
///
/// The constructor orders the operator by reverse Cuthill-McKee and factors
/// it as a band LU, escalating to A + lambda I on a zero or non-finite
/// pivot (factor_report() records the shift). Every solve returns the
/// solution and, when asked, a SolveReport with its true residual
/// ||b - A x||: the solve converged when that is finite and at most
/// max(1e-14, 1e-8 ||b||).
class SparseFirstSolver {
 public:
  SparseFirstSolver() = default;
  explicit SparseFirstSolver(CsrMatrix a);

  /// False for a default-constructed (empty) solver.
  [[nodiscard]] bool valid() const { return lu_ != nullptr; }
  [[nodiscard]] std::size_t size() const { return a_.rows(); }
  [[nodiscard]] const CsrMatrix& matrix() const { return a_; }
  [[nodiscard]] const FactorReport& factor_report() const { return factor_; }
  /// Resident size: the CSR matrix (kept for residual checks) plus the band
  /// factor, which is usually several times larger.
  [[nodiscard]] std::size_t bytes() const {
    return a_.bytes() + (lu_ ? lu_->bytes() : 0);
  }

  /// Solve A x = b.
  Vector solve(const Vector& b, SolveReport* report = nullptr) const;

  /// Solve A^T x = b (adjoint / VJP path).
  Vector solve_transpose(const Vector& b, SolveReport* report = nullptr) const;

  /// Solve A X = B in one sweep; `report` carries the worst column.
  Matrix solve_many(const Matrix& b, SolveReport* report = nullptr) const;

 private:
  Vector solve_dir(const Vector& b, bool transpose, SolveReport* report) const;
  /// Check a solve with true residual `residual` against rhs norm `b_norm`:
  /// the report, counted (and logged when it missed the threshold).
  [[nodiscard]] SolveReport report_for(double residual, double b_norm,
                                       double seconds) const;

  CsrMatrix a_;
  std::shared_ptr<const BandLu> lu_;
  FactorReport factor_;
};

/// Factor `a`, escalating to `a + lambda I` with growing lambda on a
/// singular pivot or non-finite breakdown. Each escalation is logged at
/// warn level with the shift used. Throws updec::Error only when every
/// attempt (including the largest shift) fails.
LuFactorization robust_lu_factor(const Matrix& a,
                                 FactorReport* report = nullptr);

/// Factor `a + shift * max(||a||_1, 1) * I` directly — the "already known to
/// need regularisation" path used by NaN-recovery re-solves.
LuFactorization shifted_lu_factor(const Matrix& a, double relative_shift);

/// True iff every entry of `v` is finite (no NaN / Inf).
[[nodiscard]] bool all_finite(const Vector& v);

/// Solve against a cached factorisation and validate the result is finite;
/// throws updec::Error naming `context` otherwise. Use at call sites that
/// previously consumed lu.solve(...) unchecked.
[[nodiscard]] Vector checked_solve(const LuFactorization& lu, const Vector& b,
                                   const char* context);

/// Same contract for a sparse operator: solve and throw updec::Error naming
/// `context` if the returned vector has non-finite entries.
[[nodiscard]] Vector checked_solve(const SparseFirstSolver& op,
                                   const Vector& b, const char* context);

}  // namespace updec::la
