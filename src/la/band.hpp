#pragma once
/// \file band.hpp
/// \brief Direct solves for square sparse systems: reverse Cuthill-McKee
/// ordering followed by a banded LU with partial pivoting.
///
/// Every sparse operator the solvers meet (RBF-FD momentum, pressure,
/// Laplace and heat systems) is factored once and then reused for every
/// pseudo-time step, optimisation iteration and adjoint or VJP solve. On a
/// scattered cloud the RCM-ordered bandwidth b grows like sqrt(n), so the
/// factor costs O(n b^2) and each solve O(n b) -- far below dense LU's
/// O(n^3) / O(n^2) at every size the repository runs.
///
/// Storage follows LAPACK's dgbtrf layout: the permuted matrix B = P A P^T
/// lives column-major in a (2 kl + ku + 1) x n array with B(i, j) at row
/// kl + ku + i - j of column j; the top kl rows hold the fill that row
/// interchanges push into U. Grounding: Cuthill & McKee (1969), George &
/// Liu, "Computer Solution of Large Sparse Positive Definite Systems"
/// (1981), LAPACK dgbtf2 / dgbtrs.

#include <cstddef>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse.hpp"

namespace updec::la {

/// Reverse Cuthill-McKee ordering of the symmetrised pattern of square `a`:
/// order[k] is the original index placed at position k. Each connected
/// component starts from a pseudo-peripheral node of minimum degree.
[[nodiscard]] std::vector<std::size_t> rcm_ordering(const CsrMatrix& a);

/// P A P^T = L U of a square CSR matrix in band storage. Immutable after
/// construction, so one factorisation may serve any number of threads.
class BandLu {
 public:
  BandLu() = default;

  /// Order `a` by RCM and factor a + shift I. Throws updec::Error on a zero
  /// or non-finite pivot (the caller decides whether to shift and retry).
  explicit BandLu(const CsrMatrix& a, double shift = 0.0);

  /// Solve A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solve A^T x = b (the adjoint and VJP direction).
  [[nodiscard]] Vector solve_transpose(const Vector& b) const;

  /// Solve A X = B for every column of B in one sweep over the factors.
  [[nodiscard]] Matrix solve_many(const Matrix& b) const;

  /// Sub- and superdiagonal counts of the RCM-ordered matrix.
  [[nodiscard]] std::size_t lower_bandwidth() const { return kl_; }
  [[nodiscard]] std::size_t upper_bandwidth() const { return ku_; }

  /// Resident size: the band array plus the pivot and ordering vectors.
  [[nodiscard]] std::size_t bytes() const {
    return ab_.size() * sizeof(double) +
           (pivot_.size() + order_.size()) * sizeof(std::size_t);
  }

 private:
  /// Band entry (i, j) of the factored, permuted matrix.
  [[nodiscard]] double& at(std::size_t i, std::size_t j) {
    return ab_[(kv_ + i - j) + j * ldab_];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return ab_[(kv_ + i - j) + j * ldab_];
  }
  /// Unblocked dgbtf2 on ab_; throws on a zero or non-finite pivot.
  void factor();
  void solve_in_place(double* x) const;
  void solve_transpose_in_place(double* x) const;

  std::size_t n_ = 0;
  std::size_t kl_ = 0, ku_ = 0;
  std::size_t kv_ = 0;    ///< kl + ku: row of the diagonal in ab_
  std::size_t ldab_ = 0;  ///< 2 kl + ku + 1
  std::vector<double> ab_;
  std::vector<std::size_t> pivot_;  ///< row swapped with row j at step j
  std::vector<std::size_t> order_;  ///< RCM: order_[k] = original index
};

}  // namespace updec::la
