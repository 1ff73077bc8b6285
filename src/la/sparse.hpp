#pragma once
/// \file sparse.hpp
/// \brief Compressed sparse row (CSR) matrices.
///
/// RBF-FD differentiation operators (Dx, Dy, Laplacian) are sparse with one
/// stencil-sized row per node; they are assembled once per point cloud and
/// applied thousands of times inside the projection iterations and on the
/// DP tape, so SpMV is the hottest kernel in the Navier-Stokes experiments.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "la/dense.hpp"

namespace updec::la {

/// \brief Triplet (COO) accumulator used to build CSR matrices.
class SparseBuilder {
 public:
  SparseBuilder(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols) {}

  /// Accumulate value at (i, j); duplicates are summed on build().
  void add(std::size_t i, std::size_t j, double v);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz_upper_bound() const { return entries_.size(); }

  struct Entry {
    std::size_t row, col;
    double value;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::size_t rows_, cols_;
  std::vector<Entry> entries_;
};

/// \brief Immutable CSR sparse matrix.
///
/// Column indices within each row are strictly ascending (established by
/// construction and relied on by the binary search in at()). The apply kernels are vectorised with `omp simd` +
/// `restrict` (see la/simd.hpp): per-row accumulation order is fixed, so
/// results are bitwise-reproducible across OpenMP team sizes within one
/// binary.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// \brief Build from a COO accumulator; duplicate entries are summed,
  /// explicit zeros are kept (they matter for structural symmetry checks).
  explicit CsrMatrix(const SparseBuilder& builder);

  /// \brief Raw CSR construction (takes ownership of the arrays).
  /// Per-row column indices must already be sorted ascending.
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return rows_ == 0; }

  /// \brief y = alpha * A x + beta * y (OpenMP over rows, SIMD per row).
  void spmv(double alpha, const Vector& x, double beta, Vector& y) const;

  /// \brief Allocating convenience: A x.
  [[nodiscard]] Vector apply(const Vector& x) const;

  /// \brief y = alpha * A^T x + beta * y.
  ///
  /// Runs directly off the untransposed storage (scatter over rows, serial
  /// so the accumulation order is deterministic): right for occasional
  /// transpose products, such as the residual check of a transpose solve.
  void spmv_t(double alpha, const Vector& x, double beta, Vector& y) const;

  /// \brief Allocating convenience: A^T x.
  [[nodiscard]] Vector apply_transpose(const Vector& x) const;

  /// \brief Y = alpha * A X + beta * Y with dense X, Y (OpenMP over rows,
  /// SIMD across each row of X). The multi-RHS analogue of spmv, used by
  /// the residual check of batched sparse solves.
  void spmm(double alpha, const Matrix& x, double beta, Matrix& y) const;

  /// \brief Allocating convenience: A X for dense X.
  [[nodiscard]] Matrix apply_many(const Matrix& x) const;

  /// \brief Transposed copy in CSR form.
  [[nodiscard]] CsrMatrix transposed() const;

  /// \brief Extract the main diagonal (missing entries read as 0).
  [[nodiscard]] Vector diagonal() const;

  /// \brief Densify (tests / small systems only).
  [[nodiscard]] Matrix to_dense() const;

  /// \brief Value at (i, j), 0 if not stored (binary search in the row).
  [[nodiscard]] double at(std::size_t i, std::size_t j) const;

  [[nodiscard]] const std::vector<std::size_t>& row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

  /// Resident size of the three arrays.
  [[nodiscard]] std::size_t bytes() const {
    return values_.size() * sizeof(double) +
           (row_ptr_.size() + col_idx_.size()) * sizeof(std::size_t);
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

/// \brief C = A B, sparse-sparse product (Gustavson row merge, serial so the
/// accumulation order -- and therefore the rounding -- is independent of the
/// OpenMP team size). When `row_mask` is non-null, rows of C with
/// (*row_mask)[i] == 0 are left structurally empty: the PDE assemblies use
/// this to form interior-only product operators (e.g. the consistent
/// Laplacian Dx.Dx + Dy.Dy) whose boundary rows are replaced by boundary
/// conditions anyway, without paying for entries that would be discarded.
[[nodiscard]] CsrMatrix multiply(
    const CsrMatrix& a, const CsrMatrix& b,
    const std::vector<std::uint8_t>* row_mask = nullptr);

/// \brief C = alpha A + beta B on the merged pattern (explicit zeros kept).
[[nodiscard]] CsrMatrix add(double alpha, const CsrMatrix& a, double beta,
                            const CsrMatrix& b);

}  // namespace updec::la
