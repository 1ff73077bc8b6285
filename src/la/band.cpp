#include "la/band.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/simd.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace updec::la {

namespace {

/// Symmetrised adjacency of a square CSR pattern, self loops dropped, in
/// CSR form (ptr / idx) with each neighbour list sorted and unique.
struct Graph {
  std::vector<std::size_t> ptr, idx;
  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return ptr[v + 1] - ptr[v];
  }
};

Graph symmetrised(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  Graph g;
  g.ptr.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
      if (col_idx[k] != i) {
        ++g.ptr[i + 1];
        ++g.ptr[col_idx[k] + 1];
      }
  for (std::size_t i = 0; i < n; ++i) g.ptr[i + 1] += g.ptr[i];
  g.idx.resize(g.ptr[n]);
  std::vector<std::size_t> fill(g.ptr.begin(), g.ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
      if (const std::size_t j = col_idx[k]; j != i) {
        g.idx[fill[i]++] = j;
        g.idx[fill[j]++] = i;
      }
  // Sort and deduplicate each list, compacting in place.
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto first = g.idx.begin() + static_cast<std::ptrdiff_t>(g.ptr[i]);
    const auto last = g.idx.begin() + static_cast<std::ptrdiff_t>(g.ptr[i + 1]);
    std::sort(first, last);
    const auto end = std::unique(first, last);
    const std::size_t begin = out;
    for (auto it = first; it != end; ++it) g.idx[out++] = *it;
    g.ptr[i] = begin;
  }
  g.ptr[n] = out;
  g.idx.resize(out);
  return g;
}

/// Breadth-first level structure rooted at `root` over nodes not yet
/// `placed`. Returns the nodes in visiting order; `depth` receives the
/// eccentricity of `root` and `last_level` the index in the returned order
/// where the deepest level begins.
std::vector<std::size_t> levels(const Graph& g, std::size_t root,
                                const std::vector<char>& placed,
                                std::vector<std::size_t>& stamp,
                                std::size_t mark, std::size_t& depth,
                                std::size_t& last_level) {
  std::vector<std::size_t> order{root};
  stamp[root] = mark;
  depth = 0;
  last_level = 0;
  for (std::size_t begin = 0; begin < order.size();) {
    const std::size_t end = order.size();
    for (std::size_t q = begin; q < end; ++q)
      for (std::size_t k = g.ptr[order[q]]; k < g.ptr[order[q] + 1]; ++k)
        if (const std::size_t w = g.idx[k]; !placed[w] && stamp[w] != mark) {
          stamp[w] = mark;
          order.push_back(w);
        }
    if (order.size() > end) {
      ++depth;
      last_level = end;
    }
    begin = end;
  }
  return order;
}

}  // namespace

std::vector<std::size_t> rcm_ordering(const CsrMatrix& a) {
  UPDEC_REQUIRE(a.rows() == a.cols(), "RCM ordering needs a square matrix");
  const std::size_t n = a.rows();
  const Graph g = symmetrised(a);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<char> placed(n, 0);
  std::vector<std::size_t> stamp(n, 0);
  std::size_t mark = 0;
  std::vector<std::size_t> next;
  for (std::size_t seed = 0; seed < n; ++seed) {
    if (placed[seed]) continue;
    // Pseudo-peripheral root (George & Liu): start at the component's
    // minimum-degree node, then hop to a minimum-degree node of the deepest
    // level while that lengthens the level structure.
    std::size_t depth = 0, last = 0;
    std::vector<std::size_t> comp =
        levels(g, seed, placed, stamp, ++mark, depth, last);
    std::size_t root = *std::min_element(
        comp.begin(), comp.end(), [&g](std::size_t x, std::size_t y) {
          return g.degree(x) < g.degree(y);
        });
    comp = levels(g, root, placed, stamp, ++mark, depth, last);
    for (;;) {
      const std::size_t candidate = *std::min_element(
          comp.begin() + static_cast<std::ptrdiff_t>(last), comp.end(),
          [&g](std::size_t x, std::size_t y) {
            return g.degree(x) < g.degree(y);
          });
      std::size_t cand_depth = 0, cand_last = 0;
      std::vector<std::size_t> cand_levels =
          levels(g, candidate, placed, stamp, ++mark, cand_depth, cand_last);
      if (cand_depth <= depth) break;
      root = candidate;
      depth = cand_depth;
      last = cand_last;
      comp = std::move(cand_levels);
    }
    // Cuthill-McKee sweep: visit neighbours in increasing degree.
    const std::size_t start = order.size();
    order.push_back(root);
    placed[root] = 1;
    for (std::size_t q = start; q < order.size(); ++q) {
      const std::size_t v = order[q];
      next.clear();
      for (std::size_t k = g.ptr[v]; k < g.ptr[v + 1]; ++k)
        if (!placed[g.idx[k]]) {
          placed[g.idx[k]] = 1;
          next.push_back(g.idx[k]);
        }
      std::sort(next.begin(), next.end(), [&g](std::size_t x, std::size_t y) {
        return g.degree(x) != g.degree(y) ? g.degree(x) < g.degree(y) : x < y;
      });
      order.insert(order.end(), next.begin(), next.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

BandLu::BandLu(const CsrMatrix& a, double shift) {
  UPDEC_REQUIRE(a.rows() == a.cols(), "BandLu needs a square matrix");
  UPDEC_TRACE_SCOPE("la/band_factor");
  UPDEC_METRIC_ADD("la/band_lu.factorizations", 1);
  n_ = a.rows();
  order_ = rcm_ordering(a);
  std::vector<std::size_t> position(n_);
  for (std::size_t k = 0; k < n_; ++k) position[order_[k]] = k;

  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const std::size_t pi = position[i];
      const std::size_t pj = position[col_idx[k]];
      if (pi > pj)
        kl_ = std::max(kl_, pi - pj);
      else
        ku_ = std::max(ku_, pj - pi);
    }
  kv_ = kl_ + ku_;
  ldab_ = 2 * kl_ + ku_ + 1;
  UPDEC_METRIC_GAUGE_MAX("la/band_lu.bandwidth", static_cast<double>(kv_));
  ab_.assign(ldab_ * n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)
      at(position[i], position[col_idx[k]]) += values[k];
  if (shift != 0.0)
    for (std::size_t j = 0; j < n_; ++j) at(j, j) += shift;
  factor();
}

void BandLu::factor() {
  // Unblocked dgbtf2: column j pivots among its kl subdiagonal entries and
  // eliminates into the columns its pivot row reaches (ju grows by the
  // fill the interchanges push above the original ku superdiagonals).
  pivot_.resize(n_);
  std::size_t ju = 0;
  for (std::size_t j = 0; j < n_; ++j) {
    const std::size_t km = std::min(kl_, n_ - 1 - j);
    double* col = &ab_[j * ldab_ + kv_];  // col[p] = (j + p, j)
    std::size_t jp = 0;
    double best = -1.0;
    for (std::size_t p = 0; p <= km; ++p) {
      const double v = std::abs(col[p]);
      UPDEC_REQUIRE(std::isfinite(v),
                    "band LU: non-finite entry in the pivot column");
      if (v > best) {
        best = v;
        jp = p;
      }
    }
    UPDEC_REQUIRE(best > 0.0, "band LU: zero pivot (matrix is singular)");
    pivot_[j] = j + jp;
    ju = std::max(ju, std::min(j + ku_ + jp, n_ - 1));
    if (jp != 0)
      for (std::size_t c = j; c <= ju; ++c) std::swap(at(j, c), at(j + jp, c));
    const double inv = 1.0 / col[0];
    UPDEC_PRAGMA_SIMD
    for (std::size_t p = 1; p <= km; ++p) col[p] *= inv;
    for (std::size_t c = j + 1; c <= ju; ++c) {
      double* UPDEC_RESTRICT cc = &at(j, c);  // cc[p] = (j + p, c)
      const double u = cc[0];
      if (u == 0.0) continue;
      UPDEC_PRAGMA_SIMD
      for (std::size_t p = 1; p <= km; ++p) cc[p] -= col[p] * u;
    }
  }
}

void BandLu::solve_in_place(double* x) const {
  for (std::size_t j = 0; j < n_; ++j) {
    if (pivot_[j] != j) std::swap(x[j], x[pivot_[j]]);
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* col = &ab_[j * ldab_ + kv_];
    const std::size_t km = std::min(kl_, n_ - 1 - j);
    for (std::size_t p = 1; p <= km; ++p) x[j + p] -= col[p] * xj;
  }
  for (std::size_t j = n_; j-- > 0;) {
    x[j] /= at(j, j);
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (std::size_t i = j > kv_ ? j - kv_ : 0; i < j; ++i)
      x[i] -= at(i, j) * xj;
  }
}

void BandLu::solve_transpose_in_place(double* x) const {
  // U^T y = b (forward), then L^T with the interchanges undone backwards.
  for (std::size_t j = 0; j < n_; ++j) {
    double s = x[j];
    for (std::size_t i = j > kv_ ? j - kv_ : 0; i < j; ++i)
      s -= at(i, j) * x[i];
    x[j] = s / at(j, j);
  }
  for (std::size_t j = n_; j-- > 0;) {
    const double* col = &ab_[j * ldab_ + kv_];
    const std::size_t km = std::min(kl_, n_ - 1 - j);
    double s = x[j];
    for (std::size_t p = 1; p <= km; ++p) s -= col[p] * x[j + p];
    x[j] = s;
    if (pivot_[j] != j) std::swap(x[j], x[pivot_[j]]);
  }
}

Vector BandLu::solve(const Vector& b) const {
  UPDEC_REQUIRE(b.size() == n_, "BandLu::solve dimension mismatch");
  Vector y(n_);
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[order_[k]];
  solve_in_place(y.data());
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order_[k]] = y[k];
  return x;
}

Vector BandLu::solve_transpose(const Vector& b) const {
  UPDEC_REQUIRE(b.size() == n_, "BandLu::solve_transpose dimension mismatch");
  // (P A P^T)^T = P A^T P^T: the same ordering serves both directions.
  Vector y(n_);
  for (std::size_t k = 0; k < n_; ++k) y[k] = b[order_[k]];
  solve_transpose_in_place(y.data());
  Vector x(n_);
  for (std::size_t k = 0; k < n_; ++k) x[order_[k]] = y[k];
  return x;
}

Matrix BandLu::solve_many(const Matrix& b) const {
  UPDEC_REQUIRE(b.rows() == n_, "BandLu::solve_many dimension mismatch");
  const std::size_t k = b.cols();
  // Row-major right-hand sides: every factor entry updates one contiguous
  // row of all k columns at once.
  Matrix y(n_, k);
  for (std::size_t r = 0; r < n_; ++r)
    std::copy_n(b.row(order_[r]), k, y.row(r));
  for (std::size_t j = 0; j < n_; ++j) {
    if (pivot_[j] != j)
      std::swap_ranges(y.row(j), y.row(j) + k, y.row(pivot_[j]));
    const double* col = &ab_[j * ldab_ + kv_];
    const double* UPDEC_RESTRICT yj = y.row(j);
    const std::size_t km = std::min(kl_, n_ - 1 - j);
    for (std::size_t p = 1; p <= km; ++p) {
      const double l = col[p];
      if (l == 0.0) continue;
      double* UPDEC_RESTRICT yp = y.row(j + p);
      UPDEC_PRAGMA_SIMD
      for (std::size_t c = 0; c < k; ++c) yp[c] -= l * yj[c];
    }
  }
  for (std::size_t j = n_; j-- > 0;) {
    double* UPDEC_RESTRICT yj = y.row(j);
    const double inv = 1.0 / at(j, j);
    UPDEC_PRAGMA_SIMD
    for (std::size_t c = 0; c < k; ++c) yj[c] *= inv;
    for (std::size_t i = j > kv_ ? j - kv_ : 0; i < j; ++i) {
      const double u = at(i, j);
      if (u == 0.0) continue;
      double* UPDEC_RESTRICT yi = y.row(i);
      UPDEC_PRAGMA_SIMD
      for (std::size_t c = 0; c < k; ++c) yi[c] -= u * yj[c];
    }
  }
  Matrix x(n_, k);
  for (std::size_t r = 0; r < n_; ++r)
    std::copy_n(y.row(r), k, x.row(order_[r]));
  return x;
}

}  // namespace updec::la
