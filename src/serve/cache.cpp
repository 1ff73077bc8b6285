#include "serve/cache.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace updec::serve {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::uint64_t kFnvBasisLo = 14695981039346656037ULL;
// Second lane: same prime, independent starting state, so the lanes walk
// different orbits over identical input bytes.
constexpr std::uint64_t kFnvBasisHi = kFnvBasisLo ^ 0x9e3779b97f4a7c15ULL;

std::uint64_t fnv1a(std::uint64_t h, const unsigned char* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Single-lane FNV-1a over raw bytes, for the std::uint64_t fingerprints.
class Fnv {
 public:
  Fnv& bytes(const void* data, std::size_t n) {
    h_ = fnv1a(h_, static_cast<const unsigned char*>(data), n);
    return *this;
  }
  Fnv& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Fnv& f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }
  Fnv& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_ ? h_ : 1; }

 private:
  std::uint64_t h_ = kFnvBasisLo;
};

}  // namespace

KeyBuilder::KeyBuilder(std::string_view domain)
    : hi_(kFnvBasisHi), lo_(kFnvBasisLo) {
  add(domain);
}

KeyBuilder& KeyBuilder::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  lo_ = fnv1a(lo_, p, n);
  hi_ = fnv1a(hi_, p, n);
  return *this;
}

KeyBuilder& KeyBuilder::add(std::uint64_t v) {
  return add_bytes(&v, sizeof v);
}

KeyBuilder& KeyBuilder::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

KeyBuilder& KeyBuilder::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  return add_bytes(s.data(), s.size());
}

std::uint64_t fingerprint(const pc::PointCloud& cloud) {
  Fnv h;
  h.u64(cloud.size());
  for (const pc::Node& n : cloud.nodes()) {
    h.f64(n.pos.x).f64(n.pos.y);
    h.u64(static_cast<std::uint64_t>(n.kind));
    h.f64(n.normal.x).f64(n.normal.y);
    h.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(n.tag)));
  }
  return h.value();
}

std::uint64_t fingerprint(const rbf::Kernel& kernel) {
  // Probe radii span the [0, O(1)] range a unit-domain collocation sees;
  // irrational-ish spacing avoids accidental symmetry (e.g. even kernels
  // sampled only at integers).
  static constexpr double kProbes[] = {0.0,  0.125, 0.31830988618,
                                       0.5,  0.7071067811865476,
                                       1.0,  1.61803398875, 2.718281828459045};
  Fnv h;
  h.str(kernel.name());
  for (const double r : kProbes) {
    h.f64(kernel.phi(r)).f64(kernel.dphi(r)).f64(kernel.d2phi(r));
  }
  return h.value();
}

std::uint64_t fingerprint(const la::Matrix& m) {
  Fnv h;
  h.u64(m.rows()).u64(m.cols());
  h.bytes(m.data(), m.rows() * m.cols() * sizeof(double));
  return h.value();
}

std::uint64_t fingerprint(const la::CsrMatrix& m) {
  Fnv h;
  h.u64(m.rows()).u64(m.cols()).u64(m.nnz());
  h.bytes(m.row_ptr().data(), m.row_ptr().size() * sizeof(std::size_t));
  h.bytes(m.col_idx().data(), m.col_idx().size() * sizeof(std::size_t));
  h.bytes(m.values().data(), m.values().size() * sizeof(double));
  return h.value();
}

std::uint64_t fingerprint(const rbf::LinearOp& op) {
  Fnv h;
  h.f64(op.id).f64(op.ddx).f64(op.ddy).f64(op.lap);
  return h.value();
}

std::size_t byte_budget_from_env() {
  // Strict whole-string parse: "512MB" used to silently become 512 bytes
  // under strtoull's prefix rules; now it warns and keeps the default.
  return static_cast<std::size_t>(
      env::get_u64("UPDEC_CACHE_BYTES", std::uint64_t{512} << 20));
}

OperatorCache::OperatorCache(std::size_t byte_budget, std::string disk_dir)
    : byte_budget_(byte_budget) {
  stats_.byte_budget = byte_budget;
  if (!disk_dir.empty())
    disk_ = std::make_unique<DiskCache>(std::move(disk_dir));
}

void OperatorCache::rearm_disk(std::string dir) {
  std::lock_guard lock(mutex_);
  disk_ = dir.empty() ? nullptr : std::make_unique<DiskCache>(std::move(dir));
}

bool OperatorCache::contains(const CacheKey& key) const {
  std::lock_guard lock(mutex_);
  return index_.count(key) != 0;
}

void OperatorCache::clear() {
  std::lock_guard lock(mutex_);
  // In-flight computes are untouched: their futures complete normally, the
  // results just land in an empty table.
  index_.clear();
  queue_.clear();
  clock_ = 0.0;
  bytes_ = 0;
  stats_.bytes = 0;
  stats_.entries = 0;
  for (auto& [klass, cs] : stats_.by_class) {
    cs.bytes = 0;
    cs.entries = 0;
  }
}

OperatorCache::Stats OperatorCache::stats() const {
  Stats s;
  DiskCache* disk = nullptr;
  {
    std::lock_guard lock(mutex_);
    s = stats_;
    s.bytes = bytes_;
    s.entries = index_.size();
    s.byte_budget = byte_budget_;
    disk = disk_.get();  // pointer read racing rearm_disk() stays ordered
  }
  if (disk) s.disk = disk->stats();  // DiskCache locks its own mutex
  return s;
}

void OperatorCache::erase_locked(Index::iterator it) {
  const Entry& e = it->second;
  bytes_ -= e.bytes;
  ClassStats& cs = stats_.by_class[e.klass];
  cs.bytes -= e.bytes;
  --cs.entries;
  queue_.erase(e.rank);
  index_.erase(it);
}

void OperatorCache::store_locked(const CacheKey& key, const Computed& computed,
                                 double seconds, const char* klass) {
  if (byte_budget_ == 0 || computed.bytes > byte_budget_) return;
  if (index_.count(key) != 0) return;  // raced with an identical insert
  const double cost_per_byte =
      seconds / static_cast<double>(std::max<std::size_t>(computed.bytes, 1));
  const Rank rank = rank_locked(cost_per_byte);
  index_.emplace(key, Entry{computed.value, computed.bytes, cost_per_byte,
                            rank, klass});
  queue_.emplace(rank, key);
  bytes_ += computed.bytes;
  {
    ClassStats& cs = stats_.by_class[klass];
    cs.bytes += computed.bytes;
    ++cs.entries;
  }
  while (bytes_ > byte_budget_) {
    const auto victim = index_.find(queue_.begin()->second);
    clock_ = victim->second.rank.first;
    ++stats_.by_class[victim->second.klass].evictions;
    erase_locked(victim);
    ++stats_.evictions;
    UPDEC_METRIC_ADD("serve/cache.evictions", 1);
  }
  UPDEC_METRIC_GAUGE_SET("serve/cache.bytes", static_cast<double>(bytes_));
}

std::shared_ptr<const void> OperatorCache::get_or_compute_erased(
    const CacheKey& key, const std::function<Computed()>& compute,
    const char* klass) {
  std::shared_future<Computed> wait_on;
  std::promise<Computed> mine;
  {
    std::unique_lock lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      // Hit: reset H from the current clock, hand out the shared value.
      Entry& e = it->second;
      queue_.erase(e.rank);
      e.rank = rank_locked(e.cost_per_byte);
      queue_.emplace(e.rank, key);
      ++stats_.hits;
      ++stats_.by_class[klass].hits;
      UPDEC_METRIC_ADD("serve/cache.hits", 1);
      return e.value;
    }
    if (const auto it = inflight_.find(key); it != inflight_.end()) {
      // Someone else is computing this key: join their flight.
      wait_on = it->second;
      ++stats_.inflight_waits;
      UPDEC_METRIC_ADD("serve/cache.inflight_waits", 1);
    } else {
      inflight_.emplace(key, mine.get_future().share());
      ++stats_.misses;
      ++stats_.by_class[klass].misses;
      UPDEC_METRIC_ADD("serve/cache.misses", 1);
    }
  }

  if (wait_on.valid()) return wait_on.get().value;  // rethrows leader errors

  // We are the leader: compute outside the lock, timed for the priority.
  Computed computed;
  const auto start = std::chrono::steady_clock::now();
  try {
    computed = compute();
  } catch (...) {
    {
      std::lock_guard lock(mutex_);
      inflight_.erase(key);
    }
    mine.set_exception(std::current_exception());
    throw;
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  UPDEC_REQUIRE(computed.value != nullptr,
                "OperatorCache compute returned a null value");
  {
    std::lock_guard lock(mutex_);
    inflight_.erase(key);
    store_locked(key, computed, seconds, klass);
  }
  mine.set_value(computed);
  return computed.value;
}

OperatorCache& global_cache() {
  // Leaked: jobs may still touch the cache from atexit dump paths.
  static OperatorCache* cache = new OperatorCache();
  return *cache;
}

std::size_t lu_bytes(const la::LuFactorization& lu) {
  const std::size_t n = lu.size();
  return n * n * sizeof(double) + n * sizeof(std::size_t);
}

// ---- disk-tier codecs ----------------------------------------------------

namespace {

/// Append-only little binary writer for the artefact payloads.
class PayloadWriter {
 public:
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void f64s(const double* data, std::size_t n) {
    bytes(data, n * sizeof(double));
  }
  void indices(const std::vector<std::size_t>& v) {
    u64(v.size());
    for (const std::size_t x : v) u64(x);
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  void bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  std::string buf_;
};

/// Bounds-checked reader; any overrun or leftover is a malformed payload
/// (updec::Error), which the disk tier treats as corruption.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  std::uint64_t u64() {
    std::uint64_t v = 0;
    bytes(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    bytes(&v, sizeof v);
    return v;
  }
  void f64s(double* out, std::size_t n) { bytes(out, n * sizeof(double)); }
  std::vector<std::size_t> indices(std::size_t expected) {
    const std::uint64_t n = u64();
    UPDEC_REQUIRE(n == expected, "disk payload: index array size mismatch");
    std::vector<std::size_t> v(expected);
    for (std::size_t i = 0; i < expected; ++i)
      v[i] = static_cast<std::size_t>(u64());
    return v;
  }
  void done() const {
    UPDEC_REQUIRE(pos_ == payload_.size(),
                  "disk payload: trailing bytes after decode");
  }

 private:
  void bytes(void* out, std::size_t n) {
    UPDEC_REQUIRE(pos_ + n <= payload_.size(),
                  "disk payload: truncated field");
    std::memcpy(out, payload_.data() + pos_, n);
    pos_ += n;
  }
  std::string_view payload_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_lu(const la::LuFactorization& lu) {
  PayloadWriter w;
  const std::size_t n = lu.size();
  w.u64(n);
  w.f64s(lu.packed().data(), n * n);
  w.indices(lu.permutation());
  w.u64(lu.permutation_sign() == 1 ? 1 : 0);
  w.f64(lu.source_norm1());
  return w.take();
}

la::LuFactorization decode_lu(std::string_view payload) {
  PayloadReader r(payload);
  const std::size_t n = static_cast<std::size_t>(r.u64());
  la::Matrix packed(n, n);
  r.f64s(packed.data(), n * n);
  std::vector<std::size_t> perm = r.indices(n);
  const int sign = r.u64() == 1 ? 1 : -1;
  const double a_norm1 = r.f64();
  r.done();
  return la::LuFactorization::from_parts(std::move(packed), std::move(perm),
                                         sign, a_norm1);
}

std::string encode_csr(const la::CsrMatrix& m) {
  PayloadWriter w;
  w.u64(m.rows());
  w.u64(m.cols());
  w.u64(m.nnz());
  w.indices(m.row_ptr());
  w.indices(m.col_idx());
  w.f64s(m.values().data(), m.values().size());
  return w.take();
}

la::CsrMatrix decode_csr(std::string_view payload) {
  PayloadReader r(payload);
  const std::size_t rows = static_cast<std::size_t>(r.u64());
  const std::size_t cols = static_cast<std::size_t>(r.u64());
  const std::size_t nnz = static_cast<std::size_t>(r.u64());
  std::vector<std::size_t> row_ptr = r.indices(rows + 1);
  std::vector<std::size_t> col_idx = r.indices(nnz);
  std::vector<double> values(nnz);
  r.f64s(values.data(), nnz);
  r.done();
  UPDEC_REQUIRE(!row_ptr.empty() && row_ptr.front() == 0 &&
                    row_ptr.back() == nnz,
                "disk payload: inconsistent CSR row pointers");
  for (std::size_t i = 0; i + 1 < row_ptr.size(); ++i)
    UPDEC_REQUIRE(row_ptr[i] <= row_ptr[i + 1],
                  "disk payload: CSR row pointers not monotone");
  for (const std::size_t c : col_idx)
    UPDEC_REQUIRE(c < cols, "disk payload: CSR column index out of range");
  return la::CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                       std::move(values));
}

std::size_t pod_basis_bytes(const rom::PodBasis& basis) {
  return basis.modes.rows() * basis.modes.cols() * sizeof(double) +
         basis.eigenvalues.size() * sizeof(double);
}

std::string encode_pod_basis(const rom::PodBasis& basis) {
  PayloadWriter w;
  w.u64(basis.n());
  w.u64(basis.k());
  w.u64(basis.snapshot_count);
  w.f64s(basis.modes.data(), basis.n() * basis.k());
  w.f64s(basis.eigenvalues.data(), basis.eigenvalues.size());
  return w.take();
}

rom::PodBasis decode_pod_basis(std::string_view payload) {
  PayloadReader r(payload);
  const std::size_t n = static_cast<std::size_t>(r.u64());
  const std::size_t k = static_cast<std::size_t>(r.u64());
  rom::PodBasis basis;
  basis.snapshot_count = static_cast<std::size_t>(r.u64());
  UPDEC_REQUIRE(k <= n, "disk payload: pod-basis rank exceeds dimension");
  basis.modes = la::Matrix(n, k);
  r.f64s(basis.modes.data(), n * k);
  basis.eigenvalues = la::Vector(k);
  r.f64s(basis.eigenvalues.data(), k);
  r.done();
  // A checksum-clean payload can still be semantically bad (written by a
  // buggy producer): reject anything that is not an orthonormal basis with
  // finite, positive, descending energies rather than serving garbage.
  for (std::size_t j = 0; j < k; ++j) {
    UPDEC_REQUIRE(std::isfinite(basis.eigenvalues[j]) &&
                      basis.eigenvalues[j] > 0.0,
                  "disk payload: pod-basis eigenvalue not positive");
    UPDEC_REQUIRE(j == 0 || basis.eigenvalues[j] <= basis.eigenvalues[j - 1],
                  "disk payload: pod-basis eigenvalues not descending");
  }
  for (std::size_t i = 0; i < n * k; ++i)
    UPDEC_REQUIRE(std::isfinite(basis.modes.data()[i]),
                  "disk payload: pod-basis mode entry not finite");
  UPDEC_REQUIRE(k == 0 || basis.orthonormality_defect() < 1e-6,
                "disk payload: pod-basis modes not orthonormal");
  return basis;
}

// ---- memoization helpers -------------------------------------------------

void memoize_lu(OperatorCache& cache, rbf::GlobalCollocation& colloc) {
  DiskCache* disk = cache.disk();
  const bool persist = disk != nullptr && disk->enabled();
  CacheKey key;
  if (persist) {
    KeyBuilder kb("lu-factorization");
    kb.add(colloc.content_hash());
    kb.add(static_cast<std::uint64_t>(colloc.system_size()));
    key = kb.key();
    std::string payload;
    if (disk->load(key, payload)) {
      try {
        UPDEC_TRACE_SCOPE("serve/cache_disk_load");
        colloc.install_lu(
            std::make_shared<const la::LuFactorization>(decode_lu(payload)));
        return;
      } catch (const std::exception& e) {
        disk->reject(key, e.what());
      }
    }
  }
  {
    UPDEC_TRACE_SCOPE("serve/cache_factor");
    (void)colloc.lu();
  }
  if (persist) disk->store(key, encode_lu(colloc.lu()));
}

std::shared_ptr<const la::CsrMatrix> cached_rbffd_weights(
    OperatorCache& cache, const rbf::RbffdOperators& ops,
    const rbf::LinearOp& op) {
  KeyBuilder kb("rbffd-weights");
  kb.add(fingerprint(ops.cloud()));
  kb.add(fingerprint(ops.kernel()));
  kb.add(static_cast<std::uint64_t>(ops.config().stencil_size));
  kb.add(static_cast<std::int64_t>(ops.config().poly_degree));
  kb.add(fingerprint(op));
  return cache.get_or_compute_disk<la::CsrMatrix>(
      kb.key(),
      [&ops, &op] {
        UPDEC_TRACE_SCOPE("serve/cache_rbffd");
        auto w = std::make_shared<const la::CsrMatrix>(ops.weights_for(op));
        return OperatorCache::Sized<la::CsrMatrix>{w, w->bytes()};
      },
      encode_csr,
      [](std::string_view payload) {
        UPDEC_TRACE_SCOPE("serve/cache_disk_load");
        auto w = std::make_shared<const la::CsrMatrix>(decode_csr(payload));
        return OperatorCache::Sized<la::CsrMatrix>{w, w->bytes()};
      },
      "rbffd");
}

}  // namespace updec::serve
