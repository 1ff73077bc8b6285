#pragma once
/// \file cache.hpp
/// \brief Content-addressed operator cache for the scenario-serving runtime.
///
/// Assembling a global collocation matrix is O(N^2 k) and factoring it is
/// O(N^3); both depend only on (node layout, kernel, operator/row config).
/// A batch of scenarios that share a discretisation should therefore pay
/// for assembly + factorisation exactly once. This cache memoizes those
/// artefacts under 128-bit content keys built from fingerprints of their
/// inputs:
///
///   * fingerprint(PointCloud) -- positions, boundary kinds, normals, tags;
///   * fingerprint(Kernel)     -- name + phi/phi'/phi'' sampled at probe
///                                radii, so shape parameters (epsilon) and
///                                PHS exponents change the key even though
///                                they are hidden behind the virtual
///                                interface;
///   * fingerprint(Matrix)     -- raw bytes of an assembled operator (the
///                                same content address
///                                rbf::GlobalCollocation::content_hash()
///                                uses).
///
/// Eviction is GreedyDual-Size (Cao & Irani, USENIX 1997) under a byte
/// budget (UPDEC_CACHE_BYTES, default 512 MiB; 0 disables storage entirely
/// -- get_or_compute() then degenerates to single-flight compute). Each
/// entry carries a priority H = L + build_seconds / bytes, where
/// build_seconds is its compute's wall time on the steady clock and L is
/// the cache clock; a hit resets H from the current L. When an insert takes
/// the cache over budget, the lowest H goes first (ties to the least
/// recently used, the new entry included) and L rises to it. So what is
/// costly to rebuild per byte it frees -- a refined cloud's adaptation, a
/// dense factorisation -- outlives cheap artefacts of the same size, while
/// the rising clock still ages out entries that are no longer read. Every
/// artefact is booked once, by the entry that owns it, so bytes is what
/// evicting that entry frees.
///
/// Lookups are thread-safe, and concurrent misses on the same key are
/// single-flighted: one caller computes, the rest block on a shared future,
/// so a 16-job batch never factors the same matrix twice.
///
/// Counters (when metrics are enabled): serve/cache.hits, .misses,
/// .evictions, .inflight_waits; gauge serve/cache.bytes.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "la/lu.hpp"
#include "la/sparse.hpp"
#include "pointcloud/cloud.hpp"
#include "rbf/collocation.hpp"
#include "rbf/kernels.hpp"
#include "rbf/operators.hpp"
#include "rbf/rbffd.hpp"
#include "rom/pod_basis.hpp"

namespace updec::serve {

/// 128-bit content address (two independent FNV-1a lanes). Two lanes make
/// an accidental full-key collision astronomically unlikely even across the
/// ~2^32-entry birthday bound of a single 64-bit hash.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Incremental key construction: seed with a domain string (namespacing
/// different artefact types computed from the same inputs), then mix in
/// fingerprints, config scalars and strings.
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain);

  KeyBuilder& add_bytes(const void* data, std::size_t n);
  KeyBuilder& add(std::uint64_t v);
  KeyBuilder& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  KeyBuilder& add(double v);  ///< bit pattern, so -0.0 != 0.0 by design
  KeyBuilder& add(std::string_view s);

  [[nodiscard]] CacheKey key() const { return {hi_, lo_}; }

 private:
  std::uint64_t hi_;
  std::uint64_t lo_;
};

/// Content fingerprints of the cache's input objects.
[[nodiscard]] std::uint64_t fingerprint(const pc::PointCloud& cloud);
/// Behavioural: name() + phi/dphi/d2phi sampled at fixed probe radii, so
/// kernels that differ only in hidden parameters (epsilon, exponent) get
/// distinct fingerprints.
[[nodiscard]] std::uint64_t fingerprint(const rbf::Kernel& kernel);
[[nodiscard]] std::uint64_t fingerprint(const la::Matrix& m);
/// Structure + values of a CSR operator (row pointers, column indices, raw
/// value bytes) -- the content address of a sparse system matrix.
[[nodiscard]] std::uint64_t fingerprint(const la::CsrMatrix& m);
[[nodiscard]] std::uint64_t fingerprint(const rbf::LinearOp& op);

/// Byte budget implied by the environment: UPDEC_CACHE_BYTES when set and
/// parseable (0 allowed: disables storage), else 512 MiB. Malformed values
/// warn and fall back (strict whole-string parse; no silent prefixes).
[[nodiscard]] std::size_t byte_budget_from_env();

/// Disk-tier directory implied by the environment: UPDEC_CACHE_DIR when set
/// and non-empty, else "" (disk tier disarmed).
[[nodiscard]] std::string cache_dir_from_env();

/// Crash-safe persistent blob store under the in-memory cache: one
/// content-addressed file per entry (`<dir>/<hi>-<lo>.opc`), written
/// atomically (tmp + std::rename, the driver-checkpoint discipline) with a
/// header carrying magic, format version, the full 128-bit key and an
/// FNV-1a payload checksum. Reads verify all of it; a corrupt or truncated
/// entry is counted (`serve/cache.disk_corrupt`), deleted and reported as a
/// miss -- never trusted. Write failures (disk full, permissions, the
/// `serve.cache_disk_write` fault site) degrade to a warning: the cache
/// keeps serving from memory.
class DiskCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;     ///< verified payload served from disk
    std::uint64_t misses = 0;   ///< no entry on disk
    std::uint64_t writes = 0;   ///< entries persisted
    std::uint64_t corrupt = 0;  ///< rejected (bad magic/version/key/checksum)
    std::uint64_t errors = 0;   ///< I/O failures (open/write/rename)
  };

  /// Creates `dir` (and parents) if missing. An unusable directory warns
  /// and leaves the tier disabled rather than throwing: persistence is an
  /// optimisation, not a correctness requirement.
  explicit DiskCache(std::string dir);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string path_for(const CacheKey& key) const;

  /// Load and verify the payload for `key` into `payload`. False on miss;
  /// corrupt entries are deleted and counted, then reported as a miss.
  [[nodiscard]] bool load(const CacheKey& key, std::string& payload);

  /// Atomically persist `payload` under `key`. Never throws.
  bool store(const CacheKey& key, std::string_view payload);

  /// Drop the on-disk entry for `key` (decode-level rejection: the payload
  /// checksummed fine but did not deserialize into a usable artefact).
  void reject(const CacheKey& key, const std::string& why);

  [[nodiscard]] Stats stats() const;

 private:
  std::string dir_;
  bool enabled_ = false;
  mutable std::mutex stats_mutex_;
  Stats stats_;
};

/// Thread-safe GreedyDual-Size cache of type-erased immutable artefacts.
class OperatorCache {
 public:
  /// Per-artefact-class accounting. Every lookup names its artefact class
  /// (e.g. "bundle", "refined-bundle", "rbffd"), so the traffic of one class
  /// is never hidden among the rows of another it shares the cache with.
  struct ClassStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< currently resident
    std::size_t entries = 0;  ///< currently resident
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;          ///< compute actually ran
    std::uint64_t evictions = 0;
    std::uint64_t inflight_waits = 0;  ///< joined another caller's compute
    std::size_t bytes = 0;             ///< currently resident
    std::size_t entries = 0;
    std::size_t byte_budget = 0;
    std::map<std::string, ClassStats> by_class;
    DiskCache::Stats disk;             ///< zeroed when no disk tier is armed
  };

  /// A computed artefact plus its resident size: the bytes evicting it
  /// frees, which is both its share of the budget and the divisor of its
  /// rebuild cost.
  template <typename T>
  struct Sized {
    std::shared_ptr<const T> value;
    std::size_t bytes = 0;
  };

  /// `disk_dir` non-empty arms the persistent tier (UPDEC_CACHE_DIR by
  /// default); artefacts registered through get_or_compute_disk() then
  /// survive process restarts and warm-promote into the in-memory tier.
  explicit OperatorCache(std::size_t byte_budget = byte_budget_from_env(),
                         std::string disk_dir = cache_dir_from_env());

  OperatorCache(const OperatorCache&) = delete;
  OperatorCache& operator=(const OperatorCache&) = delete;

  /// Return the cached value for `key`, or run `compute` (exactly once
  /// across concurrent callers) and cache its result. `compute` must return
  /// Sized<T>; it runs outside the cache lock, timed on the steady clock for
  /// the entry's priority. An exception thrown by the leader's compute
  /// propagates to every caller waiting on that key and nothing is cached.
  /// `klass` names the artefact class for per-class stats accounting (a
  /// static string: "bundle", "refined-bundle", "rbffd", ...).
  template <typename T, typename Fn>
  std::shared_ptr<const T> get_or_compute(const CacheKey& key, Fn&& compute,
                                          const char* klass = "other") {
    std::shared_ptr<const void> p = get_or_compute_erased(
        key,
        [&compute]() -> Computed {
          Sized<T> sized = compute();
          return {std::static_pointer_cast<const void>(std::move(sized.value)),
                  sized.bytes};
        },
        klass);
    return std::static_pointer_cast<const T>(std::move(p));
  }

  /// Like get_or_compute, with the persistent tier underneath: a memory
  /// miss first probes the disk tier (a verified entry is decoded and
  /// promoted into memory -- the warm-restart path), and a genuine compute
  /// is encoded and persisted for the next process. `encode` maps const T&
  /// to the payload bytes; `decode` maps the verified payload back to a
  /// Sized<T> and may throw updec::Error on a malformed payload (the entry
  /// is then dropped and recomputed, like checksum-level corruption).
  /// Degenerates to plain get_or_compute when no disk tier is armed.
  template <typename T, typename Fn, typename Enc, typename Dec>
  std::shared_ptr<const T> get_or_compute_disk(const CacheKey& key,
                                               Fn&& compute, Enc&& encode,
                                               Dec&& decode,
                                               const char* klass = "other") {
    return get_or_compute<T>(
        key,
        [&]() -> Sized<T> {
          if (disk_ && disk_->enabled()) {
            std::string payload;
            if (disk_->load(key, payload)) {
              try {
                return decode(std::string_view(payload));
              } catch (const std::exception& e) {
                disk_->reject(key, e.what());
              }
            }
          }
          Sized<T> sized = compute();
          if (disk_ && disk_->enabled() && sized.value != nullptr)
            disk_->store(key, encode(*sized.value));
          return sized;
        },
        klass);
  }

  /// Probe without computing (testing / diagnostics). Does not count as a
  /// hit and does not touch the entry's priority.
  [[nodiscard]] bool contains(const CacheKey& key) const;

  /// The persistent tier, or nullptr when disarmed.
  [[nodiscard]] DiskCache* disk() { return disk_.get(); }

  /// Replace the persistent tier ("" disarms it). Forked shard workers call
  /// this with cache_dir_from_env() at startup: the parent process may have
  /// constructed the global cache before the serving environment was final,
  /// and the inherited disk binding would otherwise be stale. Existing
  /// disk-tier stats are discarded with the old tier.
  void rearm_disk(std::string dir);

  void clear();
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }

 private:
  struct Computed {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
  };
  /// (H, tick of last use): lexicographic order puts the next victim first,
  /// and among equal priorities the least recently used.
  using Rank = std::pair<double, std::uint64_t>;
  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    double cost_per_byte = 0.0;  ///< leader's compute seconds / bytes
    Rank rank;
    std::string klass;
  };
  using Index = std::unordered_map<CacheKey, Entry, CacheKeyHash>;

  std::shared_ptr<const void> get_or_compute_erased(
      const CacheKey& key, const std::function<Computed()>& compute,
      const char* klass);
  /// H = L + cost_per_byte at a fresh tick. Caller holds mutex_.
  Rank rank_locked(double cost_per_byte) {
    return {clock_ + cost_per_byte, ++tick_};
  }
  /// Insert under the budget, then evict lowest-H entries (possibly the new
  /// one) until it fits. Caller holds mutex_.
  void store_locked(const CacheKey& key, const Computed& computed,
                    double seconds, const char* klass);
  /// Drop `it`'s entry and fix the byte/entry/class accounting. Caller
  /// holds mutex_. Does NOT count an eviction.
  void erase_locked(Index::iterator it);

  mutable std::mutex mutex_;
  Index index_;
  std::map<Rank, CacheKey> queue_;  ///< begin() is the next victim
  double clock_ = 0.0;              ///< L: priority of the last victim
  std::uint64_t tick_ = 0;
  std::unordered_map<CacheKey, std::shared_future<Computed>, CacheKeyHash>
      inflight_;
  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  Stats stats_;
  std::unique_ptr<DiskCache> disk_;  ///< null when no directory is armed
};

/// Process-wide cache instance used by the serve scheduler (budget from
/// UPDEC_CACHE_BYTES at first use).
OperatorCache& global_cache();

// ---- disk-tier codecs ----------------------------------------------------
// Byte-exact binary round trips for the artefacts worth persisting: the
// O(N^3) dense LU and RBF-FD stencil weight matrices.
// decode_* throw updec::Error on malformed payloads (inconsistent sizes),
// which get_or_compute_disk and memoize_lu treat as corruption: drop and
// recompute.

[[nodiscard]] std::string encode_lu(const la::LuFactorization& lu);
[[nodiscard]] la::LuFactorization decode_lu(std::string_view payload);
[[nodiscard]] std::string encode_csr(const la::CsrMatrix& m);
[[nodiscard]] la::CsrMatrix decode_csr(std::string_view payload);

/// POD bases (rom/pod_basis.hpp) persist through get_or_compute_disk() under
/// the "pod-basis" class. Beyond the size checks, decode rejects a payload
/// that is not an orthonormal basis with finite, positive, descending
/// energies. No serving path stores one.
[[nodiscard]] std::size_t pod_basis_bytes(const rom::PodBasis& basis);
[[nodiscard]] std::string encode_pod_basis(const rom::PodBasis& basis);
[[nodiscard]] rom::PodBasis decode_pod_basis(std::string_view payload);

// ---- high-level memoization helpers --------------------------------------

/// Resident size of a factorisation: the packed LU matrix plus the
/// permutation vector.
[[nodiscard]] std::size_t lu_bytes(const la::LuFactorization& lu);

/// Give `colloc` its factorisation now, so that a timed build (a serve
/// bundle's compute) pays for it. The LU is booked by whatever owns `colloc`
/// and is never an in-memory cache entry of its own. With `cache`'s disk
/// tier armed, a verified LU persisted under the matrix content hash is
/// loaded and installed instead of factoring (the warm-restart path), and a
/// fresh factorisation is persisted for the next process.
void memoize_lu(OperatorCache& cache, rbf::GlobalCollocation& colloc);

/// RBF-FD differentiation matrix for `op`, memoized under
/// (cloud, kernel, stencil config, op coefficients).
[[nodiscard]] std::shared_ptr<const la::CsrMatrix> cached_rbffd_weights(
    OperatorCache& cache, const rbf::RbffdOperators& ops,
    const rbf::LinearOp& op);

}  // namespace updec::serve
