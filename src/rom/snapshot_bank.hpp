#pragma once
/// \file snapshot_bank.hpp
/// \brief Bounded, deduplicated store of solution snapshots per operator.
///
/// Solutions of full solves are training samples for a POD basis: they are
/// collected here, grouped by the 128-bit-reduced operator fingerprint of
/// the system they solved, and later turned into a basis by
/// build_pod_basis(). The bank is thread-safe, so concurrent jobs may share
/// it, and memory-bounded: snapshots are deduplicated by content hash (an
/// optimisation trajectory re-visiting an iterate contributes nothing new)
/// and a byte cap evicts the OLDEST snapshot of the LEAST-recently-touched
/// fingerprint group first -- active operator families keep their training
/// sets while stale ones fade out.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "la/dense.hpp"

namespace updec::rom {

class SnapshotBank {
 public:
  /// `byte_cap` 0 disables storage entirely (every add() is rejected).
  explicit SnapshotBank(std::size_t byte_cap);

  SnapshotBank(const SnapshotBank&) = delete;
  SnapshotBank& operator=(const SnapshotBank&) = delete;

  /// Harvest one solution snapshot for the operator `fingerprint`. Returns
  /// false when nothing was stored: a bit-identical duplicate, a non-finite
  /// vector, an empty vector, or a snapshot bigger than the whole cap.
  bool add(std::uint64_t fingerprint, const la::Vector& snapshot);

  /// Copy of the snapshots currently held for `fingerprint`, oldest first
  /// (touches the group's recency). Empty when the fingerprint is unknown.
  [[nodiscard]] std::vector<la::Vector> snapshots(std::uint64_t fingerprint);

  /// Snapshots currently held for `fingerprint` (0 when unknown).
  [[nodiscard]] std::size_t count(std::uint64_t fingerprint) const;

  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t byte_cap() const { return byte_cap_; }
  [[nodiscard]] std::uint64_t evictions() const;

  void clear();

 private:
  struct Group {
    std::vector<la::Vector> snaps;             ///< oldest first
    std::vector<std::uint64_t> snap_hashes;    ///< parallel to snaps
    std::unordered_set<std::uint64_t> hashes;  ///< content dedup
    std::uint64_t last_touch = 0;
  };

  /// Caller holds mutex_. Evicts until bytes_ <= byte_cap_.
  void enforce_cap_locked();

  const std::size_t byte_cap_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Group> groups_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t touch_counter_ = 0;
};

}  // namespace updec::rom
