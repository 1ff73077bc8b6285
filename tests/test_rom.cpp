// Tests for the POD building blocks kept in src/rom: SnapshotBank bounds and
// deduplication, POD basis construction on healthy / rank-deficient
// snapshot sets, the pod-basis disk codec, and a basis persisted through the
// operator cache's disk tier.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "la/blas.hpp"
#include "rom/pod_basis.hpp"
#include "rom/snapshot_bank.hpp"
#include "serve/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using updec::Rng;
using updec::la::Vector;
namespace rom = updec::rom;
namespace serve = updec::serve;

Vector random_snapshot(Rng& rng, std::size_t n) {
  Vector v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.normal();
  return v;
}

// ---- SnapshotBank ---------------------------------------------------------

TEST(SnapshotBank, DeduplicatesAndRejectsJunk) {
  rom::SnapshotBank bank(1 << 16);
  Rng rng(1);
  const Vector s = random_snapshot(rng, 8);
  EXPECT_TRUE(bank.add(7, s));
  EXPECT_FALSE(bank.add(7, s));  // bit-identical duplicate
  EXPECT_EQ(bank.count(7), 1u);

  EXPECT_FALSE(bank.add(7, Vector()));  // empty
  Vector bad = s;
  bad[3] = std::nan("");
  EXPECT_FALSE(bank.add(7, bad));  // non-finite
  EXPECT_EQ(bank.count(7), 1u);

  // Same content under another fingerprint is a distinct training set.
  EXPECT_TRUE(bank.add(8, s));
  EXPECT_EQ(bank.count(8), 1u);
}

TEST(SnapshotBank, ByteCapEvictsOldestOfLeastRecentlyTouchedGroup) {
  // Each 8-double snapshot accounts 8*8 + 16 = 80 bytes; cap at 4 of them.
  rom::SnapshotBank bank(320);
  Rng rng(2);
  EXPECT_TRUE(bank.add(1, random_snapshot(rng, 8)));
  EXPECT_TRUE(bank.add(1, random_snapshot(rng, 8)));
  EXPECT_TRUE(bank.add(2, random_snapshot(rng, 8)));
  EXPECT_TRUE(bank.add(2, random_snapshot(rng, 8)));
  EXPECT_EQ(bank.bytes(), 320u);
  EXPECT_EQ(bank.evictions(), 0u);

  // Touch group 1 so group 2 is the stale one, then overflow the cap.
  (void)bank.snapshots(1);
  EXPECT_TRUE(bank.add(1, random_snapshot(rng, 8)));
  EXPECT_EQ(bank.evictions(), 1u);
  EXPECT_EQ(bank.count(1), 3u);
  EXPECT_EQ(bank.count(2), 1u);  // lost its oldest snapshot
  EXPECT_LE(bank.bytes(), bank.byte_cap());
}

TEST(SnapshotBank, ZeroCapAndOversizedSnapshotsStoreNothing) {
  rom::SnapshotBank off(0);
  Rng rng(3);
  EXPECT_FALSE(off.add(1, random_snapshot(rng, 4)));
  EXPECT_EQ(off.bytes(), 0u);

  rom::SnapshotBank tiny(64);  // smaller than one 8-double snapshot
  EXPECT_FALSE(tiny.add(1, random_snapshot(rng, 8)));
  EXPECT_EQ(tiny.count(1), 0u);
}

TEST(SnapshotBank, ClearReleasesEverything) {
  rom::SnapshotBank bank(1 << 16);
  Rng rng(4);
  ASSERT_TRUE(bank.add(1, random_snapshot(rng, 8)));
  bank.clear();
  EXPECT_EQ(bank.bytes(), 0u);
  EXPECT_EQ(bank.count(1), 0u);
}

// ---- PodBasis -------------------------------------------------------------

TEST(PodBasis, OrthonormalModesSpanTheSnapshots) {
  Rng rng(5);
  const std::size_t n = 24;
  std::vector<Vector> snaps;
  for (int i = 0; i < 6; ++i) snaps.push_back(random_snapshot(rng, n));
  const rom::PodBasis basis = rom::build_pod_basis(snaps, 8);
  ASSERT_EQ(basis.k(), 6u);
  EXPECT_EQ(basis.n(), n);
  EXPECT_EQ(basis.snapshot_count, 6u);
  EXPECT_LT(basis.orthonormality_defect(), 1e-10);
  for (std::size_t j = 0; j + 1 < basis.k(); ++j)
    EXPECT_GE(basis.eigenvalues[j], basis.eigenvalues[j + 1]);

  // Every snapshot reconstructs from its projection: V V^T s == s.
  for (const Vector& s : snaps) {
    const Vector rec = basis.lift(basis.project(s));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec[i], s[i], 1e-8);
  }
}

TEST(PodBasis, RankDeficientSnapshotsTruncateCleanly) {
  Rng rng(6);
  const std::size_t n = 16;
  std::vector<Vector> snaps;
  snaps.push_back(random_snapshot(rng, n));
  snaps.push_back(random_snapshot(rng, n));
  snaps.push_back(snaps[0]);  // duplicate
  Vector combo(n, 0.0);       // linear combination
  updec::la::axpy(2.0, snaps[0], combo);
  updec::la::axpy(-1.0, snaps[1], combo);
  snaps.push_back(combo);

  const rom::PodBasis basis = rom::build_pod_basis(snaps, 8);
  EXPECT_EQ(basis.k(), 2u);  // only two independent directions
  EXPECT_LT(basis.orthonormality_defect(), 1e-10);
}

TEST(PodBasis, MaxKCapsTheRankAndZeroSnapshotsGiveEmptyBasis) {
  Rng rng(7);
  std::vector<Vector> snaps;
  for (int i = 0; i < 5; ++i) snaps.push_back(random_snapshot(rng, 12));
  EXPECT_EQ(rom::build_pod_basis(snaps, 3).k(), 3u);

  const std::vector<Vector> zeros(4, Vector(12, 0.0));
  EXPECT_EQ(rom::build_pod_basis(zeros, 3).k(), 0u);

  EXPECT_THROW(rom::build_pod_basis({}, 3), updec::Error);
  std::vector<Vector> ragged = {Vector(4, 1.0), Vector(5, 1.0)};
  EXPECT_THROW(rom::build_pod_basis(ragged, 3), updec::Error);
}

// ---- pod-basis disk codec -------------------------------------------------

TEST(PodBasisCodec, RoundTripsBitExactly) {
  Rng rng(17);
  std::vector<Vector> snaps;
  for (int i = 0; i < 5; ++i) snaps.push_back(random_snapshot(rng, 10));
  rom::PodBasis basis = rom::build_pod_basis(snaps, 4);
  basis.snapshot_count = 5;

  const std::string payload = serve::encode_pod_basis(basis);
  const rom::PodBasis back = serve::decode_pod_basis(payload);
  ASSERT_EQ(back.n(), basis.n());
  ASSERT_EQ(back.k(), basis.k());
  EXPECT_EQ(back.snapshot_count, 5u);
  for (std::size_t i = 0; i < basis.n(); ++i)
    for (std::size_t j = 0; j < basis.k(); ++j)
      EXPECT_EQ(back.modes(i, j), basis.modes(i, j));  // bit-exact
  for (std::size_t j = 0; j < basis.k(); ++j)
    EXPECT_EQ(back.eigenvalues[j], basis.eigenvalues[j]);
}

TEST(PodBasisCodec, RejectsTruncatedAndNonOrthonormalPayloads) {
  Rng rng(18);
  std::vector<Vector> snaps;
  for (int i = 0; i < 3; ++i) snaps.push_back(random_snapshot(rng, 8));
  const rom::PodBasis basis = rom::build_pod_basis(snaps, 3);
  const std::string payload = serve::encode_pod_basis(basis);

  EXPECT_THROW((void)serve::decode_pod_basis(
                   std::string_view(payload).substr(0, payload.size() - 5)),
               updec::Error);

  rom::PodBasis skewed = basis;
  for (std::size_t i = 0; i < skewed.n(); ++i)
    skewed.modes(i, 0) *= 3.0;  // no longer orthonormal
  EXPECT_THROW((void)serve::decode_pod_basis(serve::encode_pod_basis(skewed)),
               updec::Error);
}

// ---- cache integration ----------------------------------------------------

std::string fresh_cache_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "updec_rom_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// `basis` under the "pod-basis" class for `fingerprint`: served from memory
/// or a verified disk entry when present, else stored (each store counted
/// in `*computes`).
std::shared_ptr<const rom::PodBasis> pod_through_cache(
    serve::OperatorCache& cache, std::uint64_t fingerprint,
    const rom::PodBasis& basis, int* computes) {
  using Sized = serve::OperatorCache::Sized<rom::PodBasis>;
  return cache.get_or_compute_disk<rom::PodBasis>(
      serve::KeyBuilder("pod-basis").add(fingerprint).key(),
      [&] {
        ++*computes;
        auto value = std::make_shared<const rom::PodBasis>(basis);
        return Sized{value, serve::pod_basis_bytes(*value)};
      },
      serve::encode_pod_basis,
      [](std::string_view payload) {
        auto value = std::make_shared<const rom::PodBasis>(
            serve::decode_pod_basis(payload));
        return Sized{value, serve::pod_basis_bytes(*value)};
      },
      "pod-basis");
}

TEST(OperatorCacheRom, StoreAndWarmRestartThroughDisk) {
  const std::string dir = fresh_cache_dir("warm");
  Rng rng(20);
  std::vector<Vector> snaps;
  for (int i = 0; i < 4; ++i) snaps.push_back(random_snapshot(rng, 8));
  rom::PodBasis basis = rom::build_pod_basis(snaps, 3);
  basis.snapshot_count = 4;

  int computes = 0;
  {
    serve::OperatorCache cache(std::size_t{1} << 20, dir);
    (void)pod_through_cache(cache, 99, basis, &computes);
    EXPECT_EQ(computes, 1);
    EXPECT_GE(cache.stats().disk.writes, 1u);
  }
  // A NEW process (fresh cache, same directory) warm-restarts from disk.
  serve::OperatorCache cache(std::size_t{1} << 20, dir);
  const auto loaded = pod_through_cache(cache, 99, basis, &computes);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(computes, 1);  // served, not stored again
  EXPECT_EQ(loaded->k(), basis.k());
  EXPECT_EQ(loaded->snapshot_count, 4u);
  for (std::size_t i = 0; i < basis.n(); ++i)
    for (std::size_t j = 0; j < basis.k(); ++j)
      EXPECT_EQ(loaded->modes(i, j), basis.modes(i, j));
  EXPECT_GE(cache.stats().disk.hits, 1u);
  // Promotion parked it in memory: the next probe is a pure memory hit.
  EXPECT_EQ(pod_through_cache(cache, 99, basis, &computes), loaded);
  const serve::OperatorCache::Stats s = cache.stats();
  const auto it = s.by_class.find("pod-basis");
  ASSERT_NE(it, s.by_class.end());
  EXPECT_EQ(it->second.hits, 1u);
  EXPECT_EQ(it->second.entries, 1u);
  EXPECT_EQ(it->second.bytes, serve::pod_basis_bytes(basis));
  std::filesystem::remove_all(dir);
}

TEST(OperatorCacheRom, CorruptDiskEntryIsRejectedNotServed) {
  const std::string dir = fresh_cache_dir("corrupt");
  Rng rng(21);
  std::vector<Vector> snaps;
  for (int i = 0; i < 4; ++i) snaps.push_back(random_snapshot(rng, 8));
  const rom::PodBasis basis = rom::build_pod_basis(snaps, 3);
  const serve::CacheKey key =
      serve::KeyBuilder("pod-basis").add(std::uint64_t{7}).key();
  std::string path;
  int computes = 0;
  {
    serve::OperatorCache cache(std::size_t{1} << 20, dir);
    (void)pod_through_cache(cache, 7, basis, &computes);
    ASSERT_NE(cache.disk(), nullptr);
    path = cache.disk()->path_for(key);
  }
  {  // flip one payload byte on disk
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-9, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-9, std::ios::end);
    c = static_cast<char>(c ^ 0x5A);
    f.write(&c, 1);
  }
  serve::OperatorCache cache(std::size_t{1} << 20, dir);
  (void)pod_through_cache(cache, 7, basis, &computes);
  EXPECT_EQ(computes, 2);  // the corrupt payload was rebuilt, not served
  EXPECT_GE(cache.stats().disk.corrupt, 1u);
  EXPECT_EQ(cache.stats().disk.hits, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
