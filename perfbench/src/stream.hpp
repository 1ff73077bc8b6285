#pragma once
/// \file stream.hpp
/// The `serve` workload's job stream. The seed draws every job; the program
/// receives only the generated scenarios.
///
/// Jobs are Laplace DAL / DP / FD runs over grid families whose popularity
/// follows a Zipf law (the hot head), a cold tail of rarely requested
/// families (quadratic-monomial variants of the same grids), and a minority
/// of refined-cloud DAL families (refine_cycles > 0). The popularity ranking
/// itself is fixed, and every block of kBlockJobs consecutive jobs holds each
/// family's share to within one job, so seeds change which jobs arrive in
/// which order, not how heavy the stream is. (Drawn independently per job,
/// clusters of cold jobs made the cache's rebuild count, and with it the
/// stream's time, differ by a sixth from seed to seed; see README.md.)
///
/// Where the repository has serving inputs, the stream takes its values
/// from them: grids 10-17 from bench/bench_shard.cpp; the DAL / DP / FD
/// split (3 : 1 : 1), the iteration counts (10, 10 and 6) and the jitter
/// from examples/serve_manifest.csv; and the refined families (base grids
/// 12-14, 2 cycles) from the refinement_vs_uniform oracle and
/// bench/bench_refine.
/// The rest is stipulated, not measured traffic: the Zipf exponent 1, the
/// popularity order (smallest grid first), the cold and refined shares
/// of 5 % each, and the block of 200 jobs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/scheduler.hpp"

namespace perfbench {

/// One cache family: jobs of a family share a problem bundle and its
/// factorisation in the scheduler's OperatorCache.
struct Family {
  std::size_t grid_n = 0;
  int poly_degree = 1;
  std::size_t refine_cycles = 0;  ///< > 0: refined-cloud DAL family
  double weight = 0.0;            ///< probability of a job of this family
};

/// The stream's families, most popular first within each kind.
[[nodiscard]] const std::vector<Family>& stream_families();

/// Share of refined-cloud jobs in the stream.
inline constexpr double kRefinedShare = 0.05;
/// Share of cold-tail jobs, spread evenly over the cold families.
inline constexpr double kColdShare = 0.05;
/// Strategy shares of the uniform-grid families (DAL takes the rest).
inline constexpr double kDpShare = 0.2;
inline constexpr double kFdShare = 0.2;
/// Jobs per block of the stream; see block_families.
inline constexpr std::size_t kBlockJobs = 200;

/// Family (index into stream_families()) of each job of block `block` of
/// the stream of `seed`, in arrival order: each family of weight w fills
/// floor or ceil of w * kBlockJobs slots, in a seeded order.
[[nodiscard]] std::vector<std::size_t> block_families(std::uint64_t seed,
                                                      std::size_t block);

/// Job `index` of the stream of `seed`. Pure: the same (seed, index) always
/// gives the same scenario, whatever else was generated.
[[nodiscard]] updec::serve::Scenario stream_job(std::uint64_t seed,
                                                std::size_t index);

/// The first `count` jobs of the stream of `seed`.
[[nodiscard]] std::vector<updec::serve::Scenario> make_stream(
    std::uint64_t seed, std::size_t count);

/// Index into stream_families() of a scenario's family.
[[nodiscard]] std::size_t family_of(const updec::serve::Scenario& job);

/// 64-bit mix of two values (splitmix64 finaliser); the benchmark derives
/// every per-pass and per-job seed with it.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

}  // namespace perfbench
