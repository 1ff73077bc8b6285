#include "stream.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

namespace serve = updec::serve;

namespace {

constexpr double kZipfExponent = 1.0;
constexpr std::size_t kIterations = 10;  // DAL and DP
constexpr std::size_t kFdIterations = 6;
constexpr double kJitter = 0.05;

/// Zipf weights for `ranks` families, scaled to sum to `mass`.
std::vector<double> zipf(std::size_t ranks, double mass) {
  std::vector<double> w(ranks);
  double sum = 0.0;
  for (std::size_t r = 0; r < ranks; ++r)
    sum += w[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  for (double& x : w) x *= mass / sum;
  return w;
}

std::vector<Family> build_families() {
  // Hot head: uniform grids by popularity. Their bundles fit the serve
  // workload's cache together, so they are read, not rebuilt.
  const std::size_t hot[] = {10, 11, 12, 13, 14, 15, 16, 17};
  // Refined clouds: (base grid, adaptation cycles).
  const std::size_t refined[][2] = {{12, 2}, {13, 2}, {14, 2}};
  std::vector<Family> out;
  const std::vector<double> w =
      zipf(std::size(hot), 1.0 - kRefinedShare - kColdShare);
  for (std::size_t r = 0; r < std::size(hot); ++r)
    out.push_back({hot[r], 1, 0, w[r]});
  // Cold tail: the same grids with quadratic monomials. Each is requested
  // rarely enough that the cache has often evicted it before it returns,
  // so its jobs rebuild bundle and LU.
  for (const std::size_t g : hot)
    out.push_back({g, 2, 0, kColdShare / static_cast<double>(std::size(hot))});
  const std::vector<double> wr = zipf(std::size(refined), kRefinedShare);
  for (std::size_t r = 0; r < std::size(refined); ++r)
    out.push_back({refined[r][0], 1, refined[r][1], wr[r]});
  return out;
}

}  // namespace

const std::vector<Family>& stream_families() {
  static const std::vector<Family> families = build_families();
  return families;
}

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> block_families(std::uint64_t seed,
                                        std::size_t block) {
  // Systematic sampling with a seeded start: slot i takes the family whose
  // cumulative-weight interval holds (i + start) / kBlockJobs, so a family
  // of weight w gets floor or ceil of w * kBlockJobs slots and exactly its
  // share on average; a seeded shuffle then orders the block.
  updec::Rng rng(mix_seed(~seed, block));
  const std::vector<Family>& families = stream_families();
  const double start = rng.uniform();
  std::vector<std::size_t> slots(kBlockJobs);
  std::size_t f = 0;
  double upper = families[0].weight;
  for (std::size_t i = 0; i < kBlockJobs; ++i) {
    const double u =
        (static_cast<double>(i) + start) / static_cast<double>(kBlockJobs);
    while (f + 1 < families.size() && u >= upper) upper += families[++f].weight;
    slots[i] = f;
  }
  for (std::size_t i = kBlockJobs - 1; i > 0; --i)
    std::swap(slots[i], slots[rng.uniform_index(i + 1)]);
  return slots;
}

serve::Scenario stream_job(std::uint64_t seed, std::size_t index) {
  const Family& family = stream_families()[block_families(
      seed, index / kBlockJobs)[index % kBlockJobs]];
  updec::Rng rng(mix_seed(seed, index));

  serve::Scenario sc;
  sc.problem = serve::ProblemKind::kLaplace;
  sc.grid_n = family.grid_n;
  sc.poly_degree = family.poly_degree;
  sc.refine_cycles = family.refine_cycles;
  sc.iterations = kIterations;
  sc.strategy = serve::Strategy::kDal;
  if (family.refine_cycles == 0) {
    const double s = rng.uniform();
    if (s < kDpShare) {
      sc.strategy = serve::Strategy::kDp;
    } else if (s < kDpShare + kFdShare) {
      sc.strategy = serve::Strategy::kFd;
      sc.iterations = kFdIterations;
    }
  }
  // Distinct trajectories within a family: a per-job jitter seed.
  sc.seed = rng.next_u64() | 1u;
  sc.control_jitter = kJitter;
  sc.id = "job-" + std::to_string(index);
  return sc;
}

std::vector<serve::Scenario> make_stream(std::uint64_t seed,
                                         std::size_t count) {
  std::vector<serve::Scenario> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) jobs.push_back(stream_job(seed, i));
  return jobs;
}

std::size_t family_of(const serve::Scenario& job) {
  const std::vector<Family>& families = stream_families();
  for (std::size_t f = 0; f < families.size(); ++f)
    if (families[f].grid_n == job.grid_n &&
        families[f].poly_degree == job.poly_degree &&
        families[f].refine_cycles == job.refine_cycles)
      return f;
  return families.size();
}

}  // namespace perfbench
