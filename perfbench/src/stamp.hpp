#pragma once
/// \file stamp.hpp
/// The run stamp: what a benchmark result was measured on and under which
/// thread budget, plus the guards that refuse to time a run whose numbers
/// would describe the host or the build rather than the program.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Busy threads a workload may use: OpenMP team size per thread times the
/// threads that run library work concurrently. Identical on every commit.
struct ThreadBudget {
  std::size_t workers = 1;  ///< threads running library work at once
  std::size_t team = 1;     ///< OpenMP team size inside each of them
  std::size_t clients = 0;  ///< serve clients (block on a report; not busy)
  [[nodiscard]] std::size_t busy() const { return workers * team; }
};

/// Budget of a workload: `pinn` and `solver` run on the main thread with a
/// team of 1; `serve` runs 2 scheduler workers with a team of 1 each.
[[nodiscard]] ThreadBudget thread_budget(std::string_view workload);

/// Online processors (sysconf), at least 1.
[[nodiscard]] std::size_t nproc();

/// OpenMP team size a parallel region would get on the calling thread
/// (1 when the library is built without OpenMP).
[[nodiscard]] int omp_team_here();

/// The same, observed inside a serve::ThreadPool worker: pool workers are
/// std::threads and take their team from the environment, not from the
/// main thread's omp_set_num_threads.
[[nodiscard]] int omp_team_in_worker();

/// Unset every UPDEC_* variable of this process; returns their names.
std::vector<std::string> clear_updec_env();

/// Non-empty reason when this build must not be timed (unoptimised or
/// sanitised).
[[nodiscard]] std::string build_refusal();

/// Aggregate CPU jiffies from /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  bool valid = false;
};
[[nodiscard]] CpuTimes read_cpu_times();

/// Share of host CPU time stolen between two readings (-1 if unknown).
[[nodiscard]] double steal_share(const CpuTimes& begin, const CpuTimes& end);

}  // namespace perfbench
