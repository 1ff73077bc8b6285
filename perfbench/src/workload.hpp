#pragma once
/// \file workload.hpp
/// What every workload receives and returns. A workload drives the library
/// through its public API only, checks each operation's output, and reports
/// the end-to-end metrics of metrics.hpp (untraced run) or its per-layer
/// counts (traced run; main.cpp adds the layer shares from the spans). One
/// operation is one Table 3 row execution or one serve job.

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 20.0;  ///< measured time of one run
  bool trace = false;     ///< traced run: per-layer metrics instead
};

/// Seed used when --seed is not given; the PINN J references hold for it.
inline constexpr std::uint64_t kDefaultSeed = 0;

/// How often `solver` repeats its set-up in an untraced run (setup_s is the
/// median). `pinn` and `serve`, whose set-up is shorter, repeat theirs more
/// often (kScorerSetupRepeats, kServeSetupRepeats).
inline constexpr int kSetupRepeats = 3;

/// Work is fixed per run, sized from --seconds: the same count of passes or
/// jobs every run, so that the sample counts, and memory, do not follow the
/// host's speed. `nominal_seconds` is what one pass takes on the 4-vCPU
/// Xeon virtual machine whose spreads README.md lists.
[[nodiscard]] inline std::size_t passes_for(const Options& options,
                                            double nominal_seconds) {
  const double n = options.seconds / nominal_seconds;
  return n < 1.5 ? 1 : static_cast<std::size_t>(n + 0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< printed as '#' lines before the result

  /// Record that operation `op` failed its check (an operation counts once).
  void fail(const std::string& op, const std::string& why);
  /// A check that does not belong to a single operation.
  void check(bool ok, const std::string& what);

  void add(std::string name, double value, std::string unit);
  /// Note every sample of `name`.
  void note_samples(const std::string& name,
                    const std::vector<double>& samples);
  /// Add the median of `samples` and note every sample.
  void add_median(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit);
  /// A workload-specific figure, printed as a note ("name = value unit").
  void detail(const std::string& name, double value, const std::string& unit);
  void note(std::string line) { notes.push_back(std::move(line)); }

  [[nodiscard]] std::size_t failed() const { return failed_ops.size(); }
  [[nodiscard]] bool correct() const {
    return failed_ops.empty() && failed_checks == 0;
  }

  std::set<std::string> failed_ops;
  std::size_t failed_checks = 0;
};

Outcome run_pinn(const Options& options);
Outcome run_solver(const Options& options);
Outcome run_serve(const Options& options);

/// Peak resident set of the process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
