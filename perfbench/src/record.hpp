#pragma once
/// \file record.hpp
/// In-memory span recorder of the traced benchmark run.
///
/// The benchmark opens a span around each of its own calls into a library
/// module (the program itself is not instrumented). A span records its name,
/// start, end, the span it nests in and a run id (the pass or client that
/// issued it). Spans stay in memory and are written out when the run ends.
/// Start and end are kept on two clocks: the wall clock, which orders spans
/// across threads, and the opening thread's CPU clock, which every duration
/// below is computed from (see cpu_clock.hpp).
///
/// A span name starts with the layer it times, as `<layer>.<what>`
/// (`rbf.solve.laplace`, `autodiff.backward.channel.dp`); the rollup below
/// groups self time by that prefix.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;         ///< thread CPU seconds at open
  double end = 0.0;           ///< thread CPU seconds at close
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for a root
  std::int64_t run = 0;
  double wall_start = 0.0;    ///< wall seconds since the recorder's epoch
  double wall_end = 0.0;
};

/// Thread-safe span store. Disabled recorders ignore open/close, so the same
/// code path serves the untraced and the traced run.
class Recorder {
 public:
  Recorder() = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span nested under `parent`; returns its index (-1 if disabled).
  /// A span must be closed on the thread that opened it.
  std::int64_t open(std::string name, std::int64_t parent, std::int64_t run);
  void close(std::int64_t id);

  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

 private:
  [[nodiscard]] double wall_now() const;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide recorder used by Scope.
Recorder& recorder();

/// Run id given to spans opened on the calling thread from now on.
void set_thread_run(std::int64_t run);

/// RAII span on the process recorder; nests under the calling thread's
/// innermost open Scope.
class Scope {
 public:
  explicit Scope(std::string name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  std::int64_t id_ = -1;
};

/// Inclusive and self time of all spans sharing one name.
struct Rollup {
  double total = 0.0;
  double self = 0.0;
  std::size_t count = 0;
};

/// Self time of a span is its duration minus the part of its interval that
/// its direct children cover (overlapping children count once). Children
/// run on their parent's thread, so both share one CPU clock.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

[[nodiscard]] std::map<std::string, Rollup> rollup_by_name(
    const std::vector<Span>& spans);

/// Layer of a span name: the text before the first '.'.
[[nodiscard]] std::string_view layer_of(std::string_view name);

/// Self seconds summed per layer.
[[nodiscard]] std::map<std::string, double> self_by_layer(
    const std::vector<Span>& spans);

/// Sum of one field over every rollup entry whose name starts with `prefix`.
[[nodiscard]] Rollup sum_prefix(const std::map<std::string, Rollup>& rollups,
                                std::string_view prefix);

/// Write the spans as a JSON array. Returns false if the file cannot be
/// written.
bool write_spans_json(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
