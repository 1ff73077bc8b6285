#pragma once
/// \file metrics.hpp
/// \brief Process-wide metrics registry: counters, gauges, histograms and
///        trace-span aggregates, with JSON export for the bench trajectory.
///
/// Every layer of the stack reports into one global registry so a single
/// `dump_json()` captures a run end to end: solver escalation counts from
/// `la/`, assembly/factorisation spans from `rbf/`, tape growth from
/// `autodiff/`, and per-outer-iteration costs from `control/`. The bench
/// binaries write the dump as `BENCH_<name>.json` next to their CSVs; the
/// committed `bench/baselines/BENCH_baseline.json` is the perf trajectory
/// future optimisation PRs must beat.
///
/// Overhead discipline (mirrors util/faultinject.hpp):
///  * disabled at runtime (the default), every instrumentation macro is one
///    relaxed atomic load;
///  * compiled out (`-DUPDEC_METRICS=OFF`, which defines
///    UPDEC_DISABLE_METRICS), the macros vanish entirely;
///  * enabled, updates take a mutex on the shared registry -- fine for the
///    per-solve / per-iteration granularity instrumented here, not meant
///    for per-flop counters.
///
/// Instrumentation sites use the macros, never the functions directly:
///
///   UPDEC_METRIC_ADD("pde/laplace_fd.solves", k);
///   UPDEC_METRIC_GAUGE_MAX("autodiff/tape.peak_bytes", tape.memory_bytes());
///   UPDEC_METRIC_OBSERVE("control/driver.iteration_seconds", dt);
///
/// RAII wall-clock spans live in util/trace.hpp (UPDEC_TRACE_SCOPE) and
/// aggregate into this registry via record_span().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace updec::metrics {

namespace detail {
/// Global fast-path switch; instrumentation is a no-op while false.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

#if defined(UPDEC_DISABLE_METRICS)
constexpr bool enabled() { return false; }
#else
/// True iff the registry is collecting. One relaxed atomic load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
#endif

/// Turn collection on/off at runtime (the registry contents survive a
/// disable; reset() clears them). No-op when compiled out.
void set_enabled(bool on);

/// Honour the environment: UPDEC_METRICS=1/on/true enables collection, and
/// a non-empty UPDEC_METRICS_OUT implies it (the dump path is useless
/// without data). Runs automatically at program start; exposed for tests.
void init_from_env();

/// Drop every counter/gauge/histogram/span (keeps the enabled flag).
void reset();

// ---- counters (monotonic, summed across threads) -------------------------
void counter_add(const char* name, std::uint64_t delta = 1);
[[nodiscard]] std::uint64_t counter_value(const std::string& name);

/// One (name, value) counter pair of a registry snapshot.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

/// Consistent snapshot of every counter, sorted by name. This is the
/// cross-process currency of the sharded serving tier: each worker process
/// snapshots its own registry, ships it over the wire, and the parent merges
/// the deltas (serve::ShardPool) so the atexit JSON dump stays truthful even
/// though the work ran in forked children.
[[nodiscard]] std::vector<CounterSample> counters_snapshot();

// ---- gauges (last-write or running-max semantics per call site) ----------
void gauge_set(const char* name, double value);
/// Keep the maximum of the current and supplied value (peak tracking).
void gauge_max(const char* name, double value);
[[nodiscard]] double gauge_value(const std::string& name);

// ---- histograms ----------------------------------------------------------

/// Record one sample. count/sum/min/max are always exact; percentiles are
/// computed from retained samples, which are thinned 2:1 whenever they
/// exceed an internal cap (so long runs stay bounded at the cost of
/// slightly coarser p50/p95).
void observe(const char* name, double value);

struct HistogramStats {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
};
[[nodiscard]] HistogramStats histogram_stats(const std::string& name);

// ---- trace spans (fed by util/trace.hpp) ---------------------------------

/// Aggregate one completed span occurrence. `self_seconds` excludes time
/// spent in nested spans, so a flame-graph style "where does the time
/// actually go" read falls out of the dump directly.
void record_span(const char* name, double total_seconds, double self_seconds);

struct SpanStats {
  std::size_t count = 0;
  double total_seconds = 0.0;  ///< inclusive wall-clock, summed
  double self_seconds = 0.0;   ///< exclusive wall-clock, summed
  double min_seconds = 0.0;    ///< fastest single occurrence (inclusive)
  double max_seconds = 0.0;    ///< slowest single occurrence (inclusive)
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
};
[[nodiscard]] SpanStats span_stats(const std::string& name);

// ---- labels (free-form run metadata carried into the dump) ---------------
void set_label(const std::string& key, const std::string& value);

// ---- pre-dump hooks (quiesce producers before a snapshot) ----------------

/// Callback run before a file/env dump takes its registry snapshot. Used by
/// components that own worker threads (serve::ThreadPool) to drain in-flight
/// work, so the atexit JSON dump never races live producers and the emitted
/// counters are final. Hooks run outside the registry mutex and may
/// themselves record metrics.
using PredumpHook = std::function<void()>;

/// Register a hook; returns a token for unregister_predump_hook(). Hooks run
/// in registration order. Owners with shorter lifetimes than the process
/// MUST unregister in their destructor (C++ guarantees atexit handlers and
/// static destructors interleave LIFO, so a pool that unregisters on
/// destruction is never called back after death).
std::size_t register_predump_hook(PredumpHook hook);
void unregister_predump_hook(std::size_t token);

/// Run all registered hooks (idempotent per call site; exposed for tests).
/// Called automatically by dump_json_file() and dump_to_env_path().
void run_predump_hooks();

// ---- JSON export ---------------------------------------------------------

/// Serialise the registry. Schema (stable; see docs/OBSERVABILITY.md):
///   { "schema": "updec-metrics-v1",
///     "labels":     { "<key>": "<value>", ... },
///     "process":    { "peak_rss_bytes": N, "current_rss_bytes": N },
///     "counters":   { "<name>": N, ... },
///     "gauges":     { "<name>": x, ... },
///     "histograms": { "<name>": {count,sum,min,max,mean,p50,p95}, ... },
///     "spans":      { "<name>": {count,total_seconds,self_seconds,
///                                min_seconds,max_seconds,p50_seconds,
///                                p95_seconds}, ... } }
void dump_json(std::ostream& os);
[[nodiscard]] std::string dump_json();

/// Write the dump to `path`, creating its parent directories first; returns
/// false (and logs at warn) on I/O error.
bool dump_json_file(const std::string& path);

/// Write the dump to $UPDEC_METRICS_OUT if set; returns true iff written.
bool dump_to_env_path();

}  // namespace updec::metrics

#if defined(UPDEC_DISABLE_METRICS)
#define UPDEC_METRIC_ADD(name, delta) ((void)0)
#define UPDEC_METRIC_GAUGE_SET(name, value) ((void)0)
#define UPDEC_METRIC_GAUGE_MAX(name, value) ((void)0)
#define UPDEC_METRIC_OBSERVE(name, value) ((void)0)
#else
/// Increment counter `name` by `delta` (no-op while metrics are disabled).
#define UPDEC_METRIC_ADD(name, delta)                        \
  (::updec::metrics::enabled()                               \
       ? ::updec::metrics::counter_add((name), (delta))      \
       : (void)0)
/// Set gauge `name` to `value`.
#define UPDEC_METRIC_GAUGE_SET(name, value)                  \
  (::updec::metrics::enabled()                               \
       ? ::updec::metrics::gauge_set((name), (value))        \
       : (void)0)
/// Raise gauge `name` to at least `value` (peak tracking).
#define UPDEC_METRIC_GAUGE_MAX(name, value)                  \
  (::updec::metrics::enabled()                               \
       ? ::updec::metrics::gauge_max((name), (value))        \
       : (void)0)
/// Record one histogram sample under `name`.
#define UPDEC_METRIC_OBSERVE(name, value)                    \
  (::updec::metrics::enabled()                               \
       ? ::updec::metrics::observe((name), (value))          \
       : (void)0)
#endif
