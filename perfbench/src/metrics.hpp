#pragma once
/// \file metrics.hpp
/// The metrics of a run's result line. Every workload reports the same
/// names, so that a result reads as "<metric> on <workload>": an untraced
/// run the end-to-end metrics, a traced run the per-layer metrics.
/// BENCHMARK.json lists the same names and units (`run.py --selftest`
/// compares the two), and a run whose result would miss one, repeat one or
/// add another exits with an error instead of printing it.
///
/// Workload-specific figures (each Table 3 row's time, each row's tape,
/// the serve latency percentiles) are printed as '#' notes before the
/// result; they are not part of it.

#include <array>
#include <string_view>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

inline constexpr std::array<MetricSpec, 3> kEndToEnd = {{
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"peak_rss_mib", "MiB"},
}};

/// Layers (span-name prefixes) whose share of the traced run's span time is
/// reported as `<layer>.share`; a layer the workload does not reach has
/// share 0.
inline constexpr std::array<std::string_view, 10> kLayers = {
    "pointcloud", "rbf",     "la",     "autodiff", "pde",
    "nn",         "optim",   "control", "refine",  "serve"};

/// A per-layer count and the workloads whose traced run measures it. The
/// others report 0: their traced run does not reach that layer.
struct LayerCount {
  std::string_view name;
  std::string_view unit;
  std::string_view measured_on;  ///< space-separated workload names
};

inline constexpr std::array<LayerCount, 11> kLayerCounts = {{
    {"autodiff.tape_nodes", "count", "pinn solver"},
    {"autodiff.tape_mib", "MiB", "pinn solver"},
    {"la.krylov_iters", "count", "solver"},
    {"la.fallback_share", "ratio", "solver"},
    {"pde.steps", "count", "solver"},
    {"control.recoveries", "count", "solver"},
    {"serve.cache_hit_ratio", "ratio", "serve"},
    {"serve.builds", "count", "serve"},
    {"serve.evictions", "count", "serve"},
    {"serve.inflight_waits", "count", "serve"},
    {"serve.retries", "count", "serve"},
}};

/// Whether `workload` is one of the space-separated names in `list`.
[[nodiscard]] constexpr bool measured_on(std::string_view list,
                                         std::string_view workload) {
  while (!list.empty()) {
    const std::size_t end = list.find(' ');
    if (list.substr(0, end) == workload) return true;
    if (end == std::string_view::npos) break;
    list.remove_prefix(end + 1);
  }
  return false;
}

}  // namespace perfbench
