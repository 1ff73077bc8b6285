/// updec_perfbench: runs one benchmark workload and prints its result.
///
///   updec_perfbench --workload pinn|solver|serve --seed N --seconds S
///                   --trace 0|1 [--revision REV] [--spans PATH]
///                   [--cleared-env NAMES]
///   updec_perfbench --list-metrics
///
/// Lines starting with '#' describe the run (notes, failures, the run
/// stamp); the last line is the JSON result, holding exactly the metrics of
/// metrics.hpp. `--list-metrics` prints those as JSON. Normally started
/// through perfbench/run.py, which builds this binary and pins the thread
/// budget.

#include <sys/personality.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "metrics.hpp"
#include "record.hpp"
#include "stamp.hpp"
#include "stats.hpp"
#include "util/memory.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {

void Outcome::fail(const std::string& op, const std::string& why) {
  if (failed_ops.insert(op).second) note("FAILED " + op + ": " + why);
}

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_checks;
  note("FAILED check: " + what);
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Outcome::note_samples(const std::string& name,
                           const std::vector<double>& samples) {
  std::string line = name + " samples:";
  char buf[32];
  for (const double v : samples) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    line += buf;
  }
  note(line);
}

void Outcome::add_median(const std::string& name,
                         const std::vector<double>& samples,
                         const std::string& unit) {
  note_samples(name, samples);
  add(name, median(samples), unit);
}

void Outcome::detail(const std::string& name, double value,
                     const std::string& unit) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " = %.6g ", value);
  note(name + buf + unit);
}

double peak_rss_mib() {
  return static_cast<double>(updec::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The result's metrics in BENCHMARK.json's order: the end-to-end metrics,
/// or the layer shares, trace.spanned_s, trace.overhead and the layer
/// counts.
std::vector<MetricSpec> expected_metrics(bool trace) {
  if (!trace) return {kEndToEnd.begin(), kEndToEnd.end()};
  static const std::vector<std::string> share_names = [] {
    std::vector<std::string> names;
    for (const std::string_view layer : kLayers)
      names.push_back(std::string(layer) + ".share");
    return names;
  }();
  std::vector<MetricSpec> specs;
  for (const std::string& name : share_names) specs.push_back({name, "ratio"});
  specs.push_back({"trace.spanned_s", "s"});
  specs.push_back({"trace.overhead", "ratio"});
  for (const LayerCount& c : kLayerCounts) specs.push_back({c.name, c.unit});
  return specs;
}

std::string metrics_json() {
  std::string out = "{";
  for (const bool trace : {false, true}) {
    out += trace ? ", \"per_layer\": [" : "\"end_to_end\": [";
    const std::vector<MetricSpec> specs = expected_metrics(trace);
    for (std::size_t i = 0; i < specs.size(); ++i)
      out += (i ? ", " : "") + std::string("{\"name\": \"") +
             std::string(specs[i].name) + "\", \"unit\": \"" +
             std::string(specs[i].unit) + "\"}";
    out += "]";
  }
  return out + "}";
}

/// Per-layer figures every traced run has: each layer's share of the CPU
/// time the spans cover (self time over the sum of self times), that sum,
/// and 0 for each count of a layer this workload's traced run does not
/// reach.
void add_layer_metrics(Outcome& out, const std::string& workload,
                       const std::vector<Span>& spans) {
  const std::map<std::string, double> by_layer = self_by_layer(spans);
  double total = 0.0;
  for (const auto& [layer, seconds] : by_layer) {
    total += seconds;
    bool known = false;
    for (const std::string_view l : kLayers) known = known || l == layer;
    out.check(known, "span layer '" + layer + "' is not one of metrics.hpp");
  }
  out.check(total > 0.0, "the traced run recorded no span time");
  for (const std::string_view layer : kLayers) {
    const auto it = by_layer.find(std::string(layer));
    const double self = it == by_layer.end() ? 0.0 : it->second;
    out.add(std::string(layer) + ".share", total > 0.0 ? self / total : 0.0,
            "ratio");
  }
  out.add("trace.spanned_s", total, "s");
  for (const LayerCount& c : kLayerCounts)
    if (!measured_on(c.measured_on, workload))
      out.add(std::string(c.name), 0.0, std::string(c.unit));
}

/// Puts the metrics in the order of `expected`; returns an error message
/// when a metric is missing, repeated, extra or in another unit.
std::string order_metrics(std::vector<Metric>& metrics,
                          const std::vector<MetricSpec>& expected) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : expected) {
    std::size_t found = 0;
    for (const Metric& m : metrics) {
      if (m.name != spec.name) continue;
      if (m.unit != spec.unit)
        return m.name + " has unit " + m.unit + ", expected " +
               std::string(spec.unit);
      ordered.push_back(m);
      ++found;
    }
    if (found != 1)
      return std::string(spec.name) + " reported " + std::to_string(found) +
             " times";
  }
  if (ordered.size() != metrics.size())
    return std::to_string(metrics.size() - ordered.size()) +
           " metric(s) outside metrics.hpp";
  metrics = std::move(ordered);
  return "";
}

int usage(const char* why) {
  std::cerr << "updec_perfbench: " << why
            << "\nusage: updec_perfbench --workload pinn|solver|serve "
               "--seed N --seconds S --trace 0|1 [--revision REV] "
               "[--spans PATH] [--cleared-env NAMES]\n"
               "       updec_perfbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The library reads its UPDEC_* knobs lazily; clear them before any call
  // so every knob stays at its program default.
  std::vector<std::string> cleared = clear_updec_env();

  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    std::cout << metrics_json() << std::endl;
    return 0;
  }

  Options options;
  std::string revision = "unknown";
  std::string spans_path;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = value == "1";
      else if (flag == "--revision") revision = value;
      else if (flag == "--spans") spans_path = value;
      else if (flag == "--cleared-env") cleared.push_back(value);
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload != "pinn" && options.workload != "solver" &&
      options.workload != "serve")
    return usage("--workload must be pinn, solver or serve");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  if (const std::string why = build_refusal(); !why.empty()) {
    std::cerr << "updec_perfbench: refusing to time this build: " << why
              << "\n";
    return 3;
  }
  const ThreadBudget budget = thread_budget(options.workload);
  const int team_main = omp_team_here();
  const int team_worker = omp_team_in_worker();
  if (team_main != static_cast<int>(budget.team) ||
      team_worker != static_cast<int>(budget.team)) {
    std::cerr << "updec_perfbench: OpenMP team is " << team_main
              << " on main and " << team_worker
              << " in a pool worker; the thread budget needs "
              << budget.team << " (set OMP_NUM_THREADS=1)\n";
    return 3;
  }
  if (budget.busy() > nproc()) {
    std::cerr << "updec_perfbench: the " << options.workload
              << " workload needs " << budget.busy() << " busy threads but "
              << nproc() << " processor(s) are online\n";
    return 3;
  }

  const CpuTimes cpu_begin = read_cpu_times();
  const updec::Stopwatch wall;
  Outcome out;
  try {
    if (options.workload == "pinn") out = run_pinn(options);
    else if (options.workload == "solver") out = run_solver(options);
    else out = run_serve(options);
  } catch (const std::exception& e) {
    std::cerr << "updec_perfbench: " << options.workload
              << " workload aborted: " << e.what() << "\n";
    return 1;
  }
  const double steal = steal_share(cpu_begin, read_cpu_times());

  if (options.trace) {
    const std::vector<Span> spans = recorder().spans();
    std::string line = "self seconds by layer:";
    char buf[64];
    for (const auto& [layer, seconds] : self_by_layer(spans)) {
      std::snprintf(buf, sizeof buf, " %s %.6g", layer.c_str(), seconds);
      line += buf;
    }
    out.note(line);
    if (!spans_path.empty() && !write_spans_json(spans_path, spans))
      out.note("could not write spans to " + spans_path);
    add_layer_metrics(out, options.workload, spans);
  }
  if (const std::string why =
          order_metrics(out.metrics, expected_metrics(options.trace));
      !why.empty()) {
    std::cerr << "updec_perfbench: the " << options.workload
              << " workload's result does not match metrics.hpp: " << why
              << "\n";
    return 4;
  }
  for (const Metric& m : out.metrics)
    if (!std::isfinite(m.value)) out.check(false, m.name + " is not finite");

  std::string cleared_names;
  for (const std::string& name : cleared)
    cleared_names += (cleared_names.empty() ? "" : ",") + name;
  std::cout << "# stamp {\"workload\": " << json_string(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << json_number(options.seconds)
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"wall_s\": " << json_number(wall.seconds())
            << ", \"omp_team_main\": " << team_main
            << ", \"omp_team_worker\": " << team_worker
            << ", \"workers\": " << budget.workers
            << ", \"clients\": " << budget.clients
            << ", \"nproc\": " << nproc()
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"revision\": " << json_string(revision)
            << ", \"steal_share\": " << json_number(steal)
            << ", \"aslr\": "
            << ((personality(0xffffffff) & ADDR_NO_RANDOMIZE) ? "false"
                                                                : "true")
            << ", \"updec_env_cleared\": true"
            << ", \"updec_env_found\": " << json_string(cleared_names)
            << "}\n";
  for (const std::string& line : out.notes) std::cout << "# " << line << "\n";

  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << std::max<std::size_t>(1, out.attempted)
            << ", \"failed\": " << out.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
              << json_number(std::isfinite(m.value) ? m.value : 0.0)
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
