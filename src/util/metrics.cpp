#include "util/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>
#include <system_error>

#include "util/log.hpp"
#include "util/memory.hpp"

namespace updec::metrics {

namespace {

/// Percentile sample cap per histogram/span; beyond it samples are thinned
/// 2:1 (count/sum/min/max stay exact, percentiles become approximate).
constexpr std::size_t kMaxSamples = 1 << 16;

struct Histogram {
  std::size_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<double> samples;

  void observe(double v) {
    if (count == 0) {
      min = max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
    samples.push_back(v);
    if (samples.size() > kMaxSamples) {
      // Keep every second sample; order is irrelevant for percentiles.
      std::size_t w = 0;
      for (std::size_t r = 0; r < samples.size(); r += 2) samples[w++] = samples[r];
      samples.resize(w);
    }
  }
};

struct Span {
  Histogram totals;            ///< inclusive per-occurrence seconds
  double self_seconds = 0.0;   ///< exclusive seconds, summed
};

/// Registry state behind one mutex. Maps are ordered so the JSON dump is
/// deterministic (byte-identical across runs of the same workload).
struct Registry {
  std::mutex mutex;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  std::map<std::string, Span> spans;
  std::map<std::string, std::string> labels;
};

Registry& registry() {
  // Intentionally leaked: the atexit dump handler (init_from_env) may run
  // after function-local statics are destroyed, so the registry must never
  // be destroyed at all.
  static Registry* r = new Registry();
  return *r;
}

/// Percentile by nth_element on a scratch copy (q in [0, 1]).
double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

HistogramStats stats_of(const Histogram& h) {
  HistogramStats s;
  s.count = h.count;
  s.sum = h.sum;
  s.min = h.min;
  s.max = h.max;
  s.mean = h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
  s.p50 = percentile(h.samples, 0.50);
  s.p95 = percentile(h.samples, 0.95);
  return s;
}

bool env_truthy(const char* value) {
  if (value == nullptr) return false;
  std::string v(value);
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return !v.empty() && v != "0" && v != "off" && v != "false" && v != "no";
}

/// JSON string escaping for metric names and label values.
void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Doubles as JSON numbers: finite values in shortest round-trip-ish form,
/// non-finite mapped to null (JSON has no NaN/Inf).
void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  std::ostringstream tmp;
  tmp.precision(17);
  tmp << v;
  os << tmp.str();
}

struct Registrar {
  Registrar() { init_from_env(); }
};
Registrar g_registrar;  // arm from the environment at program start

/// Pre-dump hooks behind their own mutex (never held while a hook runs, and
/// disjoint from the registry mutex so hooks may record metrics). Leaked for
/// the same atexit-ordering reason as the registry.
struct HookTable {
  std::mutex mutex;
  std::size_t next_token = 1;
  std::map<std::size_t, PredumpHook> hooks;
};

HookTable& hook_table() {
  static HookTable* t = new HookTable();
  return *t;
}

}  // namespace

void set_enabled(bool on) {
#if defined(UPDEC_DISABLE_METRICS)
  (void)on;
#else
  detail::g_enabled.store(on, std::memory_order_relaxed);
#endif
}

void init_from_env() {
  if (env_truthy(std::getenv("UPDEC_METRICS"))) set_enabled(true);
  const char* out = std::getenv("UPDEC_METRICS_OUT");
  if (out != nullptr && out[0] != '\0') {
    set_enabled(true);
    // Any binary honours UPDEC_METRICS_OUT: dump on normal exit. The bench
    // harness dumps earlier via MetricsSession; rewriting the same file
    // with the final registry state is harmless.
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit([] { dump_to_env_path(); });
    }
  }
}

void reset() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters.clear();
  r.gauges.clear();
  r.histograms.clear();
  r.spans.clear();
  r.labels.clear();
}

void counter_add(const char* name, std::uint64_t delta) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.counters[name] += delta;
}

std::uint64_t counter_value(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.counters.find(name);
  return it != r.counters.end() ? it->second : 0;
}

std::vector<CounterSample> counters_snapshot() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<CounterSample> out;
  out.reserve(r.counters.size());
  for (const auto& [name, value] : r.counters) out.push_back({name, value});
  return out;  // map iteration order: already sorted by name
}

void gauge_set(const char* name, double value) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.gauges[name] = value;
}

void gauge_max(const char* name, double value) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto [it, inserted] = r.gauges.try_emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

double gauge_value(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.gauges.find(name);
  return it != r.gauges.end() ? it->second : 0.0;
}

void observe(const char* name, double value) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.histograms[name].observe(value);
}

HistogramStats histogram_stats(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.histograms.find(name);
  return it != r.histograms.end() ? stats_of(it->second) : HistogramStats{};
}

void record_span(const char* name, double total_seconds, double self_seconds) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  Span& s = r.spans[name];
  s.totals.observe(total_seconds);
  s.self_seconds += self_seconds;
}

SpanStats span_stats(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.spans.find(name);
  SpanStats out;
  if (it == r.spans.end()) return out;
  const HistogramStats h = stats_of(it->second.totals);
  out.count = h.count;
  out.total_seconds = h.sum;
  out.self_seconds = it->second.self_seconds;
  out.min_seconds = h.min;
  out.max_seconds = h.max;
  out.p50_seconds = h.p50;
  out.p95_seconds = h.p95;
  return out;
}

void set_label(const std::string& key, const std::string& value) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  r.labels[key] = value;
}

std::size_t register_predump_hook(PredumpHook hook) {
  HookTable& t = hook_table();
  const std::lock_guard<std::mutex> lock(t.mutex);
  const std::size_t token = t.next_token++;
  t.hooks.emplace(token, std::move(hook));
  return token;
}

void unregister_predump_hook(std::size_t token) {
  HookTable& t = hook_table();
  const std::lock_guard<std::mutex> lock(t.mutex);
  t.hooks.erase(token);
}

void run_predump_hooks() {
  // Copy out under the lock, run without it: hooks drain worker pools and
  // may take arbitrarily long or record metrics themselves.
  std::vector<PredumpHook> hooks;
  {
    HookTable& t = hook_table();
    const std::lock_guard<std::mutex> lock(t.mutex);
    hooks.reserve(t.hooks.size());
    for (const auto& [token, hook] : t.hooks) hooks.push_back(hook);
  }
  for (const auto& hook : hooks)
    if (hook) hook();
}

void dump_json(std::ostream& os) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);

  os << "{\n  \"schema\": \"updec-metrics-v1\",\n";

  os << "  \"labels\": {";
  bool first = true;
  for (const auto& [k, v] : r.labels) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, k);
    os << ": ";
    write_json_string(os, v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"process\": {\n    \"peak_rss_bytes\": " << peak_rss_bytes()
     << ",\n    \"current_rss_bytes\": " << current_rss_bytes() << "\n  },\n";

  os << "  \"counters\": {";
  first = true;
  for (const auto& [k, v] : r.counters) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, k);
    os << ": " << v;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [k, v] : r.gauges) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, k);
    os << ": ";
    write_json_number(os, v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  const auto write_hist = [&os](const HistogramStats& h, const char* unit) {
    const std::string suffix = unit;
    os << "{\"count\": " << h.count;
    os << ", \"sum" << suffix << "\": ";
    write_json_number(os, h.sum);
    os << ", \"min" << suffix << "\": ";
    write_json_number(os, h.min);
    os << ", \"max" << suffix << "\": ";
    write_json_number(os, h.max);
    os << ", \"mean" << suffix << "\": ";
    write_json_number(os, h.mean);
    os << ", \"p50" << suffix << "\": ";
    write_json_number(os, h.p50);
    os << ", \"p95" << suffix << "\": ";
    write_json_number(os, h.p95);
  };

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [k, v] : r.histograms) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, k);
    os << ": ";
    write_hist(stats_of(v), "");
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"spans\": {";
  first = true;
  for (const auto& [k, v] : r.spans) {
    os << (first ? "\n    " : ",\n    ");
    write_json_string(os, k);
    os << ": ";
    HistogramStats h = stats_of(v.totals);
    os << "{\"count\": " << h.count << ", \"total_seconds\": ";
    write_json_number(os, h.sum);
    os << ", \"self_seconds\": ";
    write_json_number(os, v.self_seconds);
    os << ", \"min_seconds\": ";
    write_json_number(os, h.min);
    os << ", \"max_seconds\": ";
    write_json_number(os, h.max);
    os << ", \"p50_seconds\": ";
    write_json_number(os, h.p50);
    os << ", \"p95_seconds\": ";
    write_json_number(os, h.p95);
    os << "}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

std::string dump_json() {
  std::ostringstream os;
  dump_json(os);
  return os.str();
}

bool dump_json_file(const std::string& path) {
  // Quiesce producer threads (worker pools) before snapshotting, so the
  // counters written out are final rather than a torn mid-flight view.
  run_predump_hooks();
  // A bench's --out directory may not exist yet (only series writers used
  // to create it), so make the parent here rather than drop the dump.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
      log_warn() << "metrics: cannot create " << parent.string() << " ("
                 << ec.message() << ")";
      return false;
    }
  }
  // Write-to-tmp + rename (the driver-checkpoint discipline): a crash or a
  // full disk mid-dump must never leave a truncated JSON at `path`, where
  // it would poison the bench-metrics CI diff on the next run.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os.good()) {
      log_warn() << "metrics: cannot open " << tmp << " for writing";
      return false;
    }
    dump_json(os);
    os.flush();
    if (!os.good()) {
      log_warn() << "metrics: write to " << tmp << " failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    log_warn() << "metrics: cannot rename " << tmp << " -> " << path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool dump_to_env_path() {
  const char* out = std::getenv("UPDEC_METRICS_OUT");
  if (out == nullptr || out[0] == '\0') return false;
  return dump_json_file(out);
}

}  // namespace updec::metrics
