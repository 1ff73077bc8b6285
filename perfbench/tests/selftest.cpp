/// Self-tests of the benchmark's own machinery: the percentile rule, the
/// self-time rollup of nested spans, the serve stream's determinism and
/// mix, the thread budget and the metric table. Run with `python3
/// perfbench/run.py --selftest`, which also compares the metric table with
/// BENCHMARK.json (or ctest in the benchmark's build directory).

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "record.hpp"
#include "stamp.hpp"
#include "stats.hpp"
#include "stream.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::printf("FAIL: %s\n", what.c_str());
}

bool near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

using namespace perfbench;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(percentile(v, 50.0) == 500.0, "p50 of 1..1000 is 500");
  expect(percentile(v, 99.0) == 990.0, "p99 of 1..1000 is 990");
  expect(median(v) == 500.5, "median of 1..1000 is 500.5");
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  expect(percentile_supported(1000, 99.0), "p99 supported by 1000 samples");
  expect(!percentile_supported(999, 99.0), "p99 unsupported by 999 samples");
  expect(highest_supported_percentile(1000) == 99.0, "1000 samples: p99");
  expect(highest_supported_percentile(9999) == 99.0, "9999 samples: p99");
  expect(highest_supported_percentile(10000) == 99.9, "10000 samples: p99.9");
  expect(highest_supported_percentile(100) == 90.0, "100 samples: p90");
  expect(highest_supported_percentile(20) == 50.0, "20 samples: p50");
  expect(highest_supported_percentile(19) == 0.0, "19 samples: nothing");
  expect(percentile({}, 99.0) == 0.0 && median({}) == 0.0, "empty input");
}

void test_self_time_rollup() {
  // root [0,10] with children a [1,4] and b [3,6] (overlapping: they cover
  // [1,6] once), grandchild c [2,3] under a, and a second root d [11,12].
  const std::vector<Span> spans = {{"control.root", 0, 10, -1, 0},
                                   {"rbf.a", 1, 4, 0, 0},
                                   {"la.b", 3, 6, 0, 0},
                                   {"la.c", 2, 3, 1, 0},
                                   {"control.root", 11, 12, -1, 1}};
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 5.0, 1e-12), "root self = 10 - 5 covered");
  expect(near(self[1], 2.0, 1e-12), "a self = 3 - 1");
  expect(near(self[2], 3.0, 1e-12), "b self = its duration");
  expect(near(self[3], 1.0, 1e-12), "leaf self = its duration");
  const auto by_name = rollup_by_name(spans);
  expect(by_name.at("control.root").count == 2, "two root spans");
  expect(near(by_name.at("control.root").total, 11.0, 1e-12), "root total");
  expect(near(by_name.at("control.root").self, 6.0, 1e-12), "root self");
  const auto layers = self_by_layer(spans);
  expect(near(layers.at("la"), 4.0, 1e-12), "la self = b + c");
  expect(near(layers.at("rbf"), 2.0, 1e-12), "rbf self");
  expect(near(sum_prefix(by_name, "la.").total, 4.0, 1e-12), "prefix sum");
  expect(layer_of("autodiff.backward.laplace.dp") == "autodiff", "layer");

  // Live recording: Scope nests on the calling thread, threads apart.
  recorder().clear();
  recorder().set_enabled(true);
  {
    const Scope outer("control.outer");
    { const Scope inner("nn.inner"); }
    std::thread([] {
      set_thread_run(7);
      const Scope other("serve.other");
    }).join();
  }
  recorder().set_enabled(false);
  { const Scope ignored("nn.ignored"); }
  const std::vector<Span> live = recorder().spans();
  expect(live.size() == 3, "disabled recorder drops spans");
  if (live.size() == 3) {
    expect(live[0].parent == -1 && live[1].parent == 0, "inner nests");
    expect(live[2].parent == -1 && live[2].run == 7, "thread spans apart");
    expect(live[0].end >= live[1].end && live[1].end >= live[1].start,
           "span ordering");
  }
  recorder().clear();
}

bool same_job(const updec::serve::Scenario& a,
              const updec::serve::Scenario& b) {
  return a.id == b.id && a.problem == b.problem && a.strategy == b.strategy &&
         a.grid_n == b.grid_n && a.poly_degree == b.poly_degree &&
         a.refine_cycles == b.refine_cycles &&
         a.iterations == b.iterations && a.seed == b.seed &&
         a.control_jitter == b.control_jitter;
}

void test_stream() {
  using updec::serve::Strategy;
  const std::size_t n = 40000;
  const auto a = make_stream(7, n);
  const auto b = make_stream(7, n);
  const auto c = make_stream(8, n);
  bool same = true;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    same = same && same_job(a[i], b[i]);
    differ += !same_job(a[i], c[i]);
  }
  expect(same, "same seed, same stream");
  expect(differ > n / 2, "another seed, another stream");
  expect(same_job(stream_job(7, 12345), a[12345]), "jobs are pure per index");

  const auto& families = stream_families();
  double total = 0.0;
  for (const Family& f : families) total += f.weight;
  expect(near(total, 1.0, 1e-12), "family weights sum to 1");
  std::vector<double> count(families.size(), 0.0);
  double refined = 0.0, cold = 0.0, uniform = 0.0, dp = 0.0, fd = 0.0;
  for (const auto& job : a) {
    const std::size_t f = family_of(job);
    expect(f < families.size(), "every job belongs to a family");
    if (f >= families.size()) return;
    count[f] += 1.0;
    if (job.refine_cycles > 0) {
      refined += 1.0;
      expect(job.strategy == Strategy::kDal, "refined jobs are DAL");
      continue;
    }
    uniform += 1.0;
    cold += job.poly_degree == 2;
    dp += job.strategy == Strategy::kDp;
    fd += job.strategy == Strategy::kFd;
  }
  // Shares within 4 standard errors of their expectation.
  const auto within = [](double hits, double trials, double p) {
    return std::fabs(hits / trials - p) <=
           4.0 * std::sqrt(p * (1.0 - p) / trials);
  };
  for (std::size_t f = 0; f < families.size(); ++f)
    expect(within(count[f], static_cast<double>(n), families[f].weight),
           "family " + std::to_string(f) + " share matches its Zipf weight");
  for (std::size_t f = 1; f < families.size(); ++f)
    if (families[f].refine_cycles == families[f - 1].refine_cycles &&
        families[f].poly_degree == families[f - 1].poly_degree)
      expect(families[f].weight <= families[f - 1].weight,
             "popularity falls with rank");
  for (std::size_t block = 0; block < 5; ++block) {
    std::vector<double> in_block(families.size(), 0.0);
    for (const std::size_t f : block_families(7, block)) in_block[f] += 1.0;
    for (std::size_t f = 0; f < families.size(); ++f) {
      const double expected =
          families[f].weight * static_cast<double>(kBlockJobs);
      expect(in_block[f] >= std::floor(expected) - 1e-9 &&
                 in_block[f] <= std::ceil(expected) + 1e-9,
             "block " + std::to_string(block) + ": family " +
                 std::to_string(f) + " within one job of its share");
    }
  }
  expect(within(refined, static_cast<double>(n), kRefinedShare),
         "refined-cloud share");
  expect(within(cold, static_cast<double>(n), kColdShare), "cold-tail share");
  expect(within(dp, uniform, kDpShare), "DP share");
  expect(within(fd, uniform, kFdShare), "FD share");
}

void test_thread_budget() {
  for (const char* w : {"pinn", "solver", "serve"}) {
    const ThreadBudget b = thread_budget(w);
    expect(b.team == 1, std::string(w) + ": OpenMP team of 1");
    expect(b.busy() <= nproc(),
           std::string(w) + ": busy threads " + std::to_string(b.busy()) +
               " within nproc " + std::to_string(nproc()));
  }
  expect(thread_budget("serve").workers == 2, "serve: 2 workers");
  expect(thread_budget("serve").clients == 2, "serve: 2 clients");
}

void test_metric_table() {
  std::set<std::string_view> names;
  for (const MetricSpec& m : kEndToEnd)
    expect(names.insert(m.name).second, "end-to-end names are unique");
  names.clear();
  for (const LayerCount& c : kLayerCounts) {
    expect(names.insert(c.name).second,
           std::string(c.name) + ": count names are unique");
    bool somewhere = false;
    for (const char* w : {"pinn", "solver", "serve"})
      somewhere = somewhere || measured_on(c.measured_on, w);
    expect(somewhere, std::string(c.name) + " is measured on some workload");
  }
  for (const std::string_view layer : kLayers)
    expect(names.count(std::string(layer) + ".share") == 0,
           "layer shares do not collide with counts");
  expect(measured_on("pinn solver", "solver") &&
             measured_on("pinn solver", "pinn") &&
             !measured_on("pinn solver", "serve") &&
             !measured_on("pinn solver", "pin") && !measured_on("", "pinn"),
         "measured_on matches whole names only");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time_rollup();
  test_stream();
  test_thread_budget();
  test_metric_table();
  if (g_failures == 0) std::printf("perfbench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
