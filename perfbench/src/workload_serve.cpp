/// The `serve` workload: a closed loop of 2 client threads over one
/// in-process serve::Scheduler with 2 workers. Each client takes the next
/// job of the seeded stream (see stream.hpp), submits it to the scheduler,
/// waits for its report, and only then takes the next. The scheduler runs
/// against one OperatorCache owned by the workload, whose budget is below
/// the stream's combined bundle and LU bytes, so the hot head of the stream
/// reads the cache and the tail writes it (bundle builds, LU
/// factorisations, evictions), and concurrent misses on one family meet in
/// the cache's single-flight.
///
/// Every time here is wall-clock time, as a client sees it: a job that
/// waits for a worker, on a lock, or on another job's in-flight build
/// spends that wait in its latency.
///
/// Untraced: set-up, the mean wall time of a pass of kPassJobs jobs over the
/// whole stream, and peak memory; jobs per second and latency p50 / p99 are
/// noted. A seeded sample of the jobs is re-run sequentially through
/// serve::run_scenario and must match the scheduler's reports bitwise.
///
/// Traced: every other job of the stream runs inside a client span, so the
/// trace overhead is measured on the same mix; cache and report counts come
/// from OperatorCache::Stats and JobReport. The build work a cache miss pays
/// is then replayed per family from public calls under rbf / refine spans.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "control/laplace_problem.hpp"
#include "record.hpp"
#include "refine/adaptive_loop.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "stamp.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace updec;

/// Holds the hot head's bundles and LUs (12.8 MiB) and the refined
/// families' bundles (0.2 MiB) with room for a few cold ones; the
/// whole stream would need 26 MiB.
constexpr std::size_t kCacheBytes = std::size_t{18} << 20;
/// Jobs one run serves per second of --seconds. A run serves a fixed count,
/// not as many as fit in the time: the scheduler keeps the state of every
/// finished job, so memory (peak_rss_mib) grows with the count.
constexpr double kJobsPerSecond = 800.0;
/// Jobs in one pass: pass_s is the stream's wall time per kPassJobs jobs
/// that passed their checks. It is a mean over the stream, not a median over
/// its passes: consecutive passes differ in how many cache misses they
/// meet, so their times are not repeats of one measurement.
constexpr double kPassJobs = 500.0;
/// Set-up (the cache and the scheduler's workers) takes tens of
/// microseconds, so it is repeated more often than in the other workloads
/// before its median is taken. Each repeat constructs from a fresh thread:
/// most of the time is starting the workers, whose cost depends on where
/// the kernel places them relative to the constructing thread. From one
/// long-lived thread every repeat saw the same placement, and a run's
/// median moved between 11 and 38 us from run to run on the machine of
/// README.md's "Noise" table; from fresh threads, between 20 and 30 us.
constexpr int kServeSetupRepeats = 101;
/// Jobs re-run sequentially for the bitwise check, drawn from the first
/// kCheckRange jobs of the stream (no run is shorter).
constexpr std::size_t kCheckSample = 8;
constexpr std::size_t kCheckRange = 4000;

/// What the benchmark keeps of one job; fixed-size, so memory does not grow
/// with the number of jobs a run completes.
struct JobRecord {
  bool done = false;
  double latency_ms = 0.0;  ///< client wall clock, submit to report
  double inside_ms = 0.0;   ///< JobReport::seconds
  serve::JobStatus status = serve::JobStatus::kPending;
  double final_cost = 0.0;
  std::size_t iterations = 0;
  std::size_t history = 0;  ///< cost_history entries
  std::size_t retries = 0;
};

struct StreamRun {
  std::vector<JobRecord> jobs;  ///< indexed like the stream
  std::map<std::size_t, serve::JobReport> kept;  ///< the check sample
  double wall_s = 0.0;
  serve::OperatorCache::Stats cache;
};

/// The serving stack one run measures: the program's own set-up.
struct Stack {
  std::unique_ptr<serve::OperatorCache> cache;
  std::unique_ptr<serve::Scheduler> scheduler;  ///< destroyed first
};

std::unique_ptr<Stack> build_stack() {
  auto s = std::make_unique<Stack>();
  s->cache = std::make_unique<serve::OperatorCache>(kCacheBytes, "");
  serve::SchedulerOptions options;
  options.threads = thread_budget("serve").workers;
  options.cache = s->cache.get();
  s->scheduler = std::make_unique<serve::Scheduler>(options);
  return s;
}

std::size_t stream_length(const Options& options) {
  return std::max(kCheckRange,
                  static_cast<std::size_t>(kJobsPerSecond * options.seconds));
}

std::vector<std::size_t> check_indices(std::uint64_t seed) {
  std::vector<std::size_t> picks;
  for (std::uint64_t k = 0; picks.size() < kCheckSample; ++k) {
    const std::size_t index = mix_seed(seed ^ 0x5A11, k) % kCheckRange;
    if (std::find(picks.begin(), picks.end(), index) == picks.end())
      picks.push_back(index);
  }
  return picks;
}

/// Serve the whole stream with the budget's clients. With `traced`, every
/// job of even stream index gets a client span (run id = client index) and
/// odd ones run untraced, so one run measures the tracing overhead on the
/// same mix.
StreamRun drive(Stack& stack, const std::vector<serve::Scenario>& stream,
                bool traced, const std::vector<std::size_t>& keep) {
  std::atomic<std::size_t> next{0};
  std::mutex kept_mutex;
  StreamRun run;
  run.jobs.resize(stream.size());
  const Stopwatch watch;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < thread_budget("serve").clients; ++c) {
    clients.emplace_back([&, c] {
      set_thread_run(static_cast<std::int64_t>(c));
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= stream.size()) break;
        JobRecord& rec = run.jobs[index];
        const Stopwatch latency;
        serve::JobReport report;
        {
          std::optional<Scope> span;
          if (traced && index % 2 == 0) span.emplace("serve.job");
          const auto id = stack.scheduler->submit(stream[index]);
          report = stack.scheduler->wait(id);
        }
        rec.latency_ms = latency.millis();
        rec.inside_ms = 1e3 * report.seconds;
        rec.status = report.status;
        rec.final_cost = report.final_cost;
        rec.iterations = report.iterations;
        rec.history = report.cost_history.size();
        rec.retries = report.retries;
        rec.done = true;
        if (std::find(keep.begin(), keep.end(), index) != keep.end()) {
          const std::lock_guard<std::mutex> lock(kept_mutex);
          run.kept.emplace(index, std::move(report));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  run.wall_s = watch.seconds();
  run.cache = stack.cache->stats();
  return run;
}

/// Per-job output checks; returns the number of jobs that passed.
std::size_t check_jobs(Outcome& out, const StreamRun& run) {
  std::size_t ok = 0;
  for (std::size_t index = 0; index < run.jobs.size(); ++index) {
    const JobRecord& job = run.jobs[index];
    if (!job.done) continue;
    ++out.attempted;
    const std::string op = "job " + std::to_string(index);
    if (job.status != serve::JobStatus::kSucceeded) {
      out.fail(op, std::string("status ") + serve::to_string(job.status));
    } else if (!std::isfinite(job.final_cost)) {
      out.fail(op, "non-finite J");
    } else if (job.iterations != job.history || job.iterations == 0) {
      out.fail(op, "incomplete cost history");
    } else {
      ++ok;
    }
  }
  return ok;
}

/// Re-run the kept sample sequentially through serve::run_scenario against
/// a fresh cache; the reports must match the scheduler's bit for bit.
void check_sample(Outcome& out, const std::vector<serve::Scenario>& stream,
                  const StreamRun& run,
                  const std::vector<std::size_t>& sample) {
  serve::OperatorCache cache(kCacheBytes, "");
  for (const std::size_t index : sample) {
    const auto it = run.kept.find(index);
    if (it == run.kept.end()) {
      out.fail("job " + std::to_string(index), "not completed in the run");
      continue;
    }
    const serve::JobReport again =
        serve::run_scenario(stream[index], cache);
    if (again.status != it->second.status ||
        again.cost_history != it->second.cost_history ||
        again.final_cost != it->second.final_cost)
      out.fail("job " + std::to_string(index),
               "sequential re-run does not match the scheduler's report");
  }
}

/// Latencies of the completed jobs.
std::vector<double> latencies(const StreamRun& run) {
  std::vector<double> v;
  for (const JobRecord& job : run.jobs)
    if (job.done) v.push_back(job.latency_ms);
  return v;
}

std::string cache_note(const serve::OperatorCache::Stats& cache) {
  std::string line = "cache hits " + std::to_string(cache.hits) + " misses " +
                     std::to_string(cache.misses) + " evictions " +
                     std::to_string(cache.evictions) + " resident " +
                     std::to_string(cache.bytes >> 10) + " KiB;";
  for (const auto& [klass, c] : cache.by_class)
    line += " " + klass + " " + std::to_string(c.misses) + " misses / " +
            std::to_string(c.hits) + " hits";
  return line;
}

Outcome run_untraced(const Options& options) {
  Outcome out;
  const std::vector<serve::Scenario> stream =
      make_stream(options.seed, stream_length(options));
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int r = 0; r < kServeSetupRepeats; ++r) {
    stack.reset();
    std::thread([&] {
      const Stopwatch watch;
      stack = build_stack();
      setups.push_back(watch.seconds());
    }).join();
  }
  const std::vector<std::size_t> sample = check_indices(options.seed);
  const StreamRun run = drive(*stack, stream, false, sample);
  // Peak memory of serving the stream, read before the check below builds
  // a second cache for its sample (whose families, and so whose size,
  // change with the seed).
  const double peak_mib = peak_rss_mib();
  const std::size_t ok = check_jobs(out, run);
  check_sample(out, stream, run, sample);

  const std::vector<double> lat = latencies(run);
  out.check(percentile_supported(lat.size(), 99.0),
            "job_ms.p99 needs " + std::to_string(kSamplesBeyond) +
                " samples beyond it; the run completed " +
                std::to_string(lat.size()) + " jobs");
  char line[160];
  std::snprintf(line, sizeof line,
                "jobs %zu, samples beyond p99 %zu, highest supported "
                "percentile %g, stream wall time %.6g s",
                lat.size(), samples_beyond(lat.size(), 99.0),
                highest_supported_percentile(lat.size()), run.wall_s);
  out.note(line);
  out.note(cache_note(run.cache));
  out.add_median("setup_s", setups, "s");
  out.add("pass_s", run.wall_s * kPassJobs / static_cast<double>(ok), "s");
  out.add("peak_rss_mib", peak_mib, "MiB");
  out.detail("jobs_per_s", static_cast<double>(ok) / run.wall_s, "1/s");
  out.detail("job_ms.p50", percentile(lat, 50.0), "ms");
  out.detail("job_ms.p99", percentile(lat, 99.0), "ms");
  return out;
}

/// Replay the build work a cache miss pays for each family of the stream
/// under spans: refined families run the refine::AdaptiveLoop their bundle
/// runs; uniform families assemble and factor the collocation system and
/// solve it a few times.
void replay_builds() {
  const rbf::PolyharmonicSpline kernel(3);
  const std::vector<Family>& families = stream_families();
  for (std::size_t f = 0; f < families.size(); ++f) {
    const Family& family = families[f];
    if (family.refine_cycles > 0) {
      refine::AdaptiveOptions options;
      options.refine.cycles = family.refine_cycles;
      const Scope span("refine.build");
      (void)refine::AdaptiveLoop(family.grid_n, kernel, options).run();
      continue;
    }
    std::unique_ptr<control::LaplaceControlProblem> problem;
    {
      const Scope span("rbf.assemble");
      problem = std::make_unique<control::LaplaceControlProblem>(
          family.grid_n, kernel, family.poly_degree);
    }
    {
      const Scope span("rbf.factor");
      (void)problem->solver().collocation().lu();
    }
    const rbf::GlobalCollocation& colloc = problem->solver().collocation();
    const la::Vector rhs = colloc.assemble_rhs(
        [](const pc::Node&) { return 0.0; },
        [](const pc::Node& node) {
          return pde::LaplaceSolver::fixed_boundary_value(node);
        });
    for (int k = 0; k < 8; ++k) {
      const Scope span("rbf.solve.family" + std::to_string(f));
      (void)colloc.solve(rhs);
    }
  }
}

Outcome run_traced(const Options& options) {
  Outcome out;
  const std::vector<serve::Scenario> stream =
      make_stream(options.seed, stream_length(options));
  std::unique_ptr<Stack> stack = build_stack();
  recorder().set_enabled(true);
  const StreamRun run = drive(*stack, stream, true, {});
  recorder().set_enabled(false);
  check_jobs(out, run);

  // Job mix actually served: family popularity weights rbf.solve_ms.
  std::vector<double> popularity(stream_families().size(), 0.0);
  std::size_t retries = 0;
  std::vector<double> overhead;
  for (std::size_t index = 0; index < run.jobs.size(); ++index) {
    const JobRecord& job = run.jobs[index];
    if (!job.done) continue;
    const std::size_t f = family_of(stream[index]);
    if (f < popularity.size()) popularity[f] += 1.0;
    retries += job.retries;
    overhead.push_back(job.latency_ms - job.inside_ms);
  }
  recorder().set_enabled(true);
  replay_builds();
  recorder().set_enabled(false);

  const std::map<std::string, Rollup> r = rollup_by_name(recorder().spans());
  double weighted = 0.0;
  double weight = 0.0;
  for (std::size_t f = 0; f < popularity.size(); ++f) {
    const auto it = r.find("rbf.solve.family" + std::to_string(f));
    if (it == r.end() || it->second.count == 0) continue;
    weighted += popularity[f] * 1e3 * it->second.total /
                static_cast<double>(it->second.count);
    weight += popularity[f];
  }
  const auto misses = [&run](const char* klass) {
    const auto it = run.cache.by_class.find(klass);
    return it == run.cache.by_class.end()
               ? 0.0
               : static_cast<double>(it->second.misses);
  };
  const Rollup refine_builds = sum_prefix(r, "refine.build");
  const std::uint64_t lookups = run.cache.hits + run.cache.misses;
  out.detail("serve.overhead_ms", median(overhead), "ms");
  out.detail("serve.builds.bundle", misses("bundle"), "count");
  out.detail("serve.builds.lu", misses("lu"), "count");
  out.detail("serve.builds.refined_bundle", misses("refined-bundle"),
             "count");
  out.detail("rbf.assemble_s", sum_prefix(r, "rbf.assemble").total, "s");
  out.detail("rbf.factor_s", sum_prefix(r, "rbf.factor").total, "s");
  out.detail("rbf.solve_ms", weight > 0.0 ? weighted / weight : 0.0, "ms");
  out.detail("refine.build_s",
             refine_builds.count == 0
                 ? 0.0
                 : refine_builds.total /
                       static_cast<double>(refine_builds.count),
             "s");
  out.add("serve.cache_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(run.cache.hits) /
                             static_cast<double>(lookups),
          "ratio");
  out.add("serve.builds", static_cast<double>(run.cache.misses), "count");
  out.add("serve.evictions", static_cast<double>(run.cache.evictions),
          "count");
  out.add("serve.inflight_waits", static_cast<double>(run.cache.inflight_waits),
          "count");
  out.add("serve.retries", static_cast<double>(retries), "count");
  // Median latency of the traced (even) jobs against the untraced (odd).
  std::vector<double> traced_ms, plain_ms;
  for (std::size_t index = 0; index < run.jobs.size(); ++index)
    if (run.jobs[index].done)
      (index % 2 == 0 ? traced_ms : plain_ms)
          .push_back(run.jobs[index].latency_ms);
  const double plain = median(plain_ms);
  out.add("trace.overhead", plain > 0.0 ? median(traced_ms) / plain - 1.0 : 0.0,
          "ratio");
  return out;
}

}  // namespace

Outcome run_serve(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace perfbench
