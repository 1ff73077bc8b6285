/// updec_serve: batch scenario-serving front end.
///
/// Reads a scenario manifest (CSV) or synthesises a homogeneous batch from
/// flags, fans the jobs across a serve::Scheduler thread pool with the
/// operator/factorisation cache enabled, and emits an aggregate JSON report.
///
///   updec_serve --manifest examples/serve_manifest.csv --out report.json
///   updec_serve --jobs 16 --grid 24 --iters 25 --strategy dal --threads 4
///   updec_serve --jobs 64 --grid 20 --shards 4   # multi-process shard pool
///
/// Manifest columns (header row required, '#' comments ignored):
///   id,problem,strategy,grid,iters,lr,deadline_ms,seed,jitter
/// problem: laplace|channel; strategy: dp|dal|fd. Empty cells keep defaults.
///
/// Environment: UPDEC_SERVE_THREADS (pool size), UPDEC_SERVE_SHARDS /
/// UPDEC_SERVE_STEAL (multi-process shard pool; --shards overrides),
/// UPDEC_SERVE_DEADLINE_MS (default per-job deadline), UPDEC_CACHE_BYTES
/// (operator cache budget), UPDEC_CACHE_DIR (persistent operator-cache
/// tier; in shard mode it doubles as the warm tier stolen jobs pay into),
/// UPDEC_SERVE_RETRIES / UPDEC_SERVE_BACKOFF_MS (retry ladder; --retries /
/// --backoff-ms override -- in shard mode the same budget also bounds
/// resubmission of jobs lost to a crashed worker).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/scheduler.hpp"
#include "serve/shard.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace {

using namespace updec;

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

std::vector<serve::Scenario> load_manifest(const std::string& path) {
  std::ifstream is(path);
  UPDEC_REQUIRE(is.good(), "cannot open manifest " + path);
  std::vector<serve::Scenario> scenarios;
  std::string line;
  bool header_seen = false;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {  // column order is fixed; the header is a guard only
      header_seen = true;
      UPDEC_REQUIRE(line.rfind("id,", 0) == 0,
                    "manifest must start with the header "
                    "'id,problem,strategy,grid,iters,lr,deadline_ms,seed,"
                    "jitter': " + path);
      continue;
    }
    const std::vector<std::string> cells = split_csv_line(line);
    UPDEC_REQUIRE(!cells.empty() && !cells[0].empty(),
                  "manifest line " + std::to_string(line_no) +
                      ": missing scenario id");
    serve::Scenario sc;
    sc.id = cells[0];
    const auto cell = [&cells](std::size_t i) -> std::string {
      return i < cells.size() ? cells[i] : "";
    };
    if (!cell(1).empty()) sc.problem = serve::parse_problem_kind(cell(1));
    if (!cell(2).empty()) sc.strategy = serve::parse_strategy(cell(2));
    if (!cell(3).empty()) {
      const std::size_t n = std::stoul(cell(3));
      sc.grid_n = n;        // laplace resolution...
      sc.target_nodes = n;  // ...or channel cloud size; kind picks one
    }
    if (!cell(4).empty()) sc.iterations = std::stoul(cell(4));
    if (!cell(5).empty()) sc.learning_rate = std::stod(cell(5));
    if (!cell(6).empty()) sc.deadline_ms = std::stod(cell(6));
    if (!cell(7).empty()) sc.seed = std::stoull(cell(7));
    if (!cell(8).empty()) sc.control_jitter = std::stod(cell(8));
    scenarios.push_back(std::move(sc));
  }
  UPDEC_REQUIRE(!scenarios.empty(), "manifest has no scenarios: " + path);
  return scenarios;
}

std::vector<serve::Scenario> synthesise_batch(const CliArgs& args) {
  const int jobs = args.get_int("jobs", 8);
  std::vector<serve::Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    serve::Scenario sc;
    sc.id = "job-" + std::to_string(i);
    sc.problem = serve::parse_problem_kind(args.get("problem", "laplace"));
    sc.strategy = serve::parse_strategy(args.get("strategy", "dal"));
    sc.grid_n = static_cast<std::size_t>(args.get_int("grid", 16));
    sc.target_nodes = static_cast<std::size_t>(args.get_int("nodes", 400));
    sc.iterations = static_cast<std::size_t>(args.get_int("iters", 25));
    sc.learning_rate = args.get_double("lr", 1e-2);
    sc.deadline_ms = args.get_double("deadline-ms", 0.0);
    sc.seed = static_cast<std::uint64_t>(i + 1);
    sc.control_jitter = args.get_double("jitter", 0.0);
    scenarios.push_back(std::move(sc));
  }
  return scenarios;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

void write_report(std::ostream& os,
                  const std::vector<serve::JobReport>& reports,
                  const serve::OperatorCache::Stats& cache, double seconds,
                  std::size_t threads,
                  const std::vector<serve::ShardPool::ShardInfo>& shards) {
  std::size_t succeeded = 0, cancelled = 0, expired = 0, failed = 0;
  std::size_t retries = 0, degraded = 0;
  double job_seconds = 0.0;
  for (const auto& r : reports) {
    job_seconds += r.seconds;
    retries += r.retries;
    if (r.degraded) ++degraded;
    switch (r.status) {
      case serve::JobStatus::kSucceeded: ++succeeded; break;
      case serve::JobStatus::kCancelled: ++cancelled; break;
      case serve::JobStatus::kDeadlineExpired: ++expired; break;
      default: ++failed; break;
    }
  }
  os << "{\n  \"schema\": \"updec-serve-report-v1\",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"shards\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const auto& info = shards[i];
    if (i > 0) os << ", ";
    os << "{\"shard\": " << i << ", \"pid\": " << info.pid
       << ", \"jobs_done\": " << info.jobs_done
       << ", \"steals\": " << info.steals
       << ", \"restarts\": " << info.restarts << '}';
  }
  os << "],\n";
  os << "  \"wall_seconds\": " << seconds << ",\n";
  os << "  \"aggregate\": {\"jobs\": " << reports.size()
     << ", \"succeeded\": " << succeeded << ", \"cancelled\": " << cancelled
     << ", \"deadline_expired\": " << expired << ", \"failed\": " << failed
     << ", \"retries\": " << retries << ", \"degraded\": " << degraded
     << ", \"job_seconds_sum\": " << job_seconds << "},\n";
  os << "  \"cache\": {\"hits\": " << cache.hits
     << ", \"misses\": " << cache.misses
     << ", \"evictions\": " << cache.evictions
     << ", \"inflight_waits\": " << cache.inflight_waits
     << ", \"bytes\": " << cache.bytes << ", \"entries\": " << cache.entries
     << ", \"byte_budget\": " << cache.byte_budget
     << ", \"disk_hits\": " << cache.disk.hits
     << ", \"disk_misses\": " << cache.disk.misses
     << ", \"disk_writes\": " << cache.disk.writes
     << ", \"disk_corrupt\": " << cache.disk.corrupt
     << ", \"disk_errors\": " << cache.disk.errors << ",\n"
     << "    \"by_class\": {";
  bool first_class = true;
  for (const auto& [klass, cs] : cache.by_class) {
    if (!first_class) os << ", ";
    first_class = false;
    os << '"' << json_escape(klass) << "\": {\"hits\": " << cs.hits
       << ", \"misses\": " << cs.misses << ", \"evictions\": " << cs.evictions
       << ", \"bytes\": " << cs.bytes << ", \"entries\": " << cs.entries
       << '}';
  }
  os << "}},\n";
  os << "  \"jobs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    os << "    {\"id\": \"" << json_escape(r.id) << "\", \"status\": \""
       << serve::to_string(r.status) << "\", \"seconds\": " << r.seconds
       << ", \"iterations\": " << r.iterations
       << ", \"final_cost\": " << r.final_cost
       << ", \"attempts\": " << r.attempts << ", \"retries\": " << r.retries
       << ", \"degraded\": " << (r.degraded ? "true" : "false");
    if (r.degraded)
      os << ", \"achieved_tolerance\": " << r.achieved_tolerance;
    if (!r.error.empty()) os << ", \"error\": \"" << json_escape(r.error) << '"';
    os << '}' << (i + 1 < reports.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  try {
    const std::string manifest = args.get("manifest", "");
    const std::vector<serve::Scenario> scenarios =
        manifest.empty() ? synthesise_batch(args) : load_manifest(manifest);

    serve::SchedulerOptions options;
    options.threads = static_cast<std::size_t>(args.get_int("threads", 0));
    // --shards overrides UPDEC_SERVE_SHARDS; absent defers to the env.
    const int shards_flag = args.get_int("shards", -1);
    if (shards_flag >= 0)
      options.shards = static_cast<std::size_t>(shards_flag);
    // Environment supplies the policy; flags override per invocation.
    serve::RetryPolicy retry = serve::retry_policy_from_env();
    retry.max_retries = static_cast<std::size_t>(
        args.get_int("retries", static_cast<int>(retry.max_retries)));
    retry.backoff_ms = args.get_double("backoff-ms", retry.backoff_ms);
    options.retry = retry;
    serve::Scheduler scheduler(options);
    if (scheduler.shard_count() > 0)
      std::cout << "updec_serve: " << scenarios.size() << " scenario(s) on "
                << scheduler.shard_count() << " shard worker(s), stealing "
                << (scheduler.shards()->stealing() ? "on" : "off") << "\n";
    else
      std::cout << "updec_serve: " << scenarios.size() << " scenario(s) on "
                << scheduler.thread_count() << " thread(s), cache budget "
                << scheduler.cache().byte_budget() << " bytes\n";

    const Stopwatch watch;
    for (const serve::Scenario& sc : scenarios)
      (void)scheduler.submit(sc);
    const std::vector<serve::JobReport> reports = scheduler.wait_all();
    const double seconds = watch.seconds();

    for (const auto& r : reports)
      std::cout << "  " << r.id << ": " << serve::to_string(r.status) << " in "
                << r.seconds << " s, " << r.iterations << " iters, J = "
                << r.final_cost
                << (r.retries > 0
                        ? ", " + std::to_string(r.retries) + " retr" +
                              (r.retries == 1 ? "y" : "ies")
                        : "")
                << (r.degraded ? ", degraded" : "")
                << (r.error.empty() ? "" : " (" + r.error + ")") << "\n";

    // Merged view: in shard mode cache_stats() folds every worker's cache
    // traffic into the parent-side numbers; shard_infos() adds the per-shard
    // breakdown (jobs served, steals, crash restarts).
    const serve::OperatorCache::Stats cache_stats = scheduler.cache_stats();
    std::vector<serve::ShardPool::ShardInfo> shard_infos;
    if (scheduler.shards() != nullptr) {
      shard_infos = scheduler.shards()->shard_infos();
      for (std::size_t i = 0; i < shard_infos.size(); ++i)
        std::cout << "  shard " << i << ": pid " << shard_infos[i].pid << ", "
                  << shard_infos[i].jobs_done << " job(s), "
                  << shard_infos[i].steals << " steal(s), "
                  << shard_infos[i].restarts << " restart(s)\n";
    }

    const std::string out = args.get("out", "");
    if (out.empty()) {
      write_report(std::cout, reports, cache_stats, seconds,
                   scheduler.thread_count(), shard_infos);
    } else {
      std::ofstream os(out);
      UPDEC_REQUIRE(os.good(), "cannot open report file " + out);
      write_report(os, reports, cache_stats, seconds,
                   scheduler.thread_count(), shard_infos);
      std::cout << "report: wrote " << out << "\n";
    }

    // Non-zero exit iff anything failed outright (cancel/deadline are
    // deliberate outcomes, not serving errors).
    for (const auto& r : reports)
      if (r.status == serve::JobStatus::kFailed) return 1;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "updec_serve: " << e.what() << "\n";
    return 1;
  }
}
