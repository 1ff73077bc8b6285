#pragma once
/// \file shard.hpp
/// \brief Multi-process sharded serving: fork N workers, route scenarios by
///        operator fingerprint, stream results back asynchronously.
///
/// Why processes, not more threads: each worker owns a private in-memory
/// OperatorCache (and problem bundles) that stays hot for the scenario
/// families routed to it, while the UPDEC_CACHE_DIR disk tier remains the
/// shared cross-process currency -- a stolen job pays one disk-tier warm
/// instead of a full recompute. A crashed or stalled worker takes down one
/// shard's in-flight job, never the batch.
///
/// Topology: one dispatcher thread in the parent owns all worker sockets via
/// poll(); API calls (submit/cancel/drain/stats) talk to it through a
/// mutex-guarded state block plus a self-pipe wakeup. Workers are forked
/// BEFORE the dispatcher thread starts (single-threaded fork; respawns after
/// a crash are the only multi-threaded forks, and the child execs nothing
/// and starts no threads). Each worker runs a blocking read loop:
/// kJob -> run_scenario() -> kResult, polling its socket from the
/// cancellation callback so kCancel/kStatsRequest work mid-job.
///
/// Crash/deadline semantics across the process boundary:
///  * worker EOF with a job in flight -> the job is resubmitted to the
///    respawned worker, bounded by RetryPolicy::max_retries (then kFailed);
///  * a worker stalled past its job's deadline + reap_grace_ms is SIGKILLed
///    and the job resolves kDeadlineExpired (cooperative deadlines inside
///    the worker normally fire first; the reap is the backstop);
///  * queued (undispatched) jobs are parent-side state and survive any
///    worker death untouched.
///
/// Work stealing: an idle shard pulls the most recently queued job from the
/// most-loaded shard's queue (back-of-queue steal: the victim keeps the jobs
/// it will reach soonest). UPDEC_SERVE_STEAL=0 disables.
///
/// Metrics: counters serve/shard.jobs, .steals, .restarts, .resubmitted;
/// gauge serve/shard.count. Worker-side counters and cache stats are merged
/// into the parent registry via collect_stats() (and on shutdown), so the
/// atexit JSON dump aggregates the whole process tree.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "serve/cache.hpp"
#include "serve/scheduler.hpp"

namespace updec::serve {

/// UPDEC_SERVE_SHARDS: number of worker processes; 0 / unset means sharding
/// is off (in-process ThreadPool serving). Strict parse, warn + fallback.
[[nodiscard]] std::size_t shards_from_env();

/// UPDEC_SERVE_STEAL: work stealing between shards, default on.
[[nodiscard]] bool steal_from_env();

/// Routing fingerprint of a scenario: a content hash of exactly the fields
/// that determine its discretisation artefacts (problem kind, grid/cloud
/// size, Reynolds, polynomial degree). Jobs that share operators share a
/// fingerprint -- and therefore a shard -- regardless of id, seed,
/// iteration budget or jitter.
[[nodiscard]] std::uint64_t scenario_fingerprint(const Scenario& scenario);

struct ShardOptions {
  std::size_t shards = 0;  ///< 0 -> shards_from_env(), then max(1, .)
  /// Work stealing between shards; nullopt -> steal_from_env().
  std::optional<bool> steal;
  double default_deadline_ms = -1.0;  ///< -1 -> default_deadline_ms_from_env()
  std::optional<RetryPolicy> retry;   ///< nullopt -> retry_policy_from_env()
  /// Slack past a job's effective deadline before the parent SIGKILLs a
  /// stalled worker. Only applies to jobs that have a deadline at all.
  double reap_grace_ms = 500.0;
};

class ShardPool {
 public:
  using JobId = std::size_t;
  /// Result sink, invoked from the dispatcher thread once per job, after
  /// the job's terminal state is decided. Must not call back into the pool.
  using ResultCallback = std::function<void(JobId, JobReport&&)>;
  /// Live status transitions (kRunning at dispatch, kRetrying on a
  /// crash-resubmit), also from the dispatcher thread.
  using StatusCallback = std::function<void(JobId, JobStatus)>;

  /// Forks the workers (before starting any thread) and starts the
  /// dispatcher. Callbacks may only be set before the first submit().
  explicit ShardPool(ShardOptions options = {});

  /// Drains outstanding jobs, collects final worker stats, shuts the
  /// workers down and reaps them.
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  void set_on_result(ResultCallback cb);
  void set_on_status(StatusCallback cb);

  /// Enqueue one scenario on its fingerprint's shard. Returns immediately
  /// (parent-side queues are unbounded); results stream back through the
  /// result callback.
  JobId submit(Scenario scenario);

  /// Cancel a job. Queued: resolved kCancelled without ever crossing the
  /// process boundary. In flight: a kCancel frame is sent and the worker
  /// stops at its next iteration boundary. False iff already finished.
  bool cancel(JobId id);

  /// Block until every submitted job has resolved.
  void drain();

  /// Merge every live worker's counters into the parent metrics registry
  /// (delta-merged: safe to call repeatedly) and return the aggregated
  /// OperatorCache stats across all workers, past and present. Counter-like
  /// fields accumulate across worker generations; resident bytes/entries
  /// are the sum over currently live workers.
  OperatorCache::Stats collect_stats();

  [[nodiscard]] std::size_t shard_count() const { return n_shards_; }
  [[nodiscard]] std::size_t shard_of(const Scenario& scenario) const {
    return static_cast<std::size_t>(scenario_fingerprint(scenario) %
                                    n_shards_);
  }
  [[nodiscard]] bool stealing() const { return steal_; }

  /// Per-shard observability for the updec_serve report.
  struct ShardInfo {
    int pid = -1;
    std::size_t jobs_done = 0;  ///< results received from this shard
    std::size_t steals = 0;     ///< jobs this shard stole from others
    std::size_t restarts = 0;   ///< respawns after crash/reap
    std::size_t queued = 0;     ///< jobs currently waiting on this shard
  };
  [[nodiscard]] std::vector<ShardInfo> shard_infos() const;

  /// Total worker respawns (crash + reap) across the pool.
  [[nodiscard]] std::size_t restarts() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t n_shards_ = 1;
  bool steal_ = true;
};

}  // namespace updec::serve
