#pragma once
/// \file scheduler.hpp
/// \brief Batch scenario-serving: fan optimal-control scenarios across a
///        thread pool with per-job cancellation, deadlines and reports.
///
/// A Scenario names one optimisation run: which problem (Laplace boundary
/// control or Navier-Stokes inflow control), which gradient strategy
/// (DP / DAL / FD), the discretisation, and the run budget. The Scheduler
/// executes scenarios on a serve::ThreadPool and memoizes the expensive
/// discretisation artefacts in a serve::OperatorCache as problem bundles
/// (assembled collocation or adapted cloud, its factorisation, the problem
/// object) keyed by configuration: jobs sharing a discretisation share ONE
/// problem instance (safe: the shared state is immutable after
/// construction). A bundle books every byte it holds, its factorisation
/// included, so the cache weighs its build time against what evicting it
/// frees. With a disk tier armed, a uniform bundle's LU is also persisted
/// under rbf::GlobalCollocation::content_hash(), so a rebuild after eviction
/// or a restart loads it instead of factoring.
///
/// Cancellation and deadlines are cooperative: they are routed into
/// control::DriverOptions::should_stop, polled once per optimisation
/// iteration, so a stopped job returns a well-formed JobReport with the
/// trajectory accumulated so far -- the pool itself never aborts.
///
/// Per-job isolation: each job draws its initial-control jitter from its own
/// Rng(seed) (never a process-global stream), so a batch's results are
/// independent of scheduling order and thread count.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serve/cache.hpp"
#include "serve/pool.hpp"

namespace updec::serve {

class ShardPool;

enum class ProblemKind : std::uint8_t { kLaplace = 0, kChannel = 1 };
enum class Strategy : std::uint8_t { kDp = 0, kDal = 1, kFd = 2 };

[[nodiscard]] const char* to_string(ProblemKind kind);
[[nodiscard]] const char* to_string(Strategy strategy);
/// Parse "laplace"/"channel" and "dp"/"dal"/"fd" (throws updec::Error).
[[nodiscard]] ProblemKind parse_problem_kind(const std::string& s);
[[nodiscard]] Strategy parse_strategy(const std::string& s);

/// One optimisation run to serve.
struct Scenario {
  std::string id;                ///< caller-chosen label for the report
  ProblemKind problem = ProblemKind::kLaplace;
  Strategy strategy = Strategy::kDal;

  // Discretisation.
  std::size_t grid_n = 16;        ///< Laplace: nodes per side
  std::size_t target_nodes = 500; ///< Channel: cloud size
  double reynolds = 1.0;          ///< Channel only
  int poly_degree = 1;

  // Optimisation budget.
  std::size_t iterations = 50;
  double learning_rate = 1e-2;
  double fd_step = 1e-6;

  // Per-job initial-control perturbation: control[i] += jitter * N(0, 1)
  // drawn from Rng(seed). jitter == 0 reproduces the problem's canonical
  // initial control regardless of seed.
  std::uint64_t seed = 0;
  double control_jitter = 0.0;

  /// Wall-clock budget for THIS job; 0 falls back to the scheduler's
  /// default (SchedulerOptions::default_deadline_ms), which itself
  /// defaults to "no deadline".
  double deadline_ms = 0.0;

  // Adaptive refinement (Laplace DAL only). refine_cycles > 0 serves the
  // job on an adjoint-adapted cloud grown from grid_n by that many
  // refine::AdaptiveLoop cycles; the refined discretisation is a cached
  // family artefact, so the cycle count and fraction are part of every
  // operator fingerprint (a refined cloud must never alias the uniform one,
  // or another refinement level, in the cache or in shard routing).
  std::size_t refine_cycles = 0;
  double refine_fraction = 0.0;   ///< <= 0 uses RefineConfig's default
};

enum class JobStatus : std::uint8_t {
  kPending = 0,
  kRunning = 1,
  kSucceeded = 2,
  kCancelled = 3,         ///< Scheduler::cancel() before/while running
  kDeadlineExpired = 4,   ///< cooperative deadline stop
  kFailed = 5,            ///< solver threw or the driver aborted
  kRetrying = 6,          ///< live-only: backing off before another attempt
};

[[nodiscard]] const char* to_string(JobStatus status);

/// How run_scenario handles transient failures: up to `max_retries` extra
/// attempts with exponential backoff and a deterministic per-job jitter,
/// every delay charged against the job's deadline (a retry that cannot fit
/// in the remaining budget is not taken -- the job resolves to
/// kDeadlineExpired instead of spinning), and an optional final best-effort
/// degraded attempt once the retry budget is gone.
struct RetryPolicy {
  std::size_t max_retries = 0;      ///< extra attempts after the first
  double backoff_ms = 50.0;         ///< delay before the first retry
  double backoff_multiplier = 2.0;  ///< growth per subsequent retry
  double max_backoff_ms = 2000.0;   ///< cap on any single delay
  double jitter = 0.1;              ///< +/- fraction, drawn from Rng(seed)

  /// After the last retry fails, run one more attempt with the iteration
  /// budget truncated to `degraded_iterations` of the scenario's and a
  /// doubled divergence-recovery budget. A success is reported with
  /// JobReport::degraded set (and the achieved gradient norm recorded)
  /// instead of a hard kFailed.
  bool allow_degraded = true;
  double degraded_iterations = 0.25;  ///< fraction of Scenario::iterations

  /// When > 0 and the job has a deadline: once elapsed time crosses this
  /// fraction of the deadline, ask the driver to wrap up via
  /// DriverOptions::should_degrade. The job then resolves as a degraded
  /// success with the trajectory so far, rather than running into the hard
  /// deadline and resolving kDeadlineExpired. 0 (default) disables.
  double soft_deadline_fraction = 0.0;
};

/// Policy implied by the environment: UPDEC_SERVE_RETRIES (max_retries) and
/// UPDEC_SERVE_BACKOFF_MS (backoff_ms) over the defaults above; malformed
/// values warn and keep the defaults (strict whole-string parse).
[[nodiscard]] RetryPolicy retry_policy_from_env();

/// Outcome of one scenario.
struct JobReport {
  std::string id;
  JobStatus status = JobStatus::kPending;
  double seconds = 0.0;              ///< wall-clock inside the job (all attempts)
  double final_cost = 0.0;
  std::size_t iterations = 0;        ///< accepted optimisation iterations
  std::vector<double> cost_history;  ///< J per iteration (possibly truncated)
  std::string error;                 ///< populated for kFailed
  std::size_t attempts = 0;          ///< attempts executed (>= 1 once run)
  std::size_t retries = 0;           ///< backoff delays actually taken
  bool degraded = false;             ///< best-effort result (see RetryPolicy)
  /// Final gradient norm of the returned trajectory -- the optimisation
  /// tolerance actually achieved, meaningful mainly when `degraded`.
  double achieved_tolerance = 0.0;

  [[nodiscard]] bool ok() const { return status == JobStatus::kSucceeded; }
};

struct SchedulerOptions {
  std::size_t threads = 0;          ///< 0 -> default_thread_count()
  std::size_t max_queue = 1024;     ///< ThreadPool backpressure bound
  /// Deadline applied to scenarios with deadline_ms == 0. Defaults to
  /// UPDEC_SERVE_DEADLINE_MS from the environment (0 / unset = none).
  double default_deadline_ms = -1.0;  ///< -1 -> read the environment
  OperatorCache* cache = nullptr;     ///< nullptr -> global_cache()
  /// Retry/degradation policy for every job; nullopt reads the environment
  /// (retry_policy_from_env()).
  std::optional<RetryPolicy> retry;
  /// Worker PROCESSES. nullopt reads UPDEC_SERVE_SHARDS; 0 keeps the
  /// classic in-process ThreadPool; >= 1 serves through a serve::ShardPool
  /// (fork + fingerprint routing + work stealing). In shard mode `threads`,
  /// `max_queue` and `cache` are ignored: workers run single-threaded
  /// against their own process-local global_cache(), submit() never blocks,
  /// and jobs queue parent-side without bound.
  std::optional<std::size_t> shards;
};

/// UPDEC_SERVE_DEADLINE_MS when set to a positive number, else 0 (none).
/// Malformed values warn and count as unset (strict whole-string parse).
[[nodiscard]] double default_deadline_ms_from_env();

/// Execute one scenario synchronously on the calling thread, including its
/// retry/backoff/degradation ladder. This is the exact function scheduler
/// jobs run; exposed for sequential baselines (bench_serve's cold path) and
/// tests. `external_stop` (may be empty) is polled alongside the deadline
/// (and during backoff); returning true cancels the job. `retry` nullopt
/// reads the environment; `on_status` (may be empty) observes live status
/// transitions (kRunning, kRetrying) -- the Scheduler routes these into
/// Scheduler::status().
[[nodiscard]] JobReport run_scenario(
    const Scenario& scenario, OperatorCache& cache,
    double deadline_ms = 0.0,
    const std::function<bool()>& external_stop = {},
    const std::optional<RetryPolicy>& retry = std::nullopt,
    const std::function<void(JobStatus)>& on_status = {});

class Scheduler {
 public:
  using JobId = std::size_t;

  explicit Scheduler(SchedulerOptions options = {});
  /// Waits for in-flight jobs (pool drain + join / shard-pool drain).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // ---- one-take reports -------------------------------------------------
  // wait() and wait_all() hand each job's report out once. Taking it frees
  // the job's scenario and report (a shard-mode job's routing goes when it
  // finishes); only its final status stays, so a long-running scheduler
  // holds a byte per finished job rather than every report it produced.
  // After the take, status() still answers, cancel() returns false and a
  // further wait() throws. Threads already blocked in wait() on the job
  // when it resolves all receive the report.

  /// Enqueue one scenario; returns a handle for cancel()/wait(). Blocks
  /// under queue backpressure in thread mode; returns immediately in shard
  /// mode.
  JobId submit(Scenario scenario);

  /// Request cancellation. A job that has not started yet resolves to
  /// kCancelled without running; a running job stops at its next iteration
  /// boundary (in shard mode, after one kCancel frame crosses the process
  /// boundary). Returns false iff the job had already finished (the report
  /// is unaffected then).
  bool cancel(JobId id);

  /// Live status of a job: kPending until a worker picks it up, kRunning /
  /// kRetrying while in flight, then the report's final status (also after
  /// the report was taken). Throws updec::Error on an id never issued.
  [[nodiscard]] JobStatus status(JobId id) const;

  /// Block until the job resolves and take its report. Throws updec::Error
  /// on an id never issued or whose report was already taken.
  [[nodiscard]] JobReport wait(JobId id);

  /// Wait for every job whose report has not been taken yet, and take
  /// those reports, in submission order.
  [[nodiscard]] std::vector<JobReport> wait_all();

  [[nodiscard]] std::size_t thread_count() const {
    return pool_ ? pool_->thread_count() : 0;
  }
  /// Worker processes in shard mode, 0 in thread mode.
  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] OperatorCache& cache() { return *cache_; }
  /// The shard pool (nullptr in thread mode) -- per-shard report data.
  [[nodiscard]] ShardPool* shards() { return shards_.get(); }

  /// Cache statistics across the whole serving topology: the parent cache
  /// plus, in shard mode, the delta-merged stats of every worker process
  /// (counters accumulate across worker generations; resident bytes are
  /// the live workers' sum). This is what the updec_serve report and the
  /// bench JSON should print -- OperatorCache::stats() alone is
  /// process-local and near-empty under sharding.
  [[nodiscard]] OperatorCache::Stats cache_stats();

 private:
  struct JobState {
    Scenario scenario;
    std::size_t shard_job = 0;  ///< ShardPool id (shard mode only)
    std::atomic<bool> cancelled{false};
    std::atomic<bool> done{false};
    std::atomic<JobStatus> live{JobStatus::kPending};
    std::promise<JobReport> promise;
    std::shared_future<JobReport> future;
  };

  /// Resolve a job: live status, then the promise. Called exactly once per
  /// job, from the worker lambda (thread mode) or the shard pool's result
  /// callback (dispatcher thread).
  static void finish_job(JobState& state, JobReport&& report);

  /// Forget a job whose report was handed out, keeping its final status.
  /// Caller holds jobs_mutex_.
  void take_locked(JobId id, JobStatus final_status);

  OperatorCache* cache_;
  double default_deadline_ms_;
  RetryPolicy retry_;
  mutable std::mutex jobs_mutex_;
  /// Jobs whose report has not been taken, in submission order.
  std::map<JobId, std::shared_ptr<JobState>> jobs_;
  /// ShardPool id -> JobId, for jobs in flight in shard mode.
  std::map<std::size_t, JobId> shard_to_job_;
  /// Final status by JobId - 1; read once the job has left jobs_.
  std::vector<JobStatus> taken_status_;
  JobId next_id_ = 1;
  std::unique_ptr<ShardPool> shards_;  ///< shard mode only; forks in ctor
  std::unique_ptr<ThreadPool> pool_;   ///< thread mode only; last member
};

}  // namespace updec::serve
