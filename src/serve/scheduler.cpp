#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "serve/shard.hpp"

#include "control/channel_problem.hpp"
#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "pointcloud/generators.hpp"
#include "refine/adaptive_loop.hpp"
#include "rom/laplace_rom.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace updec::serve {

const char* to_string(ProblemKind kind) {
  switch (kind) {
    case ProblemKind::kLaplace: return "laplace";
    case ProblemKind::kChannel: return "channel";
  }
  return "?";
}

const char* to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::kDp: return "dp";
    case Strategy::kDal: return "dal";
    case Strategy::kFd: return "fd";
  }
  return "?";
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kPending: return "pending";
    case JobStatus::kRunning: return "running";
    case JobStatus::kSucceeded: return "succeeded";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kDeadlineExpired: return "deadline_expired";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kRetrying: return "retrying";
  }
  return "?";
}

ProblemKind parse_problem_kind(const std::string& s) {
  if (s == "laplace") return ProblemKind::kLaplace;
  if (s == "channel" || s == "navier-stokes") return ProblemKind::kChannel;
  throw Error("unknown problem kind '" + s + "' (want laplace|channel)");
}

Strategy parse_strategy(const std::string& s) {
  if (s == "dp") return Strategy::kDp;
  if (s == "dal") return Strategy::kDal;
  if (s == "fd") return Strategy::kFd;
  throw Error("unknown strategy '" + s + "' (want dp|dal|fd)");
}

double default_deadline_ms_from_env() {
  const double v = env::get_double("UPDEC_SERVE_DEADLINE_MS", 0.0);
  return v > 0.0 ? v : 0.0;
}

RetryPolicy retry_policy_from_env() {
  RetryPolicy policy;
  policy.max_retries = static_cast<std::size_t>(env::get_u64(
      "UPDEC_SERVE_RETRIES", static_cast<std::uint64_t>(policy.max_retries)));
  policy.backoff_ms =
      std::max(0.0, env::get_double("UPDEC_SERVE_BACKOFF_MS",
                                    policy.backoff_ms));
  return policy;
}

namespace {

/// Everything a Laplace scenario family shares: the kernel, the assembled
/// problem (collocation + flux operators) and -- via memoize_lu -- the
/// factorisation. Immutable after construction, so one bundle serves any
/// number of concurrent jobs (GlobalCollocation's lazy LU is mutex-guarded,
/// and each DP strategy instance owns its private tape).
struct LaplaceBundle {
  std::unique_ptr<const rbf::Kernel> kernel;
  std::shared_ptr<control::LaplaceControlProblem> problem;
};

std::shared_ptr<const LaplaceBundle> laplace_bundle(OperatorCache& cache,
                                                    const Scenario& sc) {
  const rbf::PolyharmonicSpline probe_kernel(3);
  KeyBuilder kb("laplace-bundle");
  kb.add(static_cast<std::uint64_t>(sc.grid_n));
  kb.add(static_cast<std::int64_t>(sc.poly_degree));
  kb.add(fingerprint(probe_kernel));
  return cache.get_or_compute<LaplaceBundle>(
      kb.key(),
      [&cache, &sc] {
        UPDEC_TRACE_SCOPE("serve/build_laplace_bundle");
        auto bundle = std::make_shared<LaplaceBundle>();
        bundle->kernel = std::make_unique<rbf::PolyharmonicSpline>(3);
        bundle->problem = std::make_shared<control::LaplaceControlProblem>(
            sc.grid_n, *bundle->kernel, sc.poly_degree);
        // Level 2: the factorisation is ALSO cached under the matrix content
        // hash, so it survives bundle eviction and is shared with any other
        // bundle whose collocation matrix is bit-identical.
        memoize_lu(cache, bundle->problem->solver().collocation());
        const std::size_t ss =
            bundle->problem->solver().collocation().system_size();
        // Dominant storage: collocation matrix + flux/evaluation operators +
        // the (separately accounted but bundle-pinned) LU.
        return OperatorCache::Sized<LaplaceBundle>{
            std::move(bundle), 3 * ss * ss * sizeof(double)};
      },
      "bundle");
}

/// The adaptively refined family bundle: the cloud grown by
/// refine::AdaptiveLoop from the scenario's base grid, wrapped as a sparse
/// Laplace problem ready for per-job DAL runs. The adaptation itself runs
/// with a FIXED internal optimisation budget -- the artefact must depend on
/// the discretisation + refinement knobs only, never on a particular job's
/// iteration budget, or two jobs of the same family would disagree about
/// which cloud they share.
struct LaplaceRefinedBundle {
  std::unique_ptr<const rbf::Kernel> kernel;
  std::shared_ptr<rom::LaplaceFdControlProblem> problem;
};

std::shared_ptr<const LaplaceRefinedBundle> laplace_refined_bundle(
    OperatorCache& cache, const Scenario& sc) {
  const rbf::PolyharmonicSpline probe_kernel(3);
  refine::RefineConfig rc;
  rc.cycles = sc.refine_cycles;
  if (sc.refine_fraction > 0.0 && sc.refine_fraction < 1.0)
    rc.refine_fraction = sc.refine_fraction;
  KeyBuilder kb("laplace-refined-bundle");
  kb.add(static_cast<std::uint64_t>(sc.grid_n));
  kb.add(static_cast<std::int64_t>(sc.poly_degree));
  kb.add(fingerprint(probe_kernel));
  // The refinement level: every knob that shapes the adapted cloud. Two
  // levels must never alias (the cloud IS the artefact).
  kb.add(static_cast<std::uint64_t>(rc.cycles));
  kb.add(rc.refine_fraction);
  kb.add(rc.coarsen_fraction);
  kb.add(static_cast<std::uint64_t>(rc.max_nodes));
  return cache.get_or_compute<LaplaceRefinedBundle>(
      kb.key(),
      [&sc, &rc] {
        UPDEC_TRACE_SCOPE("serve/build_laplace_refined_bundle");
        auto bundle = std::make_shared<LaplaceRefinedBundle>();
        bundle->kernel = std::make_unique<rbf::PolyharmonicSpline>(3);
        refine::AdaptiveOptions options;
        options.refine = rc;
        refine::AdaptiveLoop loop(sc.grid_n, *bundle->kernel, options);
        bundle->problem = loop.run().problem;
        const la::CsrMatrix& m = bundle->problem->solver().op().matrix();
        const std::size_t bytes =
            (m.values().size() + m.col_idx().size()) * sizeof(double) +
            m.row_ptr().size() * sizeof(std::size_t);
        return OperatorCache::Sized<LaplaceRefinedBundle>{std::move(bundle),
                                                          bytes};
      },
      "refined-bundle");
}

/// A built job: the strategy plus whatever owns the problem's lifetime.
struct Built {
  std::shared_ptr<const control::ControlProblem> problem;
  std::unique_ptr<control::GradientStrategy> strategy;
  std::shared_ptr<const void> keepalive;
};

/// Channel problems are built per job (the projection solver caches state
/// internally and is not documented concurrency-safe), so only hold the
/// kernel + problem together.
struct ChannelHolder {
  rbf::PolyharmonicSpline kernel{3};
  std::shared_ptr<control::ChannelFlowControlProblem> problem;
};

Built build_job(const Scenario& sc, OperatorCache& cache) {
  Built built;
  if (sc.problem == ProblemKind::kLaplace) {
    if (sc.strategy == Strategy::kDal && sc.refine_cycles > 0) {
      // Refined-cloud serving: the job runs DAL on the adapted cloud, whose
      // band factorisation the bundle holds in memory.
      std::shared_ptr<const LaplaceRefinedBundle> bundle =
          laplace_refined_bundle(cache, sc);
      built.strategy = rom::make_laplace_fd_dal(bundle->problem);
      built.problem = bundle->problem;
      built.keepalive = bundle;
      return built;
    }
    std::shared_ptr<const LaplaceBundle> bundle = laplace_bundle(cache, sc);
    std::shared_ptr<const control::LaplaceControlProblem> problem =
        bundle->problem;
    switch (sc.strategy) {
      case Strategy::kDp:
        built.strategy = control::make_laplace_dp(problem);
        break;
      case Strategy::kDal:
        built.strategy = control::make_laplace_dal(problem);
        break;
      case Strategy::kFd:
        built.strategy = control::make_laplace_fd(problem, sc.fd_step);
        break;
    }
    built.problem = problem;
    built.keepalive = bundle;
  } else {
    auto holder = std::make_shared<ChannelHolder>();
    pc::ChannelSpec spec;
    spec.target_nodes = sc.target_nodes;
    pde::ChannelFlowConfig config;
    config.reynolds = sc.reynolds;
    holder->problem = std::make_shared<control::ChannelFlowControlProblem>(
        spec, holder->kernel, config);
    std::shared_ptr<const control::ChannelFlowControlProblem> problem =
        holder->problem;
    switch (sc.strategy) {
      case Strategy::kDp:
        built.strategy = control::make_channel_dp(problem);
        break;
      case Strategy::kDal:
        built.strategy = control::make_channel_dal(problem);
        break;
      case Strategy::kFd:
        built.strategy = control::make_channel_fd(problem);
        break;
    }
    built.problem = problem;
    built.keepalive = holder;
  }
  return built;
}

/// Milliseconds elapsed since `start`.
double elapsed_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// One attempt at a scenario: build (or fetch from cache), optimise, map the
/// driver outcome to a JobStatus. The deadline clock (`start`) is shared
/// across every attempt of the job, so retries and degraded attempts are
/// charged against the same budget as the first try. A degraded attempt
/// truncates the iteration budget and doubles the divergence-recovery
/// allowance -- best-effort, not best-quality.
JobReport run_attempt(const Scenario& scenario, OperatorCache& cache,
                      double effective_deadline_ms,
                      std::chrono::steady_clock::time_point start,
                      const std::function<bool()>& external_stop,
                      const RetryPolicy& policy, bool degraded_attempt) {
  JobReport report;
  report.id = scenario.id;
  report.status = JobStatus::kRunning;

  // The deadline and cancellation are observed cooperatively from
  // should_stop, which runs on this thread inside the driver loop, so
  // plain captured flags suffice to record which trigger fired.
  bool cancelled = false;
  bool deadline_expired = false;
  bool soft_degraded = false;

  try {
    // Deterministic fault sites for chaos testing (no-ops unless armed via
    // UPDEC_FAULTS): a latency spike, then a transient solve failure.
    if (UPDEC_FAULT_POINT("serve.solve_latency"))
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    if (UPDEC_FAULT_POINT("serve.solve_fault"))
      throw Error("injected transient solve fault");

    Built built = build_job(scenario, cache);

    la::Vector control = built.problem->initial_control();
    if (scenario.control_jitter > 0.0) {
      Rng rng(scenario.seed ? scenario.seed : 0x9E3779B97F4A7C15ull);
      for (std::size_t i = 0; i < control.size(); ++i)
        control[i] += rng.normal(0.0, scenario.control_jitter);
    }

    control::DriverOptions options;
    options.iterations = scenario.iterations;
    options.initial_learning_rate = scenario.learning_rate;
    if (degraded_attempt) {
      options.iterations = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 static_cast<double>(scenario.iterations) *
                 std::clamp(policy.degraded_iterations, 0.0, 1.0)));
      options.max_recoveries *= 2;
    }
    options.should_stop = [&]() {
      if (external_stop && external_stop()) {
        cancelled = true;
        return true;
      }
      if (effective_deadline_ms > 0.0 &&
          elapsed_ms_since(start) >= effective_deadline_ms) {
        deadline_expired = true;
        return true;
      }
      return false;
    };
    if (policy.soft_deadline_fraction > 0.0 && effective_deadline_ms > 0.0) {
      const double soft_ms =
          effective_deadline_ms * policy.soft_deadline_fraction;
      options.should_degrade = [&, soft_ms]() {
        if (elapsed_ms_since(start) >= soft_ms) {
          soft_degraded = true;
          return true;
        }
        return false;
      };
    }

    control::DriverResult result =
        control::optimize_from(std::move(control), *built.strategy, options);

    report.final_cost = result.final_cost;
    report.iterations = result.iterations;
    report.cost_history = std::move(result.cost_history);
    if (!result.grad_norm_history.empty())
      report.achieved_tolerance = result.grad_norm_history.back();
    if (result.aborted) {
      report.status = JobStatus::kFailed;
      report.error = "divergence recovery budget exhausted";
    } else if (cancelled) {
      report.status = JobStatus::kCancelled;
    } else if (deadline_expired) {
      report.status = JobStatus::kDeadlineExpired;
    } else {
      report.status = JobStatus::kSucceeded;
      report.degraded = degraded_attempt || soft_degraded;
    }
  } catch (const std::exception& e) {
    report.status = JobStatus::kFailed;
    report.error = e.what();
  } catch (...) {
    report.status = JobStatus::kFailed;
    report.error = "unknown exception";
  }
  return report;
}

/// Sleep `delay_ms` in small slices, polling `external_stop` between slices
/// so cancellation interrupts a backoff promptly. Returns false iff stopped.
bool backoff_sleep(double delay_ms, const std::function<bool()>& stop) {
  const auto start = std::chrono::steady_clock::now();
  while (elapsed_ms_since(start) < delay_ms) {
    if (stop && stop()) return false;
    const double remaining = delay_ms - elapsed_ms_since(start);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        std::min(remaining, 5.0)));
  }
  return !(stop && stop());
}

}  // namespace

JobReport run_scenario(const Scenario& scenario, OperatorCache& cache,
                       double deadline_ms,
                       const std::function<bool()>& external_stop,
                       const std::optional<RetryPolicy>& retry,
                       const std::function<void(JobStatus)>& on_status) {
  UPDEC_TRACE_SCOPE("serve/run_scenario");
  const RetryPolicy policy = retry ? *retry : retry_policy_from_env();
  const double effective_deadline_ms =
      scenario.deadline_ms > 0.0 ? scenario.deadline_ms : deadline_ms;
  const auto start = std::chrono::steady_clock::now();
  const Stopwatch watch;
  const auto notify = [&](JobStatus s) {
    if (on_status) on_status(s);
  };
  notify(JobStatus::kRunning);

  // Backoff jitter is drawn from the job's own seeded stream (never a
  // global one) so chaos runs replay bit-identically.
  Rng jitter_rng(scenario.seed ^ 0xB0FFC0FFEE5EEDull);

  JobReport report;
  std::size_t attempts = 0;
  std::size_t retries_taken = 0;
  for (;;) {
    ++attempts;
    report = run_attempt(scenario, cache, effective_deadline_ms, start,
                         external_stop, policy, /*degraded_attempt=*/false);
    if (report.status != JobStatus::kFailed) break;  // resolved, one way or another

    // Transient failure. First spend the retry budget...
    if (retries_taken < policy.max_retries) {
      double delay_ms = std::min(
          policy.backoff_ms *
              std::pow(policy.backoff_multiplier,
                       static_cast<double>(retries_taken)),
          policy.max_backoff_ms);
      delay_ms = std::max(
          0.0, delay_ms * (1.0 + policy.jitter * jitter_rng.uniform(-1., 1.)));
      const double remaining_ms =
          effective_deadline_ms > 0.0
              ? effective_deadline_ms - elapsed_ms_since(start)
              : std::numeric_limits<double>::infinity();
      if (delay_ms >= remaining_ms) {
        // The backoff alone would blow the deadline: stop deterministically
        // instead of spinning into it.
        report.status = JobStatus::kDeadlineExpired;
        report.error = "retry budget exceeds deadline: " + report.error;
        UPDEC_METRIC_ADD("serve/jobs.gave_up", 1);
        log_warn() << "serve job '" << report.id
                   << "': no deadline budget for retry " << retries_taken + 1
                   << "; giving up";
        break;
      }
      ++retries_taken;
      UPDEC_METRIC_ADD("serve/jobs.retries", 1);
      log_info() << "serve job '" << report.id << "': attempt " << attempts
                 << " failed (" << report.error << "); retry "
                 << retries_taken << "/" << policy.max_retries << " in "
                 << delay_ms << " ms";
      notify(JobStatus::kRetrying);
      if (!backoff_sleep(delay_ms, external_stop)) {
        report.status = JobStatus::kCancelled;
        report.error.clear();
        break;
      }
      notify(JobStatus::kRunning);
      continue;
    }

    // ...then, budget gone, degrade rather than hard-fail if allowed.
    if (policy.allow_degraded) {
      ++attempts;
      JobReport degraded =
          run_attempt(scenario, cache, effective_deadline_ms, start,
                      external_stop, policy, /*degraded_attempt=*/true);
      if (degraded.status == JobStatus::kSucceeded) {
        log_warn() << "serve job '" << report.id
                   << "': degraded best-effort result after " << attempts
                   << " attempts (grad norm " << degraded.achieved_tolerance
                   << ")";
        report = std::move(degraded);
        break;
      }
      if (degraded.status != JobStatus::kFailed) {
        report = std::move(degraded);  // cancelled / deadline during fallback
        break;
      }
      report.error += "; degraded fallback also failed: " + degraded.error;
    }
    UPDEC_METRIC_ADD("serve/jobs.gave_up", 1);
    break;  // kFailed stands
  }

  report.attempts = attempts;
  report.retries = retries_taken;
  report.seconds = watch.seconds();
  if (metrics::enabled()) {
    metrics::observe("serve/job.seconds", report.seconds);
    if (report.degraded) metrics::counter_add("serve/jobs.degraded");
    switch (report.status) {
      case JobStatus::kSucceeded:
        metrics::counter_add("serve/jobs.succeeded");
        break;
      case JobStatus::kCancelled:
        metrics::counter_add("serve/jobs.cancelled");
        break;
      case JobStatus::kDeadlineExpired:
        metrics::counter_add("serve/jobs.deadline_expired");
        break;
      default:
        metrics::counter_add("serve/jobs.failed");
        break;
    }
  }
  if (report.status == JobStatus::kFailed)
    log_warn() << "serve job '" << report.id << "' failed after "
               << report.attempts << " attempts: " << report.error;
  return report;
}

Scheduler::Scheduler(SchedulerOptions options)
    : cache_(options.cache != nullptr ? options.cache : &global_cache()),
      default_deadline_ms_(options.default_deadline_ms < 0.0
                               ? default_deadline_ms_from_env()
                               : options.default_deadline_ms),
      retry_(options.retry ? *options.retry : retry_policy_from_env()) {
  const std::size_t n_shards =
      options.shards ? *options.shards : shards_from_env();
  if (n_shards > 0) {
    // Shard mode: fork the worker processes FIRST (ShardPool's constructor
    // forks before starting any thread), then wire results back into the
    // promise/completion-queue machinery.
    ShardOptions shard_options;
    shard_options.shards = n_shards;
    shard_options.default_deadline_ms = default_deadline_ms_;
    shard_options.retry = retry_;
    shards_ = std::make_unique<ShardPool>(shard_options);
    shards_->set_on_result([this](std::size_t shard_job, JobReport&& report) {
      std::shared_ptr<JobState> state;
      JobId id = 0;
      {
        std::lock_guard lock(jobs_mutex_);
        const auto it = shard_to_job_.find(shard_job);
        if (it == shard_to_job_.end()) return;
        id = it->second;
        state = jobs_.at(id);
      }
      finish_job(id, state, std::move(report));
    });
    shards_->set_on_status([this](std::size_t shard_job, JobStatus live) {
      std::lock_guard lock(jobs_mutex_);
      const auto it = shard_to_job_.find(shard_job);
      if (it == shard_to_job_.end()) return;
      jobs_.at(it->second)->live.store(live, std::memory_order_relaxed);
    });
  } else {
    pool_ = std::make_unique<ThreadPool>(options.threads, options.max_queue);
  }
}

Scheduler::~Scheduler() {
  if (pool_) pool_->shutdown();
  shards_.reset();  // drains + reaps workers
}

void Scheduler::finish_job(JobId id, const std::shared_ptr<JobState>& state,
                           JobReport&& report) {
  state->live.store(report.status, std::memory_order_relaxed);
  state->done.store(true, std::memory_order_release);
  JobReport copy = report;
  state->promise.set_value(std::move(report));
  {
    std::lock_guard lock(jobs_mutex_);
    completed_.emplace_back(id, std::move(copy));
    if (unstreamed_ > 0) --unstreamed_;
  }
  completed_cv_.notify_all();
}

Scheduler::JobId Scheduler::submit(Scenario scenario) {
  auto state = std::make_shared<JobState>();
  state->scenario = std::move(scenario);
  state->future = state->promise.get_future().share();
  JobId id = 0;
  {
    std::lock_guard lock(jobs_mutex_);
    id = next_id_++;
    jobs_.emplace(id, state);
    ++unstreamed_;
    if (shards_) {
      // Register the mapping under the lock: the dispatcher's result
      // callback blocks on it until we are done, so a fast completion can
      // never miss its JobId.
      state->shard_job = shards_->submit(state->scenario);
      shard_to_job_.emplace(state->shard_job, id);
    }
  }
  UPDEC_METRIC_ADD("serve/jobs.submitted", 1);
  if (shards_) return id;
  pool_->submit([this, id, state, deadline = default_deadline_ms_,
                 cache = cache_, retry = retry_] {
    JobReport report;
    if (state->cancelled.load(std::memory_order_relaxed)) {
      // Cancelled before it ever ran: resolve without building anything.
      report.id = state->scenario.id;
      report.status = JobStatus::kCancelled;
      UPDEC_METRIC_ADD("serve/jobs.cancelled", 1);
    } else {
      report = run_scenario(
          state->scenario, *cache, deadline,
          [state] {
            return state->cancelled.load(std::memory_order_relaxed);
          },
          retry,
          [state](JobStatus live) {
            state->live.store(live, std::memory_order_relaxed);
          });
    }
    finish_job(id, state, std::move(report));
  });
  return id;
}

JobStatus Scheduler::status(JobId id) const {
  std::lock_guard lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  UPDEC_REQUIRE(it != jobs_.end(), "Scheduler::status: unknown job id");
  return it->second->live.load(std::memory_order_relaxed);
}

bool Scheduler::cancel(JobId id) {
  std::shared_ptr<JobState> state;
  {
    std::lock_guard lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    state = it->second;
  }
  state->cancelled.store(true, std::memory_order_relaxed);
  if (shards_) {
    // The pool resolves a queued job right here (through the result
    // callback) or ships a kCancel frame to the owning worker.
    return shards_->cancel(state->shard_job);
  }
  return !state->done.load(std::memory_order_acquire);
}

std::optional<std::pair<Scheduler::JobId, JobReport>>
Scheduler::try_next_completed() {
  std::lock_guard lock(jobs_mutex_);
  if (completed_.empty()) return std::nullopt;
  auto out = std::move(completed_.front());
  completed_.pop_front();
  return out;
}

std::optional<std::pair<Scheduler::JobId, JobReport>>
Scheduler::next_completed() {
  std::unique_lock lock(jobs_mutex_);
  completed_cv_.wait(lock, [this] {
    return !completed_.empty() || unstreamed_ == 0;
  });
  if (completed_.empty()) return std::nullopt;
  auto out = std::move(completed_.front());
  completed_.pop_front();
  return out;
}

std::size_t Scheduler::shard_count() const {
  return shards_ ? shards_->shard_count() : 0;
}

OperatorCache::Stats Scheduler::cache_stats() {
  OperatorCache::Stats stats = cache_->stats();
  if (!shards_) return stats;
  const OperatorCache::Stats workers = shards_->collect_stats();
  stats.hits += workers.hits;
  stats.misses += workers.misses;
  stats.evictions += workers.evictions;
  stats.inflight_waits += workers.inflight_waits;
  stats.bytes += workers.bytes;
  stats.entries += workers.entries;
  stats.byte_budget = std::max(stats.byte_budget, workers.byte_budget);
  for (const auto& [name, cs] : workers.by_class) {
    OperatorCache::ClassStats& out = stats.by_class[name];
    out.hits += cs.hits;
    out.misses += cs.misses;
    out.evictions += cs.evictions;
    out.bytes += cs.bytes;
    out.entries += cs.entries;
  }
  stats.disk.hits += workers.disk.hits;
  stats.disk.misses += workers.disk.misses;
  stats.disk.writes += workers.disk.writes;
  stats.disk.corrupt += workers.disk.corrupt;
  stats.disk.errors += workers.disk.errors;
  return stats;
}

JobReport Scheduler::wait(JobId id) {
  std::shared_future<JobReport> future;
  {
    std::lock_guard lock(jobs_mutex_);
    const auto it = jobs_.find(id);
    UPDEC_REQUIRE(it != jobs_.end(), "Scheduler::wait: unknown job id");
    future = it->second->future;
  }
  return future.get();
}

std::vector<JobReport> Scheduler::wait_all() {
  std::vector<std::shared_future<JobReport>> futures;
  {
    std::lock_guard lock(jobs_mutex_);
    futures.reserve(jobs_.size());
    for (const auto& [id, state] : jobs_) futures.push_back(state->future);
  }
  std::vector<JobReport> reports;
  reports.reserve(futures.size());
  for (auto& f : futures) reports.push_back(f.get());
  return reports;
}

}  // namespace updec::serve
