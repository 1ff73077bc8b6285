#include "serve/shard.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "serve/wire.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace updec::serve {

std::size_t shards_from_env() {
  return static_cast<std::size_t>(env::get_u64("UPDEC_SERVE_SHARDS", 0));
}

bool steal_from_env() { return env::get_bool("UPDEC_SERVE_STEAL", true); }

std::uint64_t scenario_fingerprint(const Scenario& scenario) {
  // Exactly the fields the bundle caches key on: two scenarios that share
  // discretisation artefacts MUST share a fingerprint (shard affinity is the
  // whole point), and id/seed/budget fields MUST NOT perturb routing.
  KeyBuilder kb("shard-route");
  kb.add(static_cast<std::uint64_t>(scenario.problem));
  if (scenario.problem == ProblemKind::kLaplace) {
    kb.add(static_cast<std::uint64_t>(scenario.grid_n));
  } else {
    kb.add(static_cast<std::uint64_t>(scenario.target_nodes));
    kb.add(scenario.reynolds);
  }
  kb.add(static_cast<std::int64_t>(scenario.poly_degree));
  // Refinement level: a refined cloud is a different discretisation family
  // than the uniform one (and than any other cycle count / fraction), so it
  // must route to its own shard affinity, mirroring the refined-bundle key.
  kb.add(static_cast<std::uint64_t>(scenario.refine_cycles));
  kb.add(scenario.refine_fraction);
  const CacheKey key = kb.key();
  return key.hi ^ key.lo;
}

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Counter-like cache fields: accumulate cur-prev into `acc` (prev is the
/// last snapshot already accounted for, so repeated collections never
/// double-count).
void add_cache_counter_deltas(OperatorCache::Stats& acc,
                              const OperatorCache::Stats& prev,
                              const OperatorCache::Stats& cur) {
  acc.hits += cur.hits - prev.hits;
  acc.misses += cur.misses - prev.misses;
  acc.evictions += cur.evictions - prev.evictions;
  acc.inflight_waits += cur.inflight_waits - prev.inflight_waits;
  acc.disk.hits += cur.disk.hits - prev.disk.hits;
  acc.disk.misses += cur.disk.misses - prev.disk.misses;
  acc.disk.writes += cur.disk.writes - prev.disk.writes;
  acc.disk.corrupt += cur.disk.corrupt - prev.disk.corrupt;
  acc.disk.errors += cur.disk.errors - prev.disk.errors;
  for (const auto& [name, cs] : cur.by_class) {
    OperatorCache::ClassStats prev_cs;
    const auto it = prev.by_class.find(name);
    if (it != prev.by_class.end()) prev_cs = it->second;
    OperatorCache::ClassStats& out = acc.by_class[name];
    out.hits += cs.hits - prev_cs.hits;
    out.misses += cs.misses - prev_cs.misses;
    out.evictions += cs.evictions - prev_cs.evictions;
  }
}

/// Resident (point-in-time) cache fields: add a live worker's CURRENT
/// residency on top of the accumulated counters.
void add_cache_resident(OperatorCache::Stats& out,
                        const OperatorCache::Stats& cur) {
  out.bytes += cur.bytes;
  out.entries += cur.entries;
  out.byte_budget = std::max(out.byte_budget, cur.byte_budget);
  for (const auto& [name, cs] : cur.by_class) {
    OperatorCache::ClassStats& o = out.by_class[name];
    o.bytes += cs.bytes;
    o.entries += cs.entries;
  }
}

// ---- worker side ---------------------------------------------------------

/// The forked worker's whole life: blocking frame loop on its socket. Runs
/// run_scenario exactly as the in-process scheduler would -- same retry
/// ladder, same seeded jitter -- so results are bitwise-identical to a
/// single-process run. Exits via _exit (never returns): atexit handlers
/// (metrics dump) belong to the parent, and static destructors must not run
/// against fork-inherited state.
[[noreturn]] void worker_main(int fd) {
  // The registry contents were inherited by fork; without a reset the
  // parent's pre-fork counters would be shipped back and double-counted.
  metrics::reset();
  // Likewise the global cache may have been CONSTRUCTED in the parent (the
  // Scheduler touches it) before UPDEC_CACHE_DIR reached its serving value;
  // re-arm the persistent tier from this worker's own environment so warm
  // restarts and steal-warming actually reach the shared disk directory.
  global_cache().rearm_disk(cache_dir_from_env());
#if defined(_OPENMP)
  // One core per worker: the process fan-out IS the parallelism, and a
  // post-fork OpenMP team inside each worker would oversubscribe (and trip
  // TSan's multi-threaded-fork checking).
  omp_set_num_threads(1);
#endif
  wire::FrameReader reader(fd);
  bool shutdown_requested = false;
  std::uint64_t current_job = 0;
  bool have_job = false;
  bool cancelled = false;

  const auto send_stats = [&] {
    wire::StatsFrame sf;
    sf.counters = metrics::counters_snapshot();
    sf.cache = global_cache().stats();
    (void)wire::write_frame_fd(
        fd, {wire::FrameType::kStats, wire::encode_stats(sf)});
  };

  // Control frames can arrive mid-job; the cancellation callback drains
  // them between optimisation iterations (the worker is single-threaded, so
  // this never races the main loop).
  const auto handle_control = [&](const wire::Frame& frame) {
    switch (frame.type) {
      case wire::FrameType::kCancel: {
        const wire::CancelFrame cf = wire::decode_cancel(frame.payload);
        if (have_job && cf.job_id == current_job) cancelled = true;
        break;
      }
      case wire::FrameType::kStatsRequest:
        send_stats();
        break;
      case wire::FrameType::kShutdown:
        shutdown_requested = true;
        break;
      default:
        break;  // kJob cannot arrive mid-job (one in flight per worker)
    }
  };

  for (;;) {
    std::optional<wire::Frame> frame;
    try {
      frame = reader.read_blocking();
    } catch (const std::exception&) {
      _exit(2);  // malformed stream: parent and worker lost sync
    }
    if (!frame) _exit(0);  // parent closed its end: orphaned, fold quietly
    switch (frame->type) {
      case wire::FrameType::kJob: {
        wire::JobFrame job;
        try {
          job = wire::decode_job(frame->payload);
        } catch (const std::exception&) {
          _exit(2);
        }
        current_job = job.job_id;
        have_job = true;
        cancelled = false;
        const auto external_stop = [&]() -> bool {
          try {
            while (auto ctrl = reader.poll_frame()) handle_control(*ctrl);
          } catch (const std::exception&) {
            _exit(2);
          }
          return cancelled || shutdown_requested;
        };
        JobReport report =
            run_scenario(job.scenario, global_cache(), job.deadline_ms,
                         external_stop, job.retry, {});
        have_job = false;
        wire::ResultFrame result{job.job_id, std::move(report)};
        if (!wire::write_frame_fd(fd, {wire::FrameType::kResult,
                                       wire::encode_result(result)}))
          _exit(0);
        if (shutdown_requested) {
          send_stats();
          _exit(0);
        }
        break;
      }
      case wire::FrameType::kCancel:
        break;  // raced a finished job: stale, ignore
      case wire::FrameType::kStatsRequest:
        send_stats();
        break;
      case wire::FrameType::kShutdown:
        send_stats();
        _exit(0);
      default:
        _exit(2);  // kResult/kStats from the parent: protocol violation
    }
  }
}

}  // namespace

// ---- parent side ---------------------------------------------------------

struct ShardPool::Impl {
  struct Job {
    enum class State : std::uint8_t { kQueued, kInflight, kDone };
    Scenario scenario;
    std::size_t home = 0;       ///< fingerprint shard (queue membership)
    std::size_t running_on = 0; ///< worker executing it (may differ: steal)
    std::size_t resubmits = 0;  ///< crash resubmissions so far
    bool cancel_requested = false;
    bool cancel_sent = false;  ///< kCancel frame already written
    State state = State::kQueued;
  };

  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    std::unique_ptr<wire::FrameReader> reader;
    std::deque<JobId> queue;  ///< routed here, not yet dispatched
    bool busy = false;
    JobId inflight = 0;
    Clock::time_point dispatch_time;
    double inflight_deadline_ms = 0.0;
    std::size_t jobs_done = 0;
    std::size_t steals = 0;
    std::size_t restarts = 0;
    // Cross-process stats aggregation state.
    std::map<std::string, std::uint64_t> merged_counters;  ///< last merged
    OperatorCache::Stats merged_cache;  ///< last cumulative snapshot merged
    OperatorCache::Stats latest_cache;  ///< newest snapshot (residency)
    bool have_cache = false;
    std::uint64_t stats_sent_gen = 0;
    std::uint64_t stats_ack_gen = 0;
  };

  ShardOptions opts;
  double default_deadline_ms = 0.0;
  RetryPolicy retry;
  bool steal = true;

  int wake_read = -1;
  int wake_write = -1;
  std::thread dispatcher;
  std::size_t predump_token = 0;

  mutable std::mutex mutex;
  std::condition_variable cv;
  std::vector<Worker> workers;
  std::map<JobId, Job> jobs;
  JobId next_id = 1;
  std::size_t outstanding = 0;
  bool shutting_down = false;
  std::uint64_t stats_gen = 0;       ///< bumped by collect_stats()
  std::uint64_t stats_done_gen = 0;  ///< min ack across live workers
  OperatorCache::Stats accumulated;  ///< counter fields, all generations
  ResultCallback on_result;
  StatusCallback on_status;

  void wake() {
    const char b = 'w';
    ssize_t r;
    do {
      r = ::write(wake_write, &b, 1);
    } while (r < 0 && errno == EINTR);
  }

  /// Fork one worker for slot `idx`. Caller must ensure no dispatcher races
  /// (ctor: no thread yet; respawn: dispatcher thread itself).
  bool spawn(std::size_t idx) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      log_warn() << "shard: socketpair failed: " << std::strerror(errno);
      return false;
    }
    // Flush stdio first: the child inherits unwritten buffers, and its first
    // log line on std::cerr (tied to std::cout) would write them again.
    std::cout.flush();
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      log_warn() << "shard: fork failed: " << std::strerror(errno);
      ::close(sv[0]);
      ::close(sv[1]);
      return false;
    }
    if (pid == 0) {
      // Child: keep only our socket end. Inherited parent ends of sibling
      // workers would otherwise hold their sockets open past the siblings'
      // death, masking EOFs in the parent.
      ::close(sv[0]);
      if (wake_read >= 0) ::close(wake_read);
      if (wake_write >= 0) ::close(wake_write);
      for (const Worker& other : workers)
        if (other.fd >= 0) ::close(other.fd);
      worker_main(sv[1]);  // noreturn
    }
    ::close(sv[1]);
    Worker& w = workers[idx];
    w.pid = pid;
    w.fd = sv[0];
    w.reader = std::make_unique<wire::FrameReader>(sv[0]);
    w.busy = false;
    w.inflight = 0;
    // A fresh process starts with zeroed counters/cache: reset the merge
    // baselines so its first snapshot is taken at face value.
    w.merged_counters.clear();
    w.merged_cache = {};
    w.latest_cache = {};
    w.have_cache = false;
    w.stats_sent_gen = w.stats_ack_gen = stats_gen;
    return true;
  }

  /// Tear down a dead worker's parent-side state and deal with its
  /// in-flight job. Caller holds `mutex`; returns callbacks to run after
  /// the lock is released.
  struct Resolution {
    JobId id = 0;
    JobReport report;
    bool is_status_only = false;
    JobStatus status = JobStatus::kRetrying;
  };

  void close_worker(Worker& w) {
    if (w.fd >= 0) ::close(w.fd);
    w.fd = -1;
    w.reader.reset();
    if (w.pid > 0) {
      int status = 0;
      (void)::waitpid(w.pid, &status, 0);
    }
    w.pid = -1;
    // Its residency is gone; the counters merged so far stay merged. Any
    // unmerged tail (work since the last stats collection) is lost -- the
    // price of a crash, documented in docs/SERVING.md.
    w.have_cache = false;
    w.latest_cache = {};
  }

  /// Handle worker death (crash, kill or reap). `reaped_for_deadline`
  /// selects kDeadlineExpired over the resubmit path for the in-flight job.
  void handle_death(std::size_t idx, bool reaped_for_deadline,
                    std::vector<Resolution>& out) {
    Worker& w = workers[idx];
    const pid_t dead_pid = w.pid;
    close_worker(w);
    if (w.busy) {
      const JobId id = w.inflight;
      w.busy = false;
      w.inflight = 0;
      auto it = jobs.find(id);
      if (it != jobs.end() && it->second.state == Job::State::kInflight) {
        Job& job = it->second;
        if (reaped_for_deadline) {
          job.state = Job::State::kDone;
          Resolution r;
          r.id = id;
          r.report.id = job.scenario.id;
          r.report.status = JobStatus::kDeadlineExpired;
          r.report.error = "worker stalled past deadline; reaped";
          out.push_back(std::move(r));
        } else if (job.cancel_requested) {
          job.state = Job::State::kDone;
          Resolution r;
          r.id = id;
          r.report.id = job.scenario.id;
          r.report.status = JobStatus::kCancelled;
          out.push_back(std::move(r));
        } else if (job.resubmits >= retry.max_retries) {
          job.state = Job::State::kDone;
          Resolution r;
          r.id = id;
          r.report.id = job.scenario.id;
          r.report.status = JobStatus::kFailed;
          r.report.attempts = job.resubmits + 1;
          r.report.error = "worker (pid " + std::to_string(dead_pid) +
                           ") died with the job in flight; resubmit budget "
                           "exhausted";
          out.push_back(std::move(r));
        } else {
          ++job.resubmits;
          job.state = Job::State::kQueued;
          workers[job.home].queue.push_front(id);
          UPDEC_METRIC_ADD("serve/shard.resubmitted", 1);
          Resolution r;
          r.id = id;
          r.is_status_only = true;
          r.status = JobStatus::kRetrying;
          out.push_back(std::move(r));
        }
      }
    }
    if (!shutting_down) {
      ++w.restarts;
      UPDEC_METRIC_ADD("serve/shard.restarts", 1);
      log_warn() << "shard " << idx << ": worker (pid " << dead_pid
                 << ") died; respawning (restart " << w.restarts << ")";
      if (!spawn(idx)) {
        // Permanent loss: hand the queue to the next shard so nothing
        // starves. Stealing would also drain it, but may be disabled.
        const std::size_t fallback = (idx + 1) % workers.size();
        while (!w.queue.empty()) {
          workers[fallback].queue.push_back(w.queue.front());
          w.queue.pop_front();
        }
      }
    }
    refresh_stats_done();
  }

  /// Merge one kStats reply. Caller holds `mutex`.
  void merge_stats(Worker& w, const wire::StatsFrame& frame) {
    for (const auto& sample : frame.counters) {
      std::uint64_t& merged = w.merged_counters[sample.name];
      if (sample.value > merged)
        metrics::counter_add(sample.name.c_str(), sample.value - merged);
      merged = sample.value;
    }
    add_cache_counter_deltas(accumulated, w.merged_cache, frame.cache);
    w.merged_cache = frame.cache;
    w.latest_cache = frame.cache;
    w.have_cache = true;
    w.stats_ack_gen = w.stats_sent_gen;
    refresh_stats_done();
  }

  void refresh_stats_done() {
    std::uint64_t done = stats_gen;
    for (const Worker& w : workers)
      if (w.pid > 0) done = std::min(done, w.stats_ack_gen);
    stats_done_gen = done;
    cv.notify_all();
  }
};

ShardPool::ShardPool(ShardOptions options) : impl_(new Impl) {
  impl_->opts = options;
  n_shards_ = options.shards != 0 ? options.shards
                                  : std::max<std::size_t>(1, shards_from_env());
  steal_ = options.steal ? *options.steal : steal_from_env();
  impl_->steal = steal_;
  impl_->default_deadline_ms = options.default_deadline_ms < 0.0
                                   ? default_deadline_ms_from_env()
                                   : options.default_deadline_ms;
  impl_->retry = options.retry ? *options.retry : retry_policy_from_env();

  int pipefd[2];
  UPDEC_REQUIRE(::pipe(pipefd) == 0, "ShardPool: pipe failed");
  impl_->wake_read = pipefd[0];
  impl_->wake_write = pipefd[1];
  // The dispatcher drains the wake pipe dry each loop; a blocking read end
  // would wedge it once empty.
  (void)::fcntl(impl_->wake_read, F_SETFL, O_NONBLOCK);

  impl_->workers.resize(n_shards_);
  // Fork every worker BEFORE the dispatcher thread exists: a
  // single-threaded fork inherits nothing that can deadlock the child.
  for (std::size_t i = 0; i < n_shards_; ++i) {
    UPDEC_REQUIRE(impl_->spawn(i), "ShardPool: cannot fork initial worker");
  }
  UPDEC_METRIC_GAUGE_SET("serve/shard.count",
                         static_cast<double>(n_shards_));

  // Keep the atexit/bench metrics dump truthful: pull worker counters in
  // before any registry snapshot is written.
  ShardPool* self = this;
  impl_->predump_token = metrics::register_predump_hook([self] {
    (void)self->collect_stats();
  });

  impl_->dispatcher = std::thread([this] {
    Impl& im = *impl_;
    std::vector<Impl::Resolution> resolutions;
    std::vector<std::pair<JobId, JobReport>> results;
    for (;;) {
      resolutions.clear();
      results.clear();
      bool done = false;
      {
        std::unique_lock<std::mutex> lock(im.mutex);
        if (im.shutting_down && im.outstanding == 0) done = true;
      }
      if (done) break;

      // Phase 1 (under lock): pick dispatches and stats requests.
      struct Dispatch {
        std::size_t worker;
        int fd;
        pid_t pid;
        wire::JobFrame frame;
      };
      std::vector<Dispatch> dispatches;
      std::vector<std::pair<int, std::uint64_t>> cancels;  // fd, job_id
      std::vector<int> stats_requests;
      {
        std::unique_lock<std::mutex> lock(im.mutex);
        for (std::size_t i = 0; i < im.workers.size(); ++i) {
          Impl::Worker& w = im.workers[i];
          while (w.pid > 0 && !w.busy) {
            JobId id = 0;
            if (!w.queue.empty()) {
              id = w.queue.front();
              w.queue.pop_front();
            } else if (im.steal) {
              // Steal from the most-loaded queue's BACK: the victim keeps
              // the jobs it will reach soonest, the thief warms its cache
              // once through the shared disk tier.
              std::size_t victim = i;
              std::size_t depth = 0;
              for (std::size_t j = 0; j < im.workers.size(); ++j) {
                if (j == i) continue;
                if (im.workers[j].queue.size() > depth) {
                  depth = im.workers[j].queue.size();
                  victim = j;
                }
              }
              if (depth > 0) {
                id = im.workers[victim].queue.back();
                im.workers[victim].queue.pop_back();
                ++w.steals;
                UPDEC_METRIC_ADD("serve/shard.steals", 1);
              }
            }
            if (id == 0) break;  // nothing routable to this worker
            auto it = im.jobs.find(id);
            if (it == im.jobs.end() ||
                it->second.state != Impl::Job::State::kQueued)
              continue;  // defensive: stale queue entry, try the next one
            Impl::Job& job = it->second;
            job.state = Impl::Job::State::kInflight;
            job.running_on = i;
            w.busy = true;
            w.inflight = id;
            w.dispatch_time = Clock::now();
            w.inflight_deadline_ms = job.scenario.deadline_ms > 0.0
                                         ? job.scenario.deadline_ms
                                         : im.default_deadline_ms;
            Dispatch d;
            d.worker = i;
            d.fd = w.fd;
            d.pid = w.pid;
            d.frame.job_id = id;
            d.frame.deadline_ms = im.default_deadline_ms;
            d.frame.retry = im.retry;
            d.frame.scenario = job.scenario;
            dispatches.push_back(std::move(d));
            Impl::Resolution r;
            r.id = id;
            r.is_status_only = true;
            r.status = JobStatus::kRunning;
            resolutions.push_back(std::move(r));
          }
        }
        for (std::size_t i = 0; i < im.workers.size(); ++i) {
          Impl::Worker& w = im.workers[i];
          if (w.pid <= 0) continue;
          if (w.stats_sent_gen < im.stats_gen) {
            w.stats_sent_gen = im.stats_gen;
            stats_requests.push_back(w.fd);
          }
          // Cancels for this worker's in-flight job.
          if (w.busy) {
            auto it = im.jobs.find(w.inflight);
            if (it != im.jobs.end() && it->second.cancel_requested &&
                !it->second.cancel_sent) {
              it->second.cancel_sent = true;
              cancels.emplace_back(w.fd, w.inflight);
            }
          }
        }
      }

      // Phase 2 (no lock): socket writes. A failed write means the worker
      // is dead; the poll below sees the EOF and handles it.
      for (const Dispatch& d : dispatches) {
        (void)wire::write_frame_fd(
            d.fd, {wire::FrameType::kJob, wire::encode_job(d.frame)});
        // Chaos site: the PARENT kills a worker right after dispatch. The
        // armed count lives in this process, so one arming kills exactly
        // one worker (a worker-side site would re-arm on every respawn).
        if (UPDEC_FAULT_POINT("serve.shard_kill")) {
          log_warn() << "shard: fault injection killing worker pid " << d.pid;
          (void)::kill(d.pid, SIGKILL);
        }
      }
      for (const auto& [fd, job_id] : cancels)
        (void)wire::write_frame_fd(
            fd, {wire::FrameType::kCancel, wire::encode_cancel({job_id})});
      for (const int fd : stats_requests)
        (void)wire::write_frame_fd(fd,
                                   {wire::FrameType::kStatsRequest, {}});

      // Phase 3: poll. Timeout only needed to enforce deadline reaps.
      std::vector<pollfd> pfds;
      std::vector<std::size_t> pfd_worker;
      pfds.push_back({im.wake_read, POLLIN, 0});
      pfd_worker.push_back(static_cast<std::size_t>(-1));
      int timeout_ms = -1;
      {
        std::unique_lock<std::mutex> lock(im.mutex);
        for (std::size_t i = 0; i < im.workers.size(); ++i) {
          Impl::Worker& w = im.workers[i];
          if (w.pid <= 0) continue;
          pfds.push_back({w.fd, POLLIN, 0});
          pfd_worker.push_back(i);
          if (w.busy && w.inflight_deadline_ms > 0.0) {
            const double remaining =
                std::min(w.inflight_deadline_ms + im.opts.reap_grace_ms -
                             ms_since(w.dispatch_time),
                         3.6e6);
            const int t = std::max(1, static_cast<int>(remaining) + 1);
            timeout_ms = timeout_ms < 0 ? t : std::min(timeout_ms, t);
          }
        }
      }
      // Status transitions picked in phase 1 (kRunning at dispatch) are
      // delivered in phase 5: do not block before getting there, or a job
      // reads kPending until its result wakes this loop.
      if (!resolutions.empty()) timeout_ms = 0;
      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
      } while (rc < 0 && errno == EINTR);

      if (pfds[0].revents & POLLIN) {
        char buf[64];
        while (::read(im.wake_read, buf, sizeof buf) > 0) {
        }
      }

      // Phase 4 (under lock): read results/stats, reap deaths + deadlines.
      {
        std::unique_lock<std::mutex> lock(im.mutex);
        for (std::size_t p = 1; p < pfds.size(); ++p) {
          const std::size_t i = pfd_worker[p];
          Impl::Worker& w = im.workers[i];
          if (w.pid <= 0 || w.fd != pfds[p].fd) continue;  // already replaced
          if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR))) continue;
          bool alive = true;
          try {
            alive = w.reader->read_available();
            while (auto frame = w.reader->next_frame()) {
              if (frame->type == wire::FrameType::kResult) {
                const wire::ResultFrame res =
                    wire::decode_result(frame->payload);
                auto it = im.jobs.find(res.job_id);
                if (it != im.jobs.end() &&
                    it->second.state == Impl::Job::State::kInflight) {
                  it->second.state = Impl::Job::State::kDone;
                  ++w.jobs_done;
                  UPDEC_METRIC_ADD("serve/shard.jobs", 1);
                  results.emplace_back(res.job_id, res.report);
                }
                if (w.busy && w.inflight == res.job_id) {
                  w.busy = false;
                  w.inflight = 0;
                }
              } else if (frame->type == wire::FrameType::kStats) {
                im.merge_stats(w, wire::decode_stats(frame->payload));
              }
            }
          } catch (const std::exception& e) {
            log_warn() << "shard " << i << ": malformed stream ("
                       << e.what() << "); reaping worker";
            (void)::kill(w.pid, SIGKILL);
            alive = false;
          }
          if (!alive) im.handle_death(i, /*reaped_for_deadline=*/false,
                                      resolutions);
        }
        // Deadline reaps: a worker stalled past its job's budget + grace.
        for (std::size_t i = 0; i < im.workers.size(); ++i) {
          Impl::Worker& w = im.workers[i];
          if (w.pid <= 0 || !w.busy || w.inflight_deadline_ms <= 0.0)
            continue;
          if (ms_since(w.dispatch_time) >
              w.inflight_deadline_ms + im.opts.reap_grace_ms) {
            log_warn() << "shard " << i << ": worker (pid " << w.pid
                       << ") stalled past deadline; SIGKILL";
            (void)::kill(w.pid, SIGKILL);
            im.handle_death(i, /*reaped_for_deadline=*/true, resolutions);
          }
        }
      }

      // Phase 5 (no lock): deliver callbacks, then account completions.
      std::size_t completed = 0;
      for (auto& [id, report] : results) {
        if (metrics::enabled())
          metrics::observe("serve/job.seconds", report.seconds);
        if (im.on_result) im.on_result(id, std::move(report));
        ++completed;
      }
      for (auto& r : resolutions) {
        if (r.is_status_only) {
          if (im.on_status) im.on_status(r.id, r.status);
        } else {
          if (im.on_result) im.on_result(r.id, std::move(r.report));
          ++completed;
        }
      }
      if (completed > 0) {
        std::unique_lock<std::mutex> lock(im.mutex);
        im.outstanding -= completed;
        im.cv.notify_all();
      }
    }

    // Shutdown: final stats sweep, then fold the workers.
    {
      std::unique_lock<std::mutex> lock(im.mutex);
      for (Impl::Worker& w : im.workers)
        if (w.pid > 0)
          (void)wire::write_frame_fd(w.fd, {wire::FrameType::kShutdown, {}});
      const auto deadline = Clock::now() + std::chrono::seconds(10);
      for (;;) {
        bool any_live = false;
        std::vector<pollfd> pfds;
        std::vector<std::size_t> pfd_worker;
        for (std::size_t i = 0; i < im.workers.size(); ++i)
          if (im.workers[i].pid > 0) {
            any_live = true;
            pfds.push_back({im.workers[i].fd, POLLIN, 0});
            pfd_worker.push_back(i);
          }
        if (!any_live) break;
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0) {
          for (Impl::Worker& w : im.workers)
            if (w.pid > 0) {
              (void)::kill(w.pid, SIGKILL);
              im.close_worker(w);
            }
          break;
        }
        lock.unlock();
        int rc;
        do {
          rc = ::poll(pfds.data(), pfds.size(),
                      static_cast<int>(left.count()));
        } while (rc < 0 && errno == EINTR);
        lock.lock();
        for (std::size_t p = 0; p < pfds.size(); ++p) {
          const std::size_t i = pfd_worker[p];
          Impl::Worker& w = im.workers[i];
          if (w.pid <= 0 || w.fd != pfds[p].fd) continue;
          if (!(pfds[p].revents & (POLLIN | POLLHUP | POLLERR))) continue;
          bool alive = true;
          try {
            alive = w.reader->read_available();
            while (auto frame = w.reader->next_frame())
              if (frame->type == wire::FrameType::kStats)
                im.merge_stats(w, wire::decode_stats(frame->payload));
          } catch (const std::exception&) {
            alive = false;
          }
          if (!alive) {
            // Final stats (if any) are merged; keep the residency snapshot
            // out of future sums by closing the worker down.
            im.close_worker(w);
          }
        }
      }
      im.cv.notify_all();
    }
  });
}

ShardPool::~ShardPool() {
  metrics::unregister_predump_hook(impl_->predump_token);
  drain();
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->shutting_down = true;
  }
  impl_->wake();
  if (impl_->dispatcher.joinable()) impl_->dispatcher.join();
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
}

void ShardPool::set_on_result(ResultCallback cb) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->on_result = std::move(cb);
}

void ShardPool::set_on_status(StatusCallback cb) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->on_status = std::move(cb);
}

ShardPool::JobId ShardPool::submit(Scenario scenario) {
  const std::size_t shard = shard_of(scenario);
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    id = impl_->next_id++;
    Impl::Job job;
    job.scenario = std::move(scenario);
    job.home = shard;
    impl_->jobs.emplace(id, std::move(job));
    impl_->workers[shard].queue.push_back(id);
    ++impl_->outstanding;
  }
  impl_->wake();
  return id;
}

bool ShardPool::cancel(JobId id) {
  JobReport cancelled_report;
  bool resolve_now = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->jobs.find(id);
    if (it == impl_->jobs.end()) return false;
    Impl::Job& job = it->second;
    if (job.state == Impl::Job::State::kDone) return false;
    job.cancel_requested = true;
    if (job.state == Impl::Job::State::kQueued) {
      // Never crossed the process boundary: resolve right here.
      auto& queue = impl_->workers[job.home].queue;
      const auto qit = std::find(queue.begin(), queue.end(), id);
      if (qit != queue.end()) queue.erase(qit);
      job.state = Impl::Job::State::kDone;
      cancelled_report.id = job.scenario.id;
      cancelled_report.status = JobStatus::kCancelled;
      resolve_now = true;
      --impl_->outstanding;
      impl_->cv.notify_all();
    }
  }
  if (resolve_now) {
    UPDEC_METRIC_ADD("serve/jobs.cancelled", 1);
    if (impl_->on_result) impl_->on_result(id, std::move(cancelled_report));
    return true;
  }
  impl_->wake();  // dispatcher sends the kCancel frame
  return true;
}

void ShardPool::drain() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->cv.wait(lock, [this] { return impl_->outstanding == 0; });
}

OperatorCache::Stats ShardPool::collect_stats() {
  std::uint64_t want = 0;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    want = ++impl_->stats_gen;
  }
  impl_->wake();
  std::unique_lock<std::mutex> lock(impl_->mutex);
  // Workers only poll their socket between optimisation iterations, so give
  // a busy pool a generous-but-bounded window and merge what arrived.
  impl_->cv.wait_for(lock, std::chrono::seconds(10), [this, want] {
    return impl_->stats_done_gen >= want || impl_->shutting_down;
  });
  OperatorCache::Stats out = impl_->accumulated;
  for (const Impl::Worker& w : impl_->workers)
    if (w.pid > 0 && w.have_cache) add_cache_resident(out, w.latest_cache);
  return out;
}

std::vector<ShardPool::ShardInfo> ShardPool::shard_infos() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<ShardInfo> infos;
  infos.reserve(impl_->workers.size());
  for (const Impl::Worker& w : impl_->workers) {
    ShardInfo info;
    info.pid = static_cast<int>(w.pid);
    info.jobs_done = w.jobs_done;
    info.steals = w.steals;
    info.restarts = w.restarts;
    info.queued = w.queue.size();
    infos.push_back(info);
  }
  return infos;
}

std::size_t ShardPool::restarts() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::size_t total = 0;
  for (const Impl::Worker& w : impl_->workers) total += w.restarts;
  return total;
}

}  // namespace updec::serve
