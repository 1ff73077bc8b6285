/// \file test_shard.cpp
/// \brief Sharded multi-process serving: wire codec, fingerprint routing,
///        async completion streaming, cancel/deadline across the process
///        boundary, crash resubmission and cross-process stats aggregation.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/metrics.hpp"

namespace {

using namespace updec;
using serve::JobReport;
using serve::JobStatus;
using serve::Scenario;
using serve::ShardOptions;
using serve::ShardPool;

Scenario small_scenario(const std::string& id, std::size_t grid_n,
                        std::uint64_t seed) {
  Scenario sc;
  sc.id = id;
  sc.problem = serve::ProblemKind::kLaplace;
  sc.strategy = serve::Strategy::kDal;
  sc.grid_n = grid_n;
  sc.iterations = 3;
  sc.learning_rate = 1e-2;
  sc.seed = seed;
  sc.control_jitter = 0.05;
  return sc;
}

/// A job that runs "forever" (sub-convergence learning rate, huge budget) so
/// cancel/deadline tests have something in flight to interrupt.
Scenario long_scenario(const std::string& id) {
  Scenario sc = small_scenario(id, 6, 1);
  sc.iterations = 2000000;
  sc.learning_rate = 1e-13;
  sc.control_jitter = 0.0;
  return sc;
}

// ---- wire codec ----------------------------------------------------------

TEST(Wire, JobFrameRoundTripsBitwise) {
  serve::wire::JobFrame job;
  job.job_id = 42;
  job.deadline_ms = 1234.5;
  job.retry.max_retries = 3;
  job.retry.backoff_ms = 12.5;
  job.retry.allow_degraded = false;
  job.retry.soft_deadline_fraction = 0.75;
  job.scenario = small_scenario("alpha/1", 11, 0xDEADBEEFull);
  job.scenario.problem = serve::ProblemKind::kChannel;
  job.scenario.reynolds = 3.25;
  job.scenario.target_nodes = 777;
  job.scenario.poly_degree = -2;
  job.scenario.deadline_ms = 99.0;

  const std::string payload = serve::wire::encode_job(job);
  const serve::wire::JobFrame back = serve::wire::decode_job(payload);
  EXPECT_EQ(back.job_id, job.job_id);
  EXPECT_EQ(back.deadline_ms, job.deadline_ms);
  EXPECT_EQ(back.retry.max_retries, job.retry.max_retries);
  EXPECT_EQ(back.retry.backoff_ms, job.retry.backoff_ms);
  EXPECT_EQ(back.retry.allow_degraded, job.retry.allow_degraded);
  EXPECT_EQ(back.retry.soft_deadline_fraction,
            job.retry.soft_deadline_fraction);
  EXPECT_EQ(back.scenario.id, job.scenario.id);
  EXPECT_EQ(back.scenario.problem, job.scenario.problem);
  EXPECT_EQ(back.scenario.strategy, job.scenario.strategy);
  EXPECT_EQ(back.scenario.reynolds, job.scenario.reynolds);
  EXPECT_EQ(back.scenario.target_nodes, job.scenario.target_nodes);
  EXPECT_EQ(back.scenario.poly_degree, job.scenario.poly_degree);
  EXPECT_EQ(back.scenario.seed, job.scenario.seed);
  EXPECT_EQ(back.scenario.control_jitter, job.scenario.control_jitter);
  EXPECT_EQ(back.scenario.deadline_ms, job.scenario.deadline_ms);
}

TEST(Wire, ResultFrameRoundTripsBitwise) {
  serve::wire::ResultFrame result;
  result.job_id = 7;
  result.report.id = "job-7";
  result.report.status = JobStatus::kDeadlineExpired;
  result.report.seconds = 0.125;
  result.report.final_cost = 3.14159265358979;
  result.report.iterations = 17;
  result.report.cost_history = {1.0, 0.5, 0.25, -0.0};
  result.report.error = "deadline";
  result.report.attempts = 2;
  result.report.retries = 1;
  result.report.degraded = true;
  result.report.achieved_tolerance = 1e-9;

  const std::string payload = serve::wire::encode_result(result);
  const serve::wire::ResultFrame back = serve::wire::decode_result(payload);
  EXPECT_EQ(back.job_id, result.job_id);
  EXPECT_EQ(back.report.id, result.report.id);
  EXPECT_EQ(back.report.status, result.report.status);
  EXPECT_EQ(back.report.seconds, result.report.seconds);
  EXPECT_EQ(back.report.final_cost, result.report.final_cost);
  EXPECT_EQ(back.report.iterations, result.report.iterations);
  ASSERT_EQ(back.report.cost_history.size(),
            result.report.cost_history.size());
  for (std::size_t i = 0; i < back.report.cost_history.size(); ++i) {
    // Bitwise: -0.0 must survive (hence signbit, not ==).
    EXPECT_EQ(std::signbit(back.report.cost_history[i]),
              std::signbit(result.report.cost_history[i]));
    EXPECT_EQ(back.report.cost_history[i], result.report.cost_history[i]);
  }
  EXPECT_EQ(back.report.error, result.report.error);
  EXPECT_EQ(back.report.degraded, result.report.degraded);
  EXPECT_EQ(back.report.achieved_tolerance, result.report.achieved_tolerance);
}

TEST(Wire, StatsFrameRoundTrips) {
  serve::wire::StatsFrame stats;
  stats.counters.push_back({"serve/jobs.succeeded", 12});
  stats.counters.push_back({"la/sparse_first.calls", 345});
  stats.cache.hits = 10;
  stats.cache.misses = 4;
  stats.cache.bytes = 1 << 20;
  stats.cache.entries = 3;
  stats.cache.byte_budget = 512u << 20;
  stats.cache.by_class["bundle"] = {2, 1, 0, 4096, 1};
  stats.cache.by_class["lu"] = {8, 3, 1, 1 << 16, 2};
  stats.cache.disk.hits = 5;
  stats.cache.disk.corrupt = 1;

  const std::string payload = serve::wire::encode_stats(stats);
  const serve::wire::StatsFrame back = serve::wire::decode_stats(payload);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counters[0].name, "serve/jobs.succeeded");
  EXPECT_EQ(back.counters[0].value, 12u);
  EXPECT_EQ(back.cache.hits, 10u);
  EXPECT_EQ(back.cache.bytes, std::size_t{1 << 20});
  ASSERT_EQ(back.cache.by_class.size(), 2u);
  EXPECT_EQ(back.cache.by_class.at("lu").hits, 8u);
  EXPECT_EQ(back.cache.by_class.at("lu").entries, 2u);
  EXPECT_EQ(back.cache.disk.hits, 5u);
  EXPECT_EQ(back.cache.disk.corrupt, 1u);
}

TEST(Wire, FrameRoundTripAndIncrementalDecode) {
  serve::wire::Frame frame{serve::wire::FrameType::kResult, "hello frame"};
  const std::string bytes = serve::wire::encode_frame(frame);

  // Whole buffer decodes.
  const auto whole = serve::wire::decode_frame(bytes);
  ASSERT_EQ(whole.status, serve::wire::DecodeStatus::kOk);
  EXPECT_EQ(whole.frame.type, frame.type);
  EXPECT_EQ(whole.frame.payload, frame.payload);
  EXPECT_EQ(whole.consumed, bytes.size());

  // Every strict prefix is incomplete, never malformed.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    const auto partial =
        serve::wire::decode_frame(std::string_view(bytes).substr(0, n));
    EXPECT_EQ(partial.status, serve::wire::DecodeStatus::kNeedMore)
        << "prefix length " << n;
  }

  // Two concatenated frames decode one at a time.
  const std::string two = bytes + bytes;
  const auto first = serve::wire::decode_frame(two);
  ASSERT_EQ(first.status, serve::wire::DecodeStatus::kOk);
  EXPECT_EQ(first.consumed, bytes.size());
}

TEST(Wire, MalformedFramesAreRejected) {
  serve::wire::Frame frame{serve::wire::FrameType::kJob, "payload bytes"};
  const std::string good = serve::wire::encode_frame(frame);

  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x5A);
  EXPECT_EQ(serve::wire::decode_frame(bad_magic).status,
            serve::wire::DecodeStatus::kMalformed);

  std::string bad_type = good;
  bad_type[4] = 99;
  EXPECT_EQ(serve::wire::decode_frame(bad_type).status,
            serve::wire::DecodeStatus::kMalformed);

  std::string bad_len = good;
  bad_len[14] = 0x7F;  // length ~2^55: over the payload cap
  EXPECT_EQ(serve::wire::decode_frame(bad_len).status,
            serve::wire::DecodeStatus::kMalformed);

  std::string flipped = good;
  flipped[serve::wire::kHeaderBytes + 3] ^= 0x01;  // corrupt payload byte
  const auto res = serve::wire::decode_frame(flipped);
  EXPECT_EQ(res.status, serve::wire::DecodeStatus::kMalformed);
  EXPECT_NE(res.error.find("checksum"), std::string::npos);
}

TEST(Wire, TruncatedPayloadCodecsThrow) {
  serve::wire::ResultFrame result;
  result.job_id = 1;
  result.report.id = "x";
  result.report.cost_history = {1.0, 2.0};
  const std::string payload = serve::wire::encode_result(result);
  EXPECT_THROW((void)serve::wire::decode_result(payload.substr(
                   0, payload.size() - 3)),
               Error);
  EXPECT_THROW((void)serve::wire::decode_result(payload + "zz"), Error);
  EXPECT_THROW((void)serve::wire::decode_job("abc"), Error);
  EXPECT_THROW((void)serve::wire::decode_stats(std::string(7, '\0')), Error);
}

TEST(Wire, FrameReaderReassemblesSplitWrites) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  serve::wire::Frame frame{serve::wire::FrameType::kCancel,
                           serve::wire::encode_cancel({77})};
  const std::string bytes = serve::wire::encode_frame(frame);

  serve::wire::FrameReader reader(sv[0]);
  // First half only: poll sees an incomplete frame.
  ASSERT_EQ(::send(sv[1], bytes.data(), bytes.size() / 2, 0),
            static_cast<ssize_t>(bytes.size() / 2));
  EXPECT_FALSE(reader.poll_frame().has_value());
  // Second half arrives: the frame completes.
  ASSERT_EQ(::send(sv[1], bytes.data() + bytes.size() / 2,
                   bytes.size() - bytes.size() / 2, 0),
            static_cast<ssize_t>(bytes.size() - bytes.size() / 2));
  const auto got = reader.poll_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, serve::wire::FrameType::kCancel);
  EXPECT_EQ(serve::wire::decode_cancel(got->payload).job_id, 77u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---- routing -------------------------------------------------------------

TEST(Routing, FingerprintIgnoresNonDiscretisationFields) {
  const Scenario base = small_scenario("a", 12, 1);
  const std::uint64_t fp = serve::scenario_fingerprint(base);

  Scenario other = base;
  other.id = "totally-different";
  other.seed = 999;
  other.iterations = 5000;
  other.learning_rate = 123.0;
  other.control_jitter = 0.7;
  other.deadline_ms = 10.0;
  other.strategy = serve::Strategy::kDp;
  EXPECT_EQ(serve::scenario_fingerprint(other), fp)
      << "routing must depend only on the discretisation";

  Scenario finer = base;
  finer.grid_n = 13;
  EXPECT_NE(serve::scenario_fingerprint(finer), fp);

  Scenario channel = base;
  channel.problem = serve::ProblemKind::kChannel;
  EXPECT_NE(serve::scenario_fingerprint(channel), fp);
}

TEST(Routing, FingerprintSeparatesRefinementKnobs) {
  // A refined-cloud job must never share a shard-affinity key (and thus a
  // cached operator family) with the uniform-grid job of the same grid_n:
  // the clouds differ, so the fingerprint must fold in the refinement knobs.
  const Scenario base = small_scenario("a", 12, 1);
  const std::uint64_t fp = serve::scenario_fingerprint(base);

  Scenario refined = base;
  refined.refine_cycles = 2;
  EXPECT_NE(serve::scenario_fingerprint(refined), fp);

  Scenario fraction = refined;
  fraction.refine_fraction = 0.25;
  EXPECT_NE(serve::scenario_fingerprint(fraction),
            serve::scenario_fingerprint(refined));

  // Deterministic: the same refined scenario fingerprints identically.
  EXPECT_EQ(serve::scenario_fingerprint(refined),
            serve::scenario_fingerprint(refined));
}

TEST(Wire, RefinedScenarioFieldsRoundTrip) {
  serve::wire::JobFrame job;
  job.job_id = 9;
  job.scenario = small_scenario("refined/1", 12, 77);
  job.scenario.refine_cycles = 3;
  job.scenario.refine_fraction = 0.1875;  // dyadic: bitwise comparable

  const std::string payload = serve::wire::encode_job(job);
  const serve::wire::JobFrame back = serve::wire::decode_job(payload);
  EXPECT_EQ(back.scenario.refine_cycles, 3u);
  EXPECT_EQ(back.scenario.refine_fraction, 0.1875);
  EXPECT_EQ(back.scenario.id, job.scenario.id);
}

TEST(Routing, ShardOfIsStableAndInRange) {
  ShardOptions options;
  options.shards = 4;
  ShardPool pool(options);
  std::map<std::uint64_t, std::size_t> seen;
  for (std::size_t g = 6; g < 14; ++g) {
    const Scenario sc = small_scenario("r", g, g);
    const std::size_t shard = pool.shard_of(sc);
    EXPECT_LT(shard, pool.shard_count());
    EXPECT_EQ(shard, pool.shard_of(sc)) << "routing must be deterministic";
    seen[serve::scenario_fingerprint(sc)] = shard;
  }
  EXPECT_EQ(seen.size(), 8u);  // distinct grids -> distinct fingerprints
}

// ---- environment knobs ---------------------------------------------------

TEST(ShardEnv, KnobsParseStrictly) {
  ::setenv("UPDEC_SERVE_SHARDS", "3", 1);
  EXPECT_EQ(serve::shards_from_env(), 3u);
  ::setenv("UPDEC_SERVE_SHARDS", "not-a-number", 1);
  EXPECT_EQ(serve::shards_from_env(), 0u) << "malformed falls back";
  ::unsetenv("UPDEC_SERVE_SHARDS");
  EXPECT_EQ(serve::shards_from_env(), 0u);

  ::setenv("UPDEC_SERVE_STEAL", "0", 1);
  EXPECT_FALSE(serve::steal_from_env());
  ::setenv("UPDEC_SERVE_STEAL", "on", 1);
  EXPECT_TRUE(serve::steal_from_env());
  ::unsetenv("UPDEC_SERVE_STEAL");
  EXPECT_TRUE(serve::steal_from_env()) << "stealing defaults on";
}

// ---- end-to-end over forked workers --------------------------------------

TEST(ShardPoolE2E, BatchResolvesAcrossWorkers) {
  ShardOptions options;
  options.shards = 2;
  ShardPool pool(options);
  std::mutex mu;
  std::map<ShardPool::JobId, JobReport> reports;
  pool.set_on_result([&](ShardPool::JobId id, JobReport&& report) {
    std::lock_guard lock(mu);
    reports.emplace(id, std::move(report));
  });
  std::vector<ShardPool::JobId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(pool.submit(
        small_scenario("batch-" + std::to_string(i), 6 + i % 3, i)));
  pool.drain();
  std::lock_guard lock(mu);
  ASSERT_EQ(reports.size(), ids.size());
  for (const auto id : ids) {
    ASSERT_TRUE(reports.count(id));
    EXPECT_EQ(reports.at(id).status, JobStatus::kSucceeded)
        << reports.at(id).error;
    EXPECT_GT(reports.at(id).iterations, 0u);
  }
}

TEST(ShardPoolE2E, StealingDrainsAHotShard) {
  // Every job shares one fingerprint, so they all route to ONE home shard;
  // with stealing on, the other shard must pick some of them up.
  ShardOptions options;
  options.shards = 2;
  options.steal = true;
  ShardPool pool(options);
  pool.set_on_result([](ShardPool::JobId, JobReport&&) {});
  for (int i = 0; i < 10; ++i)
    pool.submit(small_scenario("steal-" + std::to_string(i), 7, i));
  pool.drain();
  const auto infos = pool.shard_infos();
  ASSERT_EQ(infos.size(), 2u);
  std::size_t total = 0;
  std::size_t steals = 0;
  for (const auto& info : infos) {
    total += info.jobs_done;
    steals += info.steals;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_GT(steals, 0u) << "idle shard never stole from the loaded one";
  EXPECT_GT(infos[0].jobs_done, 0u);
  EXPECT_GT(infos[1].jobs_done, 0u);
}

TEST(ShardPoolE2E, StealingOffKeepsAffinity) {
  ShardOptions options;
  options.shards = 2;
  options.steal = false;
  ShardPool pool(options);
  pool.set_on_result([](ShardPool::JobId, JobReport&&) {});
  for (int i = 0; i < 6; ++i)
    pool.submit(small_scenario("affinity-" + std::to_string(i), 7, i));
  pool.drain();
  const auto infos = pool.shard_infos();
  std::size_t busy_shards = 0;
  for (const auto& info : infos) {
    EXPECT_EQ(info.steals, 0u);
    if (info.jobs_done > 0) ++busy_shards;
  }
  EXPECT_EQ(busy_shards, 1u) << "one fingerprint must stay on one shard";
}

TEST(ShardPoolE2E, ForkedWorkerDoesNotRepeatBufferedStdout) {
  // A worker's log line on std::cerr flushes its tie, std::cout, so any
  // output still buffered in the parent when it forked would be written a
  // second time. The armed fault fails the job's first attempt inside the
  // worker, whose degraded retry then logs a warning.
  const std::string marker = "buffered-before-fork-7f3a";
  fault::arm("serve.solve_fault");
  ::testing::internal::CaptureStdout();
  std::cout << marker << '\n';
  {
    serve::SchedulerOptions options;
    options.shards = 1;
    serve::RetryPolicy retry;
    retry.max_retries = 0;
    options.retry = retry;
    serve::Scheduler scheduler(options);
    const auto id = scheduler.submit(small_scenario("logs", 6, 1));
    const JobReport report = scheduler.wait(id);
    EXPECT_EQ(report.status, JobStatus::kSucceeded) << report.error;
    EXPECT_TRUE(report.degraded);
  }
  const std::string out = ::testing::internal::GetCapturedStdout();
  fault::disarm_all();
  std::size_t copies = 0;
  for (auto at = out.find(marker); at != std::string::npos;
       at = out.find(marker, at + 1))
    ++copies;
  EXPECT_EQ(copies, 1u) << out;
}

TEST(SchedulerShardMode, AsyncSubmitStreamsCompletions) {
  serve::SchedulerOptions options;
  options.shards = 2;
  serve::Scheduler scheduler(options);
  std::set<serve::Scheduler::JobId> submitted;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 6; ++i)
    submitted.insert(scheduler.submit(
        small_scenario("async-" + std::to_string(i), 6 + i % 2, i)));
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(submit_ms, 1000.0) << "submit must not wait for results";

  std::set<serve::Scheduler::JobId> streamed;
  while (auto next = scheduler.next_completed()) {
    EXPECT_TRUE(submitted.count(next->first));
    EXPECT_TRUE(streamed.insert(next->first).second)
        << "job streamed twice";
    EXPECT_EQ(next->second.status, JobStatus::kSucceeded)
        << next->second.error;
  }
  EXPECT_EQ(streamed, submitted);
  EXPECT_FALSE(scheduler.try_next_completed().has_value());
  EXPECT_EQ(scheduler.shard_count(), 2u);
}

TEST(SchedulerShardMode, BitwiseEqualToInProcessRun) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 6; ++i)
    scenarios.push_back(
        small_scenario("bitwise-" + std::to_string(i), 6 + i % 3, 17 + i));

  serve::OperatorCache local_cache(64u << 20, "");
  std::vector<JobReport> reference;
  for (const auto& sc : scenarios)
    reference.push_back(serve::run_scenario(sc, local_cache));

  serve::SchedulerOptions options;
  options.shards = 3;
  serve::Scheduler scheduler(options);
  std::vector<serve::Scheduler::JobId> ids;
  for (const auto& sc : scenarios) ids.push_back(scheduler.submit(sc));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobReport report = scheduler.wait(ids[i]);
    ASSERT_EQ(report.status, JobStatus::kSucceeded) << report.error;
    EXPECT_EQ(report.final_cost, reference[i].final_cost)
        << "job " << i << ": sharded cost must be BITWISE equal";
    EXPECT_EQ(report.iterations, reference[i].iterations);
    ASSERT_EQ(report.cost_history.size(), reference[i].cost_history.size());
    for (std::size_t k = 0; k < report.cost_history.size(); ++k)
      EXPECT_EQ(report.cost_history[k], reference[i].cost_history[k]);
  }
}

TEST(SchedulerShardMode, CancelQueuedJobNeverCrossesTheBoundary) {
  serve::SchedulerOptions options;
  options.shards = 1;
  serve::Scheduler scheduler(options);
  const auto blocker = scheduler.submit(long_scenario("blocker"));
  const auto queued = scheduler.submit(small_scenario("queued", 6, 2));
  // The blocker occupies the only worker, so "queued" is parent-side state.
  EXPECT_TRUE(scheduler.cancel(queued));
  const JobReport queued_report = scheduler.wait(queued);
  EXPECT_EQ(queued_report.status, JobStatus::kCancelled);
  EXPECT_EQ(queued_report.iterations, 0u) << "must never have run";
  EXPECT_TRUE(scheduler.cancel(blocker));
  EXPECT_EQ(scheduler.wait(blocker).status, JobStatus::kCancelled);
}

TEST(SchedulerShardMode, CancelRunningJobCrossesTheBoundary) {
  serve::SchedulerOptions options;
  options.shards = 1;
  serve::Scheduler scheduler(options);
  const auto id = scheduler.submit(long_scenario("running"));
  // Wait until the worker actually picked it up. The bound is generous: a
  // loaded machine may take a while to schedule the forked worker, and the
  // assertion below is about state, not speed.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (scheduler.status(id) == JobStatus::kPending &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scheduler.status(id), JobStatus::kRunning);
  EXPECT_TRUE(scheduler.cancel(id));
  const JobReport report = scheduler.wait(id);
  EXPECT_EQ(report.status, JobStatus::kCancelled);
  // The worker survived the cancellation and keeps serving.
  const auto next = scheduler.submit(small_scenario("after-cancel", 6, 3));
  EXPECT_EQ(scheduler.wait(next).status, JobStatus::kSucceeded);
}

TEST(SchedulerShardMode, RunningStatusArrivesWhileTheJobRuns) {
  // Once a finished job has left the dispatcher idle in poll(), a new job's
  // kRunning transition must still reach the scheduler while the job runs,
  // not only when its result (here: never, before the cancel) comes back.
  serve::SchedulerOptions options;
  options.shards = 1;
  serve::Scheduler scheduler(options);
  const auto warm = scheduler.submit(small_scenario("warm", 6, 1));
  ASSERT_EQ(scheduler.wait(warm).status, JobStatus::kSucceeded);
  const auto id = scheduler.submit(long_scenario("running"));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scheduler.status(id) == JobStatus::kPending &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scheduler.status(id), JobStatus::kRunning);
  EXPECT_TRUE(scheduler.cancel(id));
  EXPECT_EQ(scheduler.wait(id).status, JobStatus::kCancelled);
}

TEST(SchedulerShardMode, DeadlineEnforcedAcrossTheBoundary) {
  serve::SchedulerOptions options;
  options.shards = 1;
  serve::Scheduler scheduler(options);
  Scenario sc = long_scenario("deadline");
  sc.deadline_ms = 60.0;
  const auto id = scheduler.submit(sc);
  const JobReport report = scheduler.wait(id);
  EXPECT_EQ(report.status, JobStatus::kDeadlineExpired);
  // Cooperative stop: the worker is alive and the pool unharmed.
  const auto next = scheduler.submit(small_scenario("after-deadline", 6, 4));
  EXPECT_EQ(scheduler.wait(next).status, JobStatus::kSucceeded);
}

TEST(SchedulerShardMode, WorkerKillMidBatchRetriesToBitwiseSuccess) {
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 8; ++i)
    scenarios.push_back(
        small_scenario("chaos-" + std::to_string(i), 6 + i % 2, 31 + i));

  serve::OperatorCache local_cache(64u << 20, "");
  std::vector<JobReport> reference;
  for (const auto& sc : scenarios)
    reference.push_back(serve::run_scenario(sc, local_cache));

  serve::RetryPolicy retry;
  retry.max_retries = 2;
  serve::SchedulerOptions options;
  options.shards = 2;
  options.retry = retry;
  fault::arm("serve.shard_kill", 1);  // parent-side: kills one worker once
  serve::Scheduler scheduler(options);
  std::vector<serve::Scheduler::JobId> ids;
  for (const auto& sc : scenarios) ids.push_back(scheduler.submit(sc));
  std::size_t failed = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobReport report = scheduler.wait(ids[i]);
    if (report.status != JobStatus::kSucceeded) {
      ++failed;
      continue;
    }
    EXPECT_EQ(report.final_cost, reference[i].final_cost)
        << "resubmitted jobs must replay bit-identically";
  }
  EXPECT_EQ(failed, 0u) << "retries must absorb the SIGKILL";
  ASSERT_NE(scheduler.shards(), nullptr);
  EXPECT_GE(scheduler.shards()->restarts(), 1u) << "no worker was killed?";
  fault::disarm_all();
}

TEST(SchedulerShardMode, WorkerCrashWithoutRetriesFailsOnlyThatJob) {
  serve::RetryPolicy retry;
  retry.max_retries = 0;
  retry.allow_degraded = false;
  serve::SchedulerOptions options;
  options.shards = 2;
  options.retry = retry;
  fault::arm("serve.shard_kill", 1);
  serve::Scheduler scheduler(options);
  std::vector<serve::Scheduler::JobId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(scheduler.submit(
        small_scenario("norerty-" + std::to_string(i), 6 + i % 2, i)));
  std::size_t failed = 0;
  std::size_t succeeded = 0;
  for (const auto id : ids) {
    const JobReport report = scheduler.wait(id);
    if (report.status == JobStatus::kFailed) {
      ++failed;
      EXPECT_NE(report.error.find("died"), std::string::npos)
          << report.error;
    } else if (report.status == JobStatus::kSucceeded) {
      ++succeeded;
    }
  }
  EXPECT_EQ(failed, 1u) << "exactly the in-flight job fails";
  EXPECT_EQ(succeeded, ids.size() - 1);
  fault::disarm_all();
}

TEST(SchedulerShardMode, WorkerStatsAggregateIntoParent) {
  metrics::reset();
  metrics::set_enabled(true);
  {
    serve::SchedulerOptions options;
    options.shards = 2;
    serve::Scheduler scheduler(options);
    std::vector<serve::Scheduler::JobId> ids;
    for (int i = 0; i < 6; ++i)
      ids.push_back(scheduler.submit(
          small_scenario("stats-" + std::to_string(i), 6 + i % 2, i)));
    for (const auto id : ids)
      ASSERT_EQ(scheduler.wait(id).status, JobStatus::kSucceeded);

    // Merged cache stats: the bundles were built in WORKER processes; the
    // parent-local cache alone knows nothing about them.
    const serve::OperatorCache::Stats stats = scheduler.cache_stats();
    EXPECT_GT(stats.hits + stats.misses, 0u);
    ASSERT_TRUE(stats.by_class.count("bundle"))
        << "worker bundle traffic missing from merged stats";
    EXPECT_GT(stats.by_class.at("bundle").misses, 0u);
    EXPECT_GT(stats.bytes, 0u) << "live worker residency missing";

    // Worker counters were delta-merged into the PARENT registry.
    EXPECT_EQ(metrics::counter_value("serve/jobs.succeeded"), 6u);
    EXPECT_EQ(metrics::counter_value("serve/shard.jobs"), 6u);
    // Collecting twice must not double-count.
    (void)scheduler.cache_stats();
    EXPECT_EQ(metrics::counter_value("serve/jobs.succeeded"), 6u);
  }
  metrics::set_enabled(false);
  metrics::reset();
}

}  // namespace
