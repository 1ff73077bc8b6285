// Fault-injection tests for the robustness stack: every recovery path --
// Krylov escalation to dense LU, Tikhonov-shifted factorisation, NaN
// gradient rollback with learning-rate halving, checkpoint/resume -- is
// exercised under a deterministically armed fault, and a disabled-injection
// run is checked to be bit-identical to an unfaulted one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "la/blas.hpp"
#include "la/lu.hpp"
#include "la/robust_solve.hpp"
#include "la/sparse.hpp"
#include "rbf/kernels.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"

namespace {

using updec::control::DriverOptions;
using updec::control::DriverResult;
using updec::control::GradientStrategy;
using updec::la::CsrMatrix;
using updec::la::Matrix;
using updec::la::SparseBuilder;
using updec::la::Vector;

/// Every test leaves the global fault registry clean.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { updec::fault::disarm_all(); }
  void TearDown() override { updec::fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Fault-injection plumbing.

TEST_F(ResilienceTest, FaultPointFiresArmedCountTimesThenDisarms) {
  EXPECT_FALSE(updec::fault::enabled());
  EXPECT_FALSE(UPDEC_FAULT_POINT("test.site"));

  updec::fault::arm("test.site", 2);
  EXPECT_TRUE(updec::fault::enabled());
  EXPECT_EQ(updec::fault::armed_count("test.site"), 2u);
  EXPECT_TRUE(UPDEC_FAULT_POINT("test.site"));
  EXPECT_TRUE(UPDEC_FAULT_POINT("test.site"));
  EXPECT_FALSE(UPDEC_FAULT_POINT("test.site"));
  EXPECT_EQ(updec::fault::trigger_count("test.site"), 2u);
  EXPECT_EQ(updec::fault::armed_count("test.site"), 0u);

  // Other sites stay silent.
  EXPECT_FALSE(UPDEC_FAULT_POINT("test.other"));

  updec::fault::disarm_all();
  EXPECT_FALSE(updec::fault::enabled());
}

TEST_F(ResilienceTest, ArmFromEnvParsesSitesAndCounts) {
  ::setenv("UPDEC_FAULTS", "env.a:3, env.b", 1);
  updec::fault::arm_from_env();
  ::unsetenv("UPDEC_FAULTS");
  EXPECT_EQ(updec::fault::armed_count("env.a"), 3u);
  EXPECT_EQ(updec::fault::armed_count("env.b"), 1u);
}

TEST_F(ResilienceTest, ArmFromEnvIgnoresMalformedEntries) {
  ::setenv("UPDEC_FAULTS", "bad:xyz,:5,good:2", 1);
  updec::fault::arm_from_env();
  ::unsetenv("UPDEC_FAULTS");
  EXPECT_EQ(updec::fault::armed_count("good"), 2u);
  EXPECT_EQ(updec::fault::armed_count("bad"), 0u);
}

// ---------------------------------------------------------------------------
// Log-level environment parsing.

TEST_F(ResilienceTest, ParseLogLevelAcceptsNamesAndDigits) {
  using updec::LogLevel;
  const LogLevel fb = LogLevel::kInfo;
  EXPECT_EQ(updec::parse_log_level("debug", fb), LogLevel::kDebug);
  EXPECT_EQ(updec::parse_log_level("INFO", fb), LogLevel::kInfo);
  EXPECT_EQ(updec::parse_log_level("Warn", fb), LogLevel::kWarn);
  EXPECT_EQ(updec::parse_log_level("warning", fb), LogLevel::kWarn);
  EXPECT_EQ(updec::parse_log_level("error", fb), LogLevel::kError);
  EXPECT_EQ(updec::parse_log_level("0", fb), LogLevel::kDebug);
  EXPECT_EQ(updec::parse_log_level("3", fb), LogLevel::kError);
  EXPECT_EQ(updec::parse_log_level("bogus", fb), fb);
  EXPECT_EQ(updec::parse_log_level("", fb), fb);
}

TEST_F(ResilienceTest, InitLogLevelFromEnvAppliesAndRejectsGarbage) {
  const updec::LogLevel before = updec::log_level();
  ::setenv("UPDEC_LOG_LEVEL", "error", 1);
  updec::init_log_level_from_env();
  EXPECT_EQ(updec::log_level(), updec::LogLevel::kError);

  // Unrecognised values keep the current level.
  ::setenv("UPDEC_LOG_LEVEL", "shouting", 1);
  updec::init_log_level_from_env();
  EXPECT_EQ(updec::log_level(), updec::LogLevel::kError);

  ::unsetenv("UPDEC_LOG_LEVEL");
  updec::set_log_level(before);
}

TEST_F(ResilienceTest, RequireConvergedThrowsWithContext) {
  updec::la::SolveReport res;
  res.converged = false;
  res.residual_norm = 0.5;
  EXPECT_THROW(res.require_converged("unit test"), updec::Error);
  res.converged = true;
  EXPECT_NO_THROW(res.require_converged("unit test"));
}

// ---------------------------------------------------------------------------
// Tikhonov escalation of the sparse band factorisation.

TEST_F(ResilienceTest, RobustSolverShiftsTrulySingularSystem) {
  // The sparse robust solver (SparseFirstSolver) on a rank-deficient
  // operator: row 2 duplicates row 1 and column 2 is empty, so the band LU
  // meets an exactly zero pivot. b is in the range, so the shifted
  // factorisation still produces a small-residual solution.
  SparseBuilder builder(3, 3);
  builder.add(0, 0, 2.0);
  builder.add(0, 1, 1.0);
  builder.add(1, 0, 1.0);
  builder.add(1, 1, 3.0);
  builder.add(2, 0, 1.0);
  builder.add(2, 1, 3.0);
  const CsrMatrix a(builder);
  const Vector b{3.0, 4.0, 4.0};
  const updec::la::SparseFirstSolver solver(a);
  const updec::la::FactorReport& factor = solver.factor_report();
  EXPECT_TRUE(factor.ok);
  EXPECT_TRUE(factor.shifted);
  EXPECT_EQ(factor.attempts, 2u);
  // The first shift of the schedule: 1e-12 * max(||A||_1, 1).
  EXPECT_DOUBLE_EQ(factor.shift, 1e-12 * 7.0);
  updec::la::SolveReport report;
  const Vector x = solver.solve(b, &report);
  EXPECT_EQ(report.method, updec::la::SolveMethod::kShiftedLu);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_GT(report.shift, 0.0);
  EXPECT_TRUE(updec::la::all_finite(x));
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.residual_norm, 1e-6);
}

TEST_F(ResilienceTest, RobustLuFactorRetriesInjectedSingularPivot) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0; a(1, 0) = 1.0; a(1, 1) = 3.0;
  updec::fault::arm("lu.singular_pivot");
  updec::la::FactorReport report;
  const auto lu = updec::la::robust_lu_factor(a, &report);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.shifted);
  EXPECT_GE(report.attempts, 2u);
  EXPECT_GT(report.shift, 0.0);
  const Vector x = lu.solve(Vector{3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-9);  // tiny shift, nearly exact
  EXPECT_NEAR(x[1], 1.4, 1e-9);
}

TEST_F(ResilienceTest, RobustLuFactorShiftsGenuinelySingularMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0; a(1, 0) = 2.0; a(1, 1) = 4.0;
  updec::la::FactorReport report;
  const auto lu = updec::la::robust_lu_factor(a, &report);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.shifted);
  const Vector x = lu.solve(Vector{3.0, 6.0});  // consistent rhs
  EXPECT_TRUE(updec::la::all_finite(x));
}

TEST_F(ResilienceTest, CheckedSolveRejectsInjectedNaN) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 0.0; a(1, 0) = 0.0; a(1, 1) = 2.0;
  const updec::la::LuFactorization lu(a);
  const Vector bad{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(updec::la::checked_solve(lu, bad, "unit test"),
               updec::Error);
  const Vector good{2.0, 4.0};
  const Vector x = updec::la::checked_solve(lu, good, "unit test");
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
}

// ---------------------------------------------------------------------------
// Collocation NaN recovery.

TEST_F(ResilienceTest, CollocationRecoversInjectedNanSolution) {
  updec::rbf::PolyharmonicSpline kernel(3);
  const updec::control::LaplaceControlProblem problem(10, kernel);
  const Vector c = problem.initial_control();
  const double j_clean = problem.cost(c);

  updec::fault::arm("collocation.nan_solution");
  const double j_faulted = problem.cost(c);
  EXPECT_EQ(updec::fault::trigger_count("collocation.nan_solution"), 1u);
  EXPECT_TRUE(std::isfinite(j_faulted));
  // The shifted re-solve perturbs the system by ~1e-12 relative.
  EXPECT_NEAR(j_faulted, j_clean, 1e-6 * std::max(1.0, std::abs(j_clean)));
}

// ---------------------------------------------------------------------------
// Driver divergence recovery and checkpointing.

/// J(c) = |c - target|^2 with exact gradient; cheap and deterministic.
class QuadraticStrategy final : public GradientStrategy {
 public:
  explicit QuadraticStrategy(Vector target) : target_(std::move(target)) {}

  [[nodiscard]] std::string name() const override { return "quadratic"; }

  double value_and_gradient(const Vector& control,
                            Vector& gradient) override {
    gradient.resize(control.size());
    double j = 0.0;
    for (std::size_t i = 0; i < control.size(); ++i) {
      const double d = control[i] - target_[i];
      j += d * d;
      gradient[i] = 2.0 * d;
    }
    return j;
  }

 private:
  Vector target_;
};

/// Always produces a non-finite cost; recovery can never succeed.
class NanStrategy final : public GradientStrategy {
 public:
  [[nodiscard]] std::string name() const override { return "nan"; }
  double value_and_gradient(const Vector& control, Vector& gradient) override {
    gradient = Vector(control.size(), 0.0);
    return std::numeric_limits<double>::quiet_NaN();
  }
};

DriverOptions quad_options(std::size_t iterations) {
  DriverOptions options;
  options.iterations = iterations;
  options.initial_learning_rate = 0.1;
  return options;
}

TEST_F(ResilienceTest, DriverRecoversFromInjectedNanCost) {
  QuadraticStrategy strategy(Vector{1.0, -2.0, 0.5});
  updec::fault::arm("driver.nan_cost");
  const DriverResult result = updec::control::optimize_from(
      Vector(3, 0.0), strategy, quad_options(80));
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.iterations, 80u);
  EXPECT_EQ(result.cost_history.size(), 80u);
  // The halved learning rate slows convergence but the run still makes
  // strong progress from J0 = 5.25.
  EXPECT_LT(result.final_cost, 0.5);
}

TEST_F(ResilienceTest, DriverRecoversFromInjectedNanGradient) {
  QuadraticStrategy strategy(Vector{1.0, -2.0, 0.5});
  updec::fault::arm("driver.nan_gradient", 2);
  const DriverResult result = updec::control::optimize_from(
      Vector(3, 0.0), strategy, quad_options(80));
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.recoveries, 2u);
  EXPECT_EQ(result.iterations, 80u);
  // Two recoveries quarter the learning rate; progress is slower still.
  EXPECT_LT(result.final_cost, result.cost_history.front() * 0.5);
}

TEST_F(ResilienceTest, DriverAbortsWhenRecoveryBudgetExhausted) {
  NanStrategy strategy;
  DriverOptions options = quad_options(20);
  options.max_recoveries = 3;
  const DriverResult result =
      updec::control::optimize_from(Vector(2, 0.0), strategy, options);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.recoveries, 3u);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_TRUE(result.cost_history.empty());
}

TEST_F(ResilienceTest, DriverAbortsImmediatelyWhenRecoveryDisabled) {
  NanStrategy strategy;
  DriverOptions options = quad_options(20);
  options.recover_divergence = false;
  const DriverResult result =
      updec::control::optimize_from(Vector(2, 0.0), strategy, options);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.recoveries, 0u);
}

TEST_F(ResilienceTest, DriverTreatsThrownSolverErrorAsRecoverable) {
  // A strategy that throws updec::Error once (as a diverged PDE solve
  // would), then behaves.
  class ThrowOnceStrategy final : public GradientStrategy {
   public:
    [[nodiscard]] std::string name() const override { return "throw-once"; }
    double value_and_gradient(const Vector& control,
                              Vector& gradient) override {
      if (!thrown_) {
        thrown_ = true;
        throw updec::Error("simulated PDE divergence");
      }
      gradient = Vector(control.size(), 0.0);
      return 1.0;
    }
   private:
    bool thrown_ = false;
  };
  ThrowOnceStrategy strategy;
  const DriverResult result = updec::control::optimize_from(
      Vector(2, 0.0), strategy, quad_options(5));
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.recoveries, 1u);
  EXPECT_EQ(result.iterations, 5u);
}

TEST_F(ResilienceTest, DriverDegradedStopReturnsBestEffortState) {
  // should_degrade asks for a graceful wrap-up: the driver stops at the
  // next iteration boundary with the trajectory so far and flags the
  // result, instead of aborting or running out the budget.
  QuadraticStrategy strategy(Vector{1.0, -2.0});
  DriverOptions options = quad_options(50);
  std::size_t calls = 0;
  options.should_degrade = [&calls] { return ++calls > 10; };
  const DriverResult result =
      updec::control::optimize_from(Vector(2, 0.0), strategy, options);
  EXPECT_TRUE(result.stopped);
  EXPECT_TRUE(result.degraded_stop);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_EQ(result.cost_history.size(), 10u);
  EXPECT_FALSE(result.grad_norm_history.empty());

  // A hard stop wins over a degradation request when both fire.
  DriverOptions both = quad_options(50);
  both.should_stop = [] { return true; };
  both.should_degrade = [] { return true; };
  const DriverResult stopped =
      updec::control::optimize_from(Vector(2, 0.0), strategy, both);
  EXPECT_TRUE(stopped.stopped);
  EXPECT_FALSE(stopped.degraded_stop);
}

TEST_F(ResilienceTest, CheckpointResumeReplaysTrajectoryExactly) {
  const Vector target{2.0, -1.0, 0.25, 3.0};
  const std::string path = ::testing::TempDir() + "updec_resume_ckpt.txt";

  // Uninterrupted reference run, checkpointing along the way (last
  // checkpoint lands at iteration 50 of 60).
  DriverOptions options = quad_options(60);
  options.checkpoint_every = 25;
  options.checkpoint_path = path;
  QuadraticStrategy full_strategy(target);
  const DriverResult full = updec::control::optimize_from(
      Vector(4, 0.0), full_strategy, options);
  EXPECT_EQ(full.cost_history.size(), 60u);

  // Resume from the iteration-50 checkpoint; same options (the LR schedule
  // depends on the total iteration count).
  QuadraticStrategy resumed_strategy(target);
  const DriverResult resumed =
      updec::control::optimize_resume(path, resumed_strategy, options);
  ASSERT_EQ(resumed.cost_history.size(), 60u);
  for (std::size_t i = 0; i < 60; ++i)
    EXPECT_DOUBLE_EQ(resumed.cost_history[i], full.cost_history[i])
        << "cost history diverged at iteration " << i;
  ASSERT_EQ(resumed.control.size(), full.control.size());
  for (std::size_t i = 0; i < full.control.size(); ++i)
    EXPECT_DOUBLE_EQ(resumed.control[i], full.control[i]);

  std::remove(path.c_str());
}

TEST_F(ResilienceTest, CheckpointV2ResumeKeepsPerIterationArraysAligned) {
  // Regression: v1 checkpoints only persisted cost_history, so a resumed
  // DriverResult's grad_norm_history / iteration_seconds restarted at the
  // resume point and fell out of alignment with cost_history. v2 persists
  // all three.
  const Vector target{1.5, -0.5, 2.0};
  const std::string path = ::testing::TempDir() + "updec_v2_ckpt.txt";
  DriverOptions options = quad_options(60);
  options.checkpoint_every = 25;
  options.checkpoint_path = path;
  QuadraticStrategy full_strategy(target);
  const DriverResult full = updec::control::optimize_from(
      Vector(3, 0.0), full_strategy, options);

  QuadraticStrategy resumed_strategy(target);
  const DriverResult resumed =
      updec::control::optimize_resume(path, resumed_strategy, options);
  ASSERT_EQ(resumed.cost_history.size(), 60u);
  ASSERT_EQ(resumed.grad_norm_history.size(), resumed.cost_history.size());
  ASSERT_EQ(resumed.iteration_seconds.size(), resumed.cost_history.size());
  // Gradient norms are deterministic, so the checkpointed prefix AND the
  // recomputed suffix must both match the uninterrupted run bit for bit.
  for (std::size_t i = 0; i < 60; ++i)
    EXPECT_DOUBLE_EQ(resumed.grad_norm_history[i], full.grad_norm_history[i])
        << "grad-norm history diverged at iteration " << i;
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, CheckpointV1IsStillReadableWithZeroBackfill) {
  // Old on-disk checkpoints must keep resuming. Rewrite a fresh v2 file
  // into the v1 layout (no grad_norms / iter_seconds lines) and resume
  // from it: the missing arrays are zero-backfilled to cost_history's
  // length, never left short.
  const Vector target{1.0, 2.0};
  const std::string path = ::testing::TempDir() + "updec_v1_ckpt.txt";
  DriverOptions options = quad_options(60);
  options.checkpoint_every = 25;
  options.checkpoint_path = path;
  QuadraticStrategy strategy(target);
  const DriverResult full =
      updec::control::optimize_from(Vector(2, 0.0), strategy, options);

  std::string v1;
  {
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind("updec-checkpoint v2", 0) == 0)
        line = "updec-checkpoint v1";
      if (line.rfind("grad_norms ", 0) == 0 ||
          line.rfind("iter_seconds ", 0) == 0)
        continue;
      v1 += line + '\n';
    }
  }
  {
    std::ofstream os(path);
    os << v1;
  }

  QuadraticStrategy resumed_strategy(target);
  const DriverResult resumed =
      updec::control::optimize_resume(path, resumed_strategy, options);
  ASSERT_EQ(resumed.cost_history.size(), 60u);
  for (std::size_t i = 0; i < 60; ++i)
    EXPECT_DOUBLE_EQ(resumed.cost_history[i], full.cost_history[i]);
  // The checkpoint landed at iteration 50: the backfilled prefix is zero,
  // the 10 live iterations carry real gradient norms.
  ASSERT_EQ(resumed.grad_norm_history.size(), 60u);
  ASSERT_EQ(resumed.iteration_seconds.size(), 60u);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_DOUBLE_EQ(resumed.grad_norm_history[i], 0.0);
  for (std::size_t i = 50; i < 60; ++i)
    EXPECT_DOUBLE_EQ(resumed.grad_norm_history[i], full.grad_norm_history[i]);
  std::remove(path.c_str());
}

TEST_F(ResilienceTest, ResumeFromMissingCheckpointThrows) {
  QuadraticStrategy strategy(Vector{1.0});
  EXPECT_THROW(updec::control::optimize_resume(
                   ::testing::TempDir() + "updec_no_such_ckpt.txt", strategy,
                   quad_options(10)),
               updec::Error);
}

TEST_F(ResilienceTest, DisabledInjectionRunsAreBitIdentical) {
  ASSERT_FALSE(updec::fault::enabled());
  QuadraticStrategy a(Vector{1.0, -2.0, 0.5});
  QuadraticStrategy b(Vector{1.0, -2.0, 0.5});
  const DriverResult ra = updec::control::optimize_from(
      Vector(3, 0.0), a, quad_options(40));
  const DriverResult rb = updec::control::optimize_from(
      Vector(3, 0.0), b, quad_options(40));
  ASSERT_EQ(ra.cost_history.size(), rb.cost_history.size());
  for (std::size_t i = 0; i < ra.cost_history.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.cost_history[i], rb.cost_history[i]);
  for (std::size_t i = 0; i < ra.control.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.control[i], rb.control[i]);
  EXPECT_EQ(ra.recoveries, 0u);
  EXPECT_EQ(rb.recoveries, 0u);
}

}  // namespace
