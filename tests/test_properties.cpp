// Property-based tier-1 suite: bounded randomized trials of every oracle
// family in src/check, plus replay of all pinned fuzz regressions and a
// self-test of the fuzz driver's determinism and shrinking machinery.
//
// The trials here are deliberately small and few -- the whole binary must
// stay well under a minute in Debug. The unbounded exploration of the same
// oracles happens in examples/updec_fuzz (nightly CI); anything it finds is
// replayed here forever via check::pinned_cases(). A failure message always
// carries the one-line updec_fuzz replay command.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "check/oracles.hpp"
#include "testing_common.hpp"

namespace {

using updec::check::Oracle;
using updec::check::OracleCase;
using updec::check::OracleResult;

/// Per-family trial budget for the in-tree (tier-1) sweep. Sizes are capped
/// below the catalogue ceiling so Debug builds stay fast; the nightly fuzz
/// run covers the full ranges.
struct FamilyBudget {
  std::size_t max_size;
  int trials;
};

FamilyBudget budget_for(const std::string& name) {
  // The Laplace-control oracles factor a full collocation system per trial;
  // keep them at the small end of their admissible grids.
  if (name == "ad_vs_fd_laplace") return {8, 2};
  if (name == "dal_vs_dp_laplace") return {18, 2};
  if (name == "cached_vs_cold") return {7, 2};
  if (name == "ad_vs_fd_ops") return {16, 3};
  // sharded_vs_single forks 1- and 4-shard worker pools per trial and runs
  // the batch three ways; one modest batch exercises the whole boundary.
  if (name == "sharded_vs_single") return {6, 1};
  // refinement_vs_uniform runs three full DAL optimize rounds plus two
  // adapt/transfer steps per trial; two trials cover the size range.
  if (name == "refinement_vs_uniform") return {13, 2};
  // dp_rollout_vs_unrolled tapes the reference rollout scalar by scalar
  // (up to ~4M nodes at 350 nodes with early exits); three trials over the
  // whole node range cost a few seconds.
  if (name == "dp_rollout_vs_unrolled") return {350, 3};
  // pinn_op_vs_scalar tapes the reference network node by node (over 100k
  // nodes for a Dual2<Var> pass through four hidden layers of 40); four
  // networks over the whole width range take well under a second.
  if (name == "pinn_op_vs_scalar") return {40, 4};
  return {32, 3};
}

std::string replay_hint(const Oracle& oracle, const OracleCase& c) {
  std::ostringstream os;
  os << "replay: updec_fuzz --oracle " << oracle.name << " --case-seed 0x"
     << std::hex << c.seed << std::dec << " --size " << c.size;
  return os.str();
}

/// Sweep parameter that prints as the family name, so each case is named
/// after its family (a bare pointer prints its address, which changes from
/// run to run).
struct Family {
  const Oracle* oracle;

  friend void PrintTo(const Family& f, std::ostream* os) {
    *os << f.oracle->name;
  }
};

class OracleFamily : public ::testing::TestWithParam<Family> {};

TEST_P(OracleFamily, BoundedRandomTrials) {
  const Oracle& oracle = *GetParam().oracle;
  const FamilyBudget budget = budget_for(oracle.name);
  // Site seed derived from the family name so families explore independent
  // streams under a single UPDEC_TEST_SEED override.
  const std::uint64_t site =
      std::hash<std::string>{}(std::string("property:") + oracle.name);
  updec::Rng rng = updec::testing_support::test_rng(site);

  const std::size_t lo = oracle.min_size;
  const std::size_t hi =
      std::max(lo, std::min(oracle.max_size, budget.max_size));
  int ran = 0;
  for (int trial = 0; trial < budget.trials; ++trial) {
    OracleCase c;
    c.seed = rng.next_u64();
    c.size = lo + rng.uniform_index(hi - lo + 1);
    const OracleResult result = updec::check::run_guarded(oracle, c);
    if (result.skipped) {
      GTEST_SKIP() << oracle.name << ": " << result.detail;
    }
    ++ran;
    EXPECT_TRUE(result.ok)
        << oracle.name << " size=" << c.size << ": " << result.detail
        << "\n  error " << result.error << " > tolerance " << result.tolerance
        << "\n  " << replay_hint(oracle, c);
  }
  EXPECT_EQ(ran, budget.trials);
}

std::vector<Family> catalogue() {
  std::vector<Family> out;
  for (const Oracle& o : updec::check::all_oracles()) out.push_back({&o});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Catalogue, OracleFamily,
                         ::testing::ValuesIn(catalogue()));

TEST(OracleCatalogue, HasAllEightFamiliesWithSaneRanges) {
  const auto& oracles = updec::check::all_oracles();
  EXPECT_GE(oracles.size(), 6u);  // ISSUE floor; the catalogue ships eight
  for (const Oracle& o : oracles) {
    EXPECT_NE(o.name, nullptr);
    EXPECT_LE(o.min_size, o.max_size) << o.name;
    EXPECT_NE(o.run, nullptr) << o.name;
    EXPECT_EQ(updec::check::find_oracle(o.name), &o);
  }
  EXPECT_EQ(updec::check::find_oracle("no_such_oracle"), nullptr);
}

TEST(OracleCatalogue, RunGuardedClampsAndCatches) {
  const Oracle* oracle = updec::check::find_oracle("factorization_consistency");
  ASSERT_NE(oracle, nullptr);
  // A size far above the ceiling must be clamped, not explode the runtime.
  OracleCase c;
  c.seed = 42;
  c.size = 1u << 20;
  const OracleResult result = updec::check::run_guarded(*oracle, c);
  EXPECT_FALSE(result.skipped);
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST(PinnedFuzzCases, AllReplayClean) {
  // Every promoted fuzz finding must keep passing forever. A red here is a
  // regression of a previously fixed (or stress-pinned) behaviour.
  std::ostringstream quiet;
  for (const updec::check::PinnedCase& pin : updec::check::pinned_cases()) {
    const Oracle* oracle = updec::check::find_oracle(pin.oracle);
    ASSERT_NE(oracle, nullptr) << "pinned case names unknown oracle "
                               << pin.oracle;
    OracleCase c;
    c.seed = pin.case_seed;
    c.size = pin.size;
    const OracleResult result =
        updec::check::replay_case(*oracle, c, quiet);
    if (result.skipped) continue;
    EXPECT_TRUE(result.ok) << pin.oracle << " (" << pin.note
                           << "): " << result.detail << "\n  "
                           << replay_hint(*oracle, c);
  }
}

TEST(FuzzDriver, MasterSeedReplaysIdentically) {
  // Two runs from one master seed must draw identical (oracle, seed, size)
  // streams -- the property UPDEC_FUZZ_SEED replay depends on. Restrict to a
  // cheap oracle family so this stays fast in Debug.
  updec::check::FuzzOptions options;
  options.master_seed = 0xfeedface12345678ull;
  options.trials = 12;
  options.only_oracle = "factorization_consistency";
  options.max_size = 16;

  std::ostringstream out_a, out_b;
  const auto a = updec::check::run_fuzz(options, out_a);
  const auto b = updec::check::run_fuzz(options, out_b);
  EXPECT_EQ(a.trials_run, 12u);
  EXPECT_EQ(b.trials_run, 12u);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  EXPECT_TRUE(a.ok()) << out_a.str();
  // The streamed logs only differ in the timing summary line.
  const std::string log_a = out_a.str(), log_b = out_b.str();
  EXPECT_EQ(log_a.substr(0, log_a.rfind('\n', log_a.size() - 2)),
            log_b.substr(0, log_b.rfind('\n', log_b.size() - 2)));
}

TEST(FuzzDriver, ShrinksInjectedFailureToMinimalSize) {
  // Inject a synthetic oracle that fails iff size >= 7: the driver must
  // find a failure, shrink it to exactly 7, and emit both replay lines.
  const Oracle failing{
      "self_test_fails_at_7", "synthetic oracle for driver self-test",
      /*min_size=*/2, /*max_size=*/40, [](const OracleCase& c) {
        OracleResult r;
        r.tolerance = 0.5;
        r.error = (c.size >= 7) ? 1.0 : 0.0;
        r.ok = c.size < 7;
        r.detail = "synthetic failure above size 6";
        return r;
      }};
  const std::vector<Oracle> catalogue = {failing};

  updec::check::FuzzOptions options;
  options.master_seed = 0xabadcafe00000001ull;
  options.trials = 32;
  std::ostringstream out;
  const auto report = updec::check::run_fuzz(options, out, &catalogue);
  ASSERT_FALSE(report.failures.empty());
  for (const auto& f : report.failures) {
    EXPECT_EQ(f.oracle, "self_test_fails_at_7");
    EXPECT_GE(f.size, 7u);
    EXPECT_EQ(f.shrunk_size, 7u)
        << "shrinker should stop at the smallest failing size";
  }
  const std::string log = out.str();
  EXPECT_NE(log.find("replay run:"), std::string::npos);
  EXPECT_NE(log.find("replay case:"), std::string::npos);
  EXPECT_NE(log.find("--size 7"), std::string::npos);

  // Replaying the shrunk case directly must reproduce the failure -- the
  // acceptance contract of the fuzz driver.
  OracleCase shrunk;
  shrunk.seed = report.failures.front().case_seed;
  shrunk.size = report.failures.front().shrunk_size;
  std::ostringstream quiet;
  const auto replay = updec::check::replay_case(failing, shrunk, quiet);
  EXPECT_FALSE(replay.ok);
}

TEST(FuzzDriver, UnknownOracleIsReportedNotLooped) {
  updec::check::FuzzOptions options;
  options.trials = 5;
  options.only_oracle = "definitely_not_an_oracle";
  std::ostringstream out;
  const auto report = updec::check::run_fuzz(options, out);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.trials_run, 0u);
  EXPECT_NE(out.str().find("unknown oracle"), std::string::npos);
}

}  // namespace
