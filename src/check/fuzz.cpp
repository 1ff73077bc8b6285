#include "check/fuzz.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace updec::check {
namespace {

/// Seeds are printed in hex: that is what UPDEC_FUZZ_SEED and --case-seed
/// accept back, and hex survives copy-paste through CI logs unmangled.
std::ostream& put_seed(std::ostream& os, std::uint64_t seed) {
  const auto flags = os.flags();
  os << "0x" << std::hex << seed;
  os.flags(flags);
  return os;
}

void print_failure(const FuzzFailure& f, std::ostream& out) {
  out << "trial " << f.trial << ": FAIL oracle=" << f.oracle
      << " size=" << f.size << " case_seed=";
  put_seed(out, f.case_seed) << "\n";
  out << "  detail: " << f.result.detail << "\n";
  out << "  error " << f.result.error << " > tolerance " << f.result.tolerance;
  if (f.shrunk_size != f.size) out << " (shrunk to size=" << f.shrunk_size << ")";
  out << "\n";
  out << "  replay run:  UPDEC_FUZZ_SEED=";
  put_seed(out, f.master_seed)
      << " updec_fuzz --trials " << (f.trial + 1) << "\n";
  out << "  replay case: updec_fuzz --oracle " << f.oracle << " --case-seed ";
  put_seed(out, f.case_seed) << " --size " << f.shrunk_size << "\n";
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& options, std::ostream& out,
                    const std::vector<Oracle>* catalogue) {
  FuzzReport report;
  Stopwatch watch;

  const std::vector<Oracle>& families =
      (catalogue != nullptr) ? *catalogue : all_oracles();
  std::vector<const Oracle*> pool;
  for (const Oracle& o : families) {
    if (options.only_oracle.empty() || options.only_oracle == o.name)
      pool.push_back(&o);
  }
  if (pool.empty()) {
    out << "[updec_fuzz] unknown oracle '" << options.only_oracle
        << "'; known oracles:\n";
    for (const Oracle& o : families)
      out << "  " << o.name << " -- " << o.summary << "\n";
    FuzzFailure f;
    f.oracle = options.only_oracle;
    f.result.ok = false;
    f.result.detail = "unknown oracle name";
    report.failures.push_back(std::move(f));
    return report;
  }

  out << "[updec_fuzz] seed=";
  put_seed(out, options.master_seed)
      << " trials=" << (options.trials == 0 ? std::string("unbounded")
                                            : std::to_string(options.trials))
      << " budget="
      << (options.max_seconds > 0.0
              ? std::to_string(options.max_seconds) + "s"
              : std::string("unbounded"))
      << " oracles=" << pool.size() << "\n";

  Rng master(options.master_seed);
  for (std::size_t trial = 0;; ++trial) {
    if (options.trials != 0 && trial >= options.trials) break;
    if (options.max_seconds > 0.0 && watch.seconds() >= options.max_seconds)
      break;

    // Every trial consumes exactly three master draws (oracle, seed, size)
    // whatever happens afterwards, so replay-by-master-seed stays aligned.
    const Oracle& oracle = *pool[master.uniform_index(pool.size())];
    OracleCase c;
    c.seed = master.next_u64();
    std::size_t hi = oracle.max_size;
    if (options.max_size != 0) hi = std::min(hi, options.max_size);
    hi = std::max(hi, oracle.min_size);
    c.size = oracle.min_size + master.uniform_index(hi - oracle.min_size + 1);

    const OracleResult result = run_guarded(oracle, c);
    ++report.trials_run;
    if (result.skipped) {
      ++report.skipped;
      continue;
    }
    if (result.ok) continue;

    FuzzFailure f;
    f.oracle = oracle.name;
    f.master_seed = options.master_seed;
    f.trial = trial;
    f.case_seed = c.seed;
    f.size = c.size;
    f.shrunk_size = c.size;
    f.result = result;

    if (options.shrink) {
      // Hold the case seed fixed and scan sizes upward from the oracle's
      // floor: the first size that still fails is the minimal reproducer.
      for (std::size_t s = oracle.min_size; s < c.size; ++s) {
        OracleCase small = c;
        small.size = s;
        const OracleResult r = run_guarded(oracle, small);
        if (!r.skipped && !r.ok) {
          f.shrunk_size = s;
          f.result = r;
          break;
        }
      }
    }

    print_failure(f, out);
    report.failures.push_back(std::move(f));
  }

  report.seconds = watch.seconds();
  out << "[updec_fuzz] " << report.trials_run << " trials, " << report.skipped
      << " skipped, " << report.failures.size() << " failures in "
      << std::fixed << std::setprecision(2) << report.seconds
      << "s (seed ";
  put_seed(out, options.master_seed) << ")\n";
  return report;
}

OracleResult replay_case(const Oracle& oracle, const OracleCase& c,
                         std::ostream& out) {
  const OracleResult result = run_guarded(oracle, c);
  out << "[updec_fuzz] replay oracle=" << oracle.name << " size=" << c.size
      << " case_seed=";
  put_seed(out, c.seed) << ": "
                        << (result.skipped ? "SKIP"
                                           : (result.ok ? "PASS" : "FAIL"))
                        << "\n  " << result.detail << "\n";
  return result;
}

const std::vector<PinnedCase>& pinned_cases() {
  // Promotion workflow: when a fuzz failure is confirmed as a bug and
  // fixed, append its (oracle, case_seed, shrunk size) here with a note
  // naming the fix. Tier-1 replays every entry on every run.
  static const std::vector<PinnedCase> cases = {
      {"ad_vs_fd_ops", 0x7c9e1f3a5b8d2046ull, 24,
       "stress pin: largest tape-op pipeline the Debug budget allows"},
      {"solver_equivalence", 0x3f6b9d12a4c8e075ull, 96,
       "stress pin: widest band-vs-dense LU system in the default size "
       "range (pinned when the solver was a Krylov chain)"},
      {"batched_vs_looped", 0x58d0c2b7e91f6a34ull, 64,
       "stress pin: full-width multi-RHS sweep vs looped solves"},
      {"factorization_consistency", 0x21aa7e44c3d95b80ull, 64,
       "stress pin: Cholesky/QR/LU agreement at the range ceiling"},
      {"sharded_vs_single", 0x4e1b83c6d90f2a57ull, 8,
       "stress pin: mixed-grid batch through 1- and 4-shard pools must "
       "replay the in-process costs bitwise"},
  };
  return cases;
}

}  // namespace updec::check
