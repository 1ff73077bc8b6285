#pragma once
/// \file oracles.hpp
/// \brief Differential-testing oracles for the solver stack.
///
/// An oracle is a reusable predicate that builds a random problem instance
/// from a (seed, size) pair and cross-checks two or more code paths that
/// must agree: reverse-mode AD against central finite differences, the DAL
/// adjoint gradient against the DP gradient (the paper's central
/// consistency claim), the sparse band LU against dense LU, batched multi-RHS sweeps against looped
/// single solves, warm operator-cache hits against cold computes, and
/// OpenMP runs against single-threaded runs.
///
/// The same oracle functions back two front ends: tests/test_properties.cpp
/// runs a bounded number of trials per family inside gtest (tier-1), and
/// examples/updec_fuzz drives unbounded randomized trials with failure
/// shrinking (see fuzz.hpp). Keeping the predicates here -- in the library,
/// not the test binary -- is what lets a fuzz-found failure be replayed
/// verbatim as a pinned regression test.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace updec::check {

/// One randomized trial: everything an oracle needs to be reproducible.
struct OracleCase {
  std::uint64_t seed = 1;  ///< seeds the generator Rng for this trial
  std::size_t size = 16;   ///< problem scale (meaning is per-oracle)
};

/// Outcome of one oracle evaluation.
struct OracleResult {
  bool ok = true;
  bool skipped = false;    ///< environment cannot run this oracle (e.g. no
                           ///< OpenMP); counts as neither pass nor failure
  double error = 0.0;      ///< worst observed discrepancy
  double tolerance = 0.0;  ///< the bound `error` was checked against
  std::string detail;      ///< human-readable description of the check/failure
};

/// A named oracle family with its admissible size range. `min_size` is the
/// floor the fuzz shrinker may descend to; `max_size` bounds the sizes the
/// drivers draw by default.
struct Oracle {
  const char* name;
  const char* summary;
  std::size_t min_size;
  std::size_t max_size;
  OracleResult (*run)(const OracleCase&);
};

/// The oracle catalogue (stable order; names are CLI / replay identifiers).
const std::vector<Oracle>& all_oracles();

/// Look up an oracle by name; nullptr if unknown.
const Oracle* find_oracle(std::string_view name);

/// Run an oracle with exceptions converted into failing results (an
/// updec::Error escaping a solver is a finding, not a harness crash). The
/// case size is clamped into [min_size, max_size] first.
OracleResult run_guarded(const Oracle& oracle, OracleCase c);

// ---- the oracle families (directly callable for pinned regressions) ------

/// Reverse-mode AD through the vector tape ops (spmv, gemv, LU solve, dot,
/// hadamard, sum) against central finite differences of the same taped
/// scalar. size = vector dimension.
OracleResult ad_vs_fd_ops(const OracleCase& c);

/// DP gradient of the full Laplace control objective against central finite
/// differences at a random control iterate. size = grid resolution.
OracleResult ad_vs_fd_laplace(const OracleCase& c);

/// DAL adjoint gradient against the DP gradient on the Laplace problem:
/// identical costs, strongly aligned central gradient components (the wall
/// extremes legitimately differ -- section 4's Runge-corner effect).
/// size = grid resolution.
OracleResult dal_vs_dp_laplace(const OracleCase& c);

/// The band LU behind SparseFirstSolver against dense LU of the same matrix:
/// forward, transpose and batched solves, on a random sparse diagonally
/// dominant system and on a random RBF-FD system (not diagonally dominant,
/// so pivoting fires). size = matrix dimension / interior node count.
OracleResult solver_equivalence(const OracleCase& c);

/// LuFactorization::solve_many / lu_solve_many / SparseFirstSolver::solve_many
/// against looped single solves on the same systems. size = matrix dimension.
OracleResult batched_vs_looped(const OracleCase& c);

/// Warm OperatorCache hits (memoized collocation LU, memoized RBF-FD
/// weights) against cold computes: identical results, correct hit/miss
/// accounting. size = nodes per cloud side.
OracleResult cached_vs_cold(const OracleCase& c);

/// OpenMP parallel kernels (gemm, SpMV, batched LU sweeps, collocation
/// assembly, RBF-FD weights) against the same computations with the OpenMP
/// team forced to one thread. All row-parallel loops carry sequential
/// per-row accumulations, so results must be bit-for-bit identical.
/// Skipped (ok, skipped = true) when OpenMP is not compiled in.
/// size = matrix dimension.
OracleResult threaded_vs_serial(const OracleCase& c);

/// Cholesky and Householder QR against LU on random SPD systems, plus the
/// L L^T round trip and log-determinant agreement. size = matrix dimension.
OracleResult factorization_consistency(const OracleCase& c);

/// The sharded multi-process serving tier against a plain in-process run.
/// A random scenario batch (mixed grid families, seeds and iteration
/// budgets) is solved three ways -- directly through run_scenario with a
/// private cache, through a 1-shard pool, and through a 4-shard pool with
/// work stealing -- and every per-job final cost, iteration count and cost
/// history must agree BITWISE (tolerance 0): routing and the wire codec
/// transport raw double bit patterns and must not perturb results.
/// size = number of jobs in the batch.
OracleResult sharded_vs_single(const OracleCase& c);

}  // namespace updec::check
