#include "check/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#ifdef UPDEC_HAVE_OPENMP
#include <omp.h>
#endif

#include "autodiff/ops.hpp"
#include "autodiff/tape.hpp"
#include "check/generators.hpp"
#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/lu.hpp"
#include "la/qr.hpp"
#include "la/robust_solve.hpp"
#include "pointcloud/generators.hpp"
#include "rbf/collocation.hpp"
#include "rbf/rbffd.hpp"
#include "refine/adaptive_loop.hpp"
#include "rom/laplace_rom.hpp"
#include "serve/cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard.hpp"

namespace updec::check {
namespace {

/// error <= tolerance decides ok; detail should read as a sentence fragment.
OracleResult judged(double error, double tolerance, std::string detail) {
  OracleResult r;
  r.error = error;
  r.tolerance = tolerance;
  r.ok = error <= tolerance;
  r.detail = std::move(detail);
  return r;
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / (1.0 + std::max(std::abs(a), std::abs(b)));
}

double max_rel_diff(const la::Vector& a, const la::Vector& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "oracle vector size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, rel_diff(a[i], b[i]));
  return worst;
}

double max_abs_diff(const la::Matrix& a, const la::Matrix& b) {
  UPDEC_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
                "oracle matrix shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
  return worst;
}

double max_abs_diff(const la::Vector& a, const la::Vector& b) {
  UPDEC_REQUIRE(a.size() == b.size(), "oracle vector size mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

double cosine(const la::Vector& a, const la::Vector& b) {
  return la::dot(a, b) / (la::nrm2(a) * la::nrm2(b) + 1e-300);
}

}  // namespace

// ---- AD vs FD on tape ops -------------------------------------------------

OracleResult ad_vs_fd_ops(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);

  const la::CsrMatrix sp = random_sparse_diag_dominant(rng, n);
  const la::Matrix dense = random_matrix(rng, n, n);
  const la::LuFactorization lu(random_diag_dominant(rng, n));
  const la::Vector w1 = random_vector(rng, n);
  const la::Vector w2 = random_vector(rng, n);
  const la::Vector x0 = random_vector(rng, n);

  // One taped pipeline through every vector op with a hand-written VJP:
  //   y = A_lu^{-1} (S x + D x);  J = <y, w1> + <y o x, w2> + sum(0.5 x)
  // Evaluated through the tape for both the gradient and the FD probes, so
  // forward values and adjoints are checked against the same arithmetic.
  const auto evaluate = [&](const la::Vector& x, la::Vector* grad) {
    ad::Tape tape;
    ad::VarVec vx = ad::make_variables(tape, x);
    ad::VarVec y = ad::solve(lu, ad::add(ad::spmv(sp, vx), ad::gemv(dense, vx)));
    ad::Var j1 = ad::dot(y, w1);
    ad::Var j2 = ad::dot(ad::hadamard(y, vx), w2);
    ad::Var j3 = ad::sum(ad::scale(0.5, vx));
    const ad::Var j = tape.node2(j1.value() + j2.value(), j1.index(), 1.0,
                                 j2.index(), 1.0);
    const ad::Var total =
        tape.node2(j.value() + j3.value(), j.index(), 1.0, j3.index(), 1.0);
    if (grad != nullptr) {
      tape.backward(total);
      *grad = ad::adjoints(vx);
    }
    return total.value();
  };

  la::Vector g_ad;
  evaluate(x0, &g_ad);

  la::Vector g_fd(n);
  la::Vector xp = x0;
  for (std::size_t i = 0; i < n; ++i) {
    const double h = 1e-6 * (1.0 + std::abs(x0[i]));
    xp[i] = x0[i] + h;
    const double jp = evaluate(xp, nullptr);
    xp[i] = x0[i] - h;
    const double jm = evaluate(xp, nullptr);
    xp[i] = x0[i];
    g_fd[i] = (jp - jm) / (2.0 * h);
  }

  const double err = max_rel_diff(g_ad, g_fd);
  std::ostringstream os;
  os << "tape gradient vs central FD over spmv/gemv/lu-solve/dot/hadamard"
     << " (n=" << n << ", max rel component diff " << err << ")";
  return judged(err, 1e-4, os.str());
}

// ---- AD vs FD on the full Laplace control objective -----------------------

OracleResult ad_vs_fd_laplace(const OracleCase& c) {
  Rng rng(c.seed);
  const LaplaceCase lc = random_laplace_case(rng, std::max<std::size_t>(c.size, 6));
  auto dp = control::make_laplace_dp(lc.problem);
  auto fd = control::make_laplace_fd(lc.problem);

  la::Vector g_dp, g_fd;
  const double j_dp = dp->value_and_gradient(lc.control, g_dp);
  const double j_fd = fd->value_and_gradient(lc.control, g_fd);

  double err = rel_diff(j_dp, j_fd);
  err = std::max(err, max_rel_diff(g_dp, g_fd));
  std::ostringstream os;
  os << "DP gradient vs central FD on Laplace objective (grid " << lc.grid_n
     << ", " << g_dp.size() << " controls, worst rel diff " << err << ")";
  return judged(err, 1e-4, os.str());
}

// ---- DAL vs DP ------------------------------------------------------------

OracleResult dal_vs_dp_laplace(const OracleCase& c) {
  Rng rng(c.seed);
  // The continuous-adjoint (optimise-then-discretise) gradient only tracks
  // the exact discrete gradient inside its consistency domain: fine enough
  // grids and *smooth* controls near the optimisation path. Measured on
  // this codebase, grids >= 16 with controls within quarter-scale of the
  // analytic minimiser plus smooth perturbations keep the central cosine
  // >= 0.88; rough (white-noise) controls legitimately anti-align even at
  // grid 24 -- that is the paper's section-4 OTD-inconsistency, not a bug.
  // The oracle therefore randomises within the validated domain.
  const std::size_t grid = std::clamp<std::size_t>(c.size, 16, 28);
  const auto kernel = std::make_shared<rbf::PolyharmonicSpline>(3);
  const auto problem =
      std::make_shared<control::LaplaceControlProblem>(grid, *kernel);
  la::Vector control = problem->analytic_control();
  const double scale = rng.uniform(0.0, 0.25);
  const double a = rng.uniform(-0.1, 0.1);
  const double b = rng.uniform(-0.1, 0.1);
  const std::vector<double> xs = problem->solver().control_x();
  for (std::size_t i = 0; i < control.size(); ++i) {
    constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
    control[i] = scale * control[i] + a * std::sin(kTwoPi * xs[i]) +
                 b * std::cos(kTwoPi * xs[i]);
  }

  auto dp = control::make_laplace_dp(problem);
  auto dal = control::make_laplace_dal(problem);
  la::Vector g_dp, g_dal;
  const double j_dp = dp->value_and_gradient(control, g_dp);
  const double j_dal = dal->value_and_gradient(control, g_dal);

  // Both strategies evaluate J through the same forward solve: the costs
  // must agree to roundoff no matter what the gradients do.
  const double cost_err = rel_diff(j_dp, j_dal);
  if (cost_err > 1e-10) {
    std::ostringstream os;
    os << "DAL and DP report different costs at the same control: " << j_dal
       << " vs " << j_dp;
    return judged(cost_err, 1e-10, os.str());
  }

  // The continuous-adjoint gradient is corrupted at the wall extremes (the
  // section-4 Runge corners), so direction agreement is asserted over the
  // central half of the control vector only.
  la::Vector central_dp, central_dal;
  for (std::size_t i = g_dp.size() / 4; i < 3 * g_dp.size() / 4; ++i) {
    central_dp.std().push_back(g_dp[i]);
    central_dal.std().push_back(g_dal[i]);
  }
  const double align = cosine(central_dp, central_dal);
  std::ostringstream os;
  os << "DAL vs DP central-gradient alignment on Laplace (grid " << grid
     << ", control scale " << scale << ", cosine " << align
     << ", costs agree to " << cost_err << ")";
  return judged(1.0 - align, 0.25, os.str());
}

// ---- band LU vs dense LU --------------------------------------------------

OracleResult solver_equivalence(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 4);

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const std::string& name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };
  // Forward, transpose and batched band solves of `a` against dense LU of
  // the same matrix, each error relative to the reference's magnitude.
  const auto compare = [&](const std::string& family, const la::CsrMatrix& a) {
    const std::size_t m = a.rows();
    const la::LuFactorization dense(a.to_dense());
    const la::SparseFirstSolver band(a);
    la::SolveReport report;

    const la::Vector b = random_vector(rng, m);
    const la::Vector x = band.solve(b, &report);
    report.require_converged("oracle band solve");
    const la::Vector x_ref = dense.solve(b);
    consider(family + "/solve",
             max_abs_diff(x, x_ref) / (la::nrm_inf(x_ref) + 1.0));

    const la::Vector xt = band.solve_transpose(b, &report);
    report.require_converged("oracle band solve_transpose");
    const la::Vector xt_ref = dense.solve_transpose(b);
    consider(family + "/transpose",
             max_abs_diff(xt, xt_ref) / (la::nrm_inf(xt_ref) + 1.0));

    const la::Matrix bm = random_matrix(rng, m, 1 + rng.uniform_index(6));
    const la::Matrix xm = band.solve_many(bm, &report);
    report.require_converged("oracle band solve_many");
    const la::Matrix xm_ref = dense.solve_many(bm);
    const la::Matrix zero(xm_ref.rows(), xm_ref.cols());
    consider(family + "/solve_many",
             max_abs_diff(xm, xm_ref) / (max_abs_diff(xm_ref, zero) + 1.0));
  };
  compare("diag-dominant", random_sparse_diag_dominant(rng, n));
  // Not diagonally dominant: the band factorisation's pivoting fires.
  compare("rbf-fd", random_rbffd_system(rng, n));

  std::ostringstream os;
  os << "band LU vs dense LU, forward/transpose/batched, on diag-dominant "
     << "and RBF-FD systems (n=" << n << ", worst path " << worst << " at "
     << err << ")";
  return judged(err, 1e-7, os.str());
}

// ---- batched vs looped ----------------------------------------------------

OracleResult batched_vs_looped(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);
  const std::size_t k = 1 + rng.uniform_index(8);

  const la::Matrix a = random_diag_dominant(rng, n);
  la::Matrix b(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) b(i, j) = rng.normal();

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };

  // LuFactorization::solve_many against per-column solve().
  const la::LuFactorization lu(a);
  {
    const la::Matrix batched = lu.solve_many(b);
    la::Matrix looped(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      la::Vector col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      const la::Vector x = lu.solve(col);
      for (std::size_t i = 0; i < n; ++i) looped(i, j) = x[i];
    }
    consider("lu.solve_many", max_abs_diff(batched, looped));
    consider("lu_solve_many", max_abs_diff(la::lu_solve_many(a, b), looped));
  }

  // SparseFirstSolver::solve_many against per-column solve().
  {
    const la::SparseFirstSolver sp(random_sparse_diag_dominant(rng, n));
    la::SolveReport report;
    const la::Matrix batched = sp.solve_many(b, &report);
    report.require_converged("oracle sparse solve_many");
    la::Matrix looped(n, k);
    for (std::size_t j = 0; j < k; ++j) {
      la::Vector col(n);
      for (std::size_t i = 0; i < n; ++i) col[i] = b(i, j);
      const la::Vector x = sp.solve(col, &report);
      report.require_converged("oracle sparse solve loop");
      for (std::size_t i = 0; i < n; ++i) looped(i, j) = x[i];
    }
    consider("sparse_first.solve_many", max_abs_diff(batched, looped));
  }

  std::ostringstream os;
  os << "batched multi-RHS sweeps vs looped single solves (n=" << n
     << ", k=" << k << ", worst path " << worst << " at " << err << ")";
  return judged(err, 1e-10, os.str());
}

// ---- warm cache hits vs cold computes -------------------------------------

OracleResult cached_vs_cold(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t side = std::max<std::size_t>(c.size, 4);
  const pc::PointCloud cloud = random_cloud(rng, side * side, side);
  const rbf::PolyharmonicSpline kernel(3);

  const auto interior = [](const pc::Node&) { return 0.0; };
  const auto boundary = [](const pc::Node& node) {
    return std::sin(3.0 * node.pos.x) + node.pos.y;
  };

  // Cold: a collocation that factors its own LU.
  rbf::GlobalCollocation cold(cloud, kernel, 1, rbf::LinearOp::laplacian());
  const la::Vector rhs = cold.assemble_rhs(interior, boundary);
  const la::Vector x_cold = cold.solve(rhs);

  // Warm: two fresh collocations of the same content served by one cache --
  // the second memoize must hit and both must reproduce the cold solution
  // bit-for-bit (same matrix bytes => same factorisation => same sweeps).
  serve::OperatorCache cache(std::size_t{1} << 30);
  rbf::GlobalCollocation warm1(cloud, kernel, 1, rbf::LinearOp::laplacian());
  rbf::GlobalCollocation warm2(cloud, kernel, 1, rbf::LinearOp::laplacian());
  serve::memoize_lu(cache, warm1);
  serve::memoize_lu(cache, warm2);
  const la::Vector x_warm1 = warm1.solve(rhs);
  const la::Vector x_warm2 = warm2.solve(rhs);

  double err = std::max(max_abs_diff(x_cold, x_warm1),
                        max_abs_diff(x_cold, x_warm2));

  // Memoized RBF-FD weights: second fetch must be the identical object and
  // match a cold weights_for() run exactly.
  const rbf::RbffdConfig config = random_stencil_config(rng, cloud.size());
  const rbf::RbffdOperators ops(cloud, kernel, config);
  const la::CsrMatrix w_cold = ops.weights_for(rbf::LinearOp::laplacian());
  const auto w1 =
      serve::cached_rbffd_weights(cache, ops, rbf::LinearOp::laplacian());
  const auto w2 =
      serve::cached_rbffd_weights(cache, ops, rbf::LinearOp::laplacian());
  if (w1.get() != w2.get())
    return judged(1.0, 0.0, "repeated cached_rbffd_weights returned distinct objects");
  err = std::max(err, max_abs_diff(w_cold.to_dense(), w1->to_dense()));

  const serve::OperatorCache::Stats stats = cache.stats();
  if (stats.misses != 2 || stats.hits < 2) {
    std::ostringstream os;
    os << "cache accounting wrong: expected 2 misses / >= 2 hits, got "
       << stats.misses << " misses / " << stats.hits << " hits";
    return judged(1.0, 0.0, os.str());
  }

  std::ostringstream os;
  os << "warm OperatorCache hits reproduce cold computes (" << cloud.size()
     << " nodes, " << stats.hits << " hits, max abs diff " << err << ")";
  return judged(err, 0.0, os.str());
}

// ---- OpenMP vs forced single thread ---------------------------------------

OracleResult threaded_vs_serial(const OracleCase& c) {
#ifndef UPDEC_HAVE_OPENMP
  (void)c;
  OracleResult r;
  r.skipped = true;
  r.detail = "OpenMP not compiled in; threaded-vs-serial oracle skipped";
  return r;
#else
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 4);
  const std::size_t k = 1 + rng.uniform_index(6);

  const la::Matrix a = random_matrix(rng, n, n);
  const la::Matrix bm = random_matrix(rng, n, n);
  const la::Matrix d = random_diag_dominant(rng, n);
  la::Matrix rhs(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j) rhs(i, j) = rng.normal();
  const la::CsrMatrix sp = random_sparse_diag_dominant(rng, n);
  const la::Vector v = random_vector(rng, n);

  const std::size_t side = 4 + rng.uniform_index(4);
  const pc::PointCloud cloud = random_cloud(rng, side * side, side);
  const rbf::PolyharmonicSpline kernel(3);
  const rbf::RbffdConfig config = random_stencil_config(rng, cloud.size());

  struct Snapshot {
    la::Matrix gemm_out;
    la::Vector spmv_out;
    la::Matrix solve_many_out;
    la::Matrix colloc_matrix;
    la::Matrix rbffd_lap;
  };
  const auto compute = [&]() {
    Snapshot s;
    s.gemm_out = la::Matrix(n, n);
    la::gemm(1.0, a, bm, 0.0, s.gemm_out);
    s.spmv_out = sp.apply(v);
    s.solve_many_out = la::lu_solve_many(d, rhs);
    rbf::GlobalCollocation colloc(cloud, kernel, 1,
                                  rbf::LinearOp::laplacian());
    s.colloc_matrix = colloc.matrix();
    rbf::RbffdOperators ops(cloud, kernel, config);
    s.rbffd_lap = ops.laplacian().to_dense();
    return s;
  };

  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  Snapshot serial;
  try {
    serial = compute();
  } catch (...) {
    omp_set_num_threads(saved_threads);
    throw;
  }
  omp_set_num_threads(saved_threads);
  const Snapshot threaded = compute();

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };
  consider("gemm", max_abs_diff(serial.gemm_out, threaded.gemm_out));
  consider("spmv", max_abs_diff(serial.spmv_out, threaded.spmv_out));
  consider("lu_solve_many",
           max_abs_diff(serial.solve_many_out, threaded.solve_many_out));
  consider("collocation_assembly",
           max_abs_diff(serial.colloc_matrix, threaded.colloc_matrix));
  consider("rbffd_weights", max_abs_diff(serial.rbffd_lap, threaded.rbffd_lap));

  std::ostringstream os;
  os << "OpenMP (" << saved_threads << " threads) vs forced serial run "
     << "(n=" << n << ", worst kernel " << worst << " at " << err
     << "; row-parallel loops must be bitwise deterministic)";
  return judged(err, 0.0, os.str());
#endif
}

// ---- Cholesky / QR / LU consistency ---------------------------------------

OracleResult factorization_consistency(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n = std::max<std::size_t>(c.size, 2);
  const la::Matrix a = random_spd(rng, n);
  const la::Vector b = random_vector(rng, n);

  const la::Vector x_lu = la::solve(a, b);
  const double scale = la::nrm_inf(x_lu) + 1.0;

  double err = 0.0;
  std::string worst = "none";
  const auto consider = [&](const char* name, double e) {
    if (e > err) {
      err = e;
      worst = name;
    }
  };

  const la::CholeskyFactorization chol(a);
  consider("cholesky_solve", max_abs_diff(chol.solve(b), x_lu) / scale);

  const la::QrFactorization qr(a);
  consider("qr_solve", max_abs_diff(qr.solve_least_squares(b), x_lu) / scale);

  // log|det A| from the Cholesky factor vs the LU determinant.
  const la::LuFactorization lu(a);
  consider("log_determinant",
           rel_diff(chol.log_determinant(), std::log(std::abs(lu.determinant()))));

  std::ostringstream os;
  os << "Cholesky/QR/LU agreement on random SPD system (n=" << n
     << ", worst path " << worst << " at " << err << ")";
  return judged(err, 1e-8, os.str());
}

// ---- adjoint-adaptive refinement vs uniform --------------------------------

/// The analytic minimiser sampled at a problem's control DOFs: at this
/// control the exact tracked cost is 0, so the discrete cost IS the
/// tracked-cost discretisation error -- an optimizer-free measure of cloud
/// quality.
la::Vector analytic_control_for(const rom::LaplaceFdControlProblem& p) {
  la::Vector c(p.control_size(), 0.0);
  const std::vector<double>& xs = p.solver().top_x();
  for (std::size_t i = 0; i + 1 < xs.size(); ++i)
    c[i] = pde::LaplaceSolver::analytic_control(xs[i]);
  return c;
}

OracleResult refinement_vs_uniform(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t grid_n = std::clamp<std::size_t>(c.size, 12, 14);

  refine::AdaptiveOptions options;
  options.refine.cycles = 2;
  options.refine.refine_fraction = rng.uniform(0.10, 0.20);
  const rbf::PolyharmonicSpline kernel(3);
  const refine::AdaptiveResult adapted =
      refine::AdaptiveLoop(grid_n, kernel, options).run();
  const std::size_t adapted_nodes =
      adapted.problem->solver().cloud().size();
  const double adapted_err =
      adapted.problem->cost(analytic_control_for(*adapted.problem));

  // Uniform arm: the smallest uniform grid with AT LEAST as many nodes, so
  // the comparison can only flatter the uniform cloud.
  std::size_t uniform_n = grid_n;
  while ((uniform_n + 1) * (uniform_n + 1) < adapted_nodes) ++uniform_n;
  const rom::LaplaceFdControlProblem uniform(uniform_n, kernel);
  const double uniform_err = uniform.cost(analytic_control_for(uniform));

  std::ostringstream os;
  os << "adaptive refinement (base " << grid_n << "^2, fraction "
     << options.refine.refine_fraction << ") reached " << adapted_nodes
     << " nodes with tracked-cost error " << adapted_err << " vs uniform "
     << uniform.solver().cloud().size() << " nodes at " << uniform_err;
  if (!(uniform_err > 0.0))
    return judged(1.0, 0.0, "uniform reference error vanished: " + os.str());
  // The adapted cloud must not lose to uniform at matched size (the bench
  // gate demands 2x; the randomized oracle only asserts "never worse").
  return judged(adapted_err / uniform_err, 1.0, os.str());
}

// ---- sharded serving vs in-process ----------------------------------------

OracleResult sharded_vs_single(const OracleCase& c) {
  Rng rng(c.seed);
  const std::size_t n_jobs = std::max<std::size_t>(c.size, 4);

  // A mixed batch: several grid families so a 4-shard pool actually spreads
  // load (and steals), randomized seeds/jitter so runs are distinct jobs.
  std::vector<serve::Scenario> scenarios;
  scenarios.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    serve::Scenario sc;
    sc.id = "oracle-" + std::to_string(i);
    sc.problem = serve::ProblemKind::kLaplace;
    sc.strategy = serve::Strategy::kDal;
    sc.grid_n = 6 + rng.uniform_index(3);
    sc.iterations = 2 + rng.uniform_index(3);
    sc.learning_rate = 1e-2;
    sc.seed = rng.next_u64();
    sc.control_jitter = rng.uniform(0.0, 0.2);
    scenarios.push_back(sc);
  }

  // Reference arm: plain run_scenario with a private cache, no processes.
  serve::OperatorCache reference_cache(64u << 20, "");
  std::vector<serve::JobReport> reference;
  reference.reserve(n_jobs);
  for (const serve::Scenario& sc : scenarios)
    reference.push_back(serve::run_scenario(sc, reference_cache));

  const auto run_sharded = [&](std::size_t shards) {
    serve::SchedulerOptions options;
    options.shards = shards;
    serve::Scheduler scheduler(options);
    std::vector<serve::Scheduler::JobId> ids;
    ids.reserve(n_jobs);
    for (const serve::Scenario& sc : scenarios)
      ids.push_back(scheduler.submit(sc));
    std::vector<serve::JobReport> reports;
    reports.reserve(n_jobs);
    for (const auto id : ids) reports.push_back(scheduler.wait(id));
    return reports;
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::vector<serve::JobReport> reports = run_sharded(shards);
    for (std::size_t i = 0; i < n_jobs; ++i) {
      const serve::JobReport& got = reports[i];
      const serve::JobReport& want = reference[i];
      std::ostringstream os;
      os << scenarios[i].id << " via " << shards << " shard(s) ";
      if (got.status != serve::JobStatus::kSucceeded) {
        os << "failed: " << got.error;
        return judged(1.0, 0.0, os.str());
      }
      if (got.final_cost != want.final_cost ||
          got.iterations != want.iterations ||
          got.cost_history != want.cost_history) {
        os << "diverged from the in-process run: J=" << got.final_cost
           << " vs " << want.final_cost << " ("
           << std::abs(got.final_cost - want.final_cost) << " apart), "
           << got.iterations << " vs " << want.iterations << " iterations";
        return judged(1.0, 0.0, os.str());
      }
    }
  }

  std::ostringstream os;
  os << "sharded serving vs in-process run (" << n_jobs
     << " jobs, 1-shard and 4-shard pools, per-job costs bitwise equal)";
  return judged(0.0, 0.0, os.str());
}

// ---- catalogue ------------------------------------------------------------

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> oracles = {
      {"ad_vs_fd_ops", "reverse-mode AD vs central FD on the vector tape ops",
       4, 32, &ad_vs_fd_ops},
      {"ad_vs_fd_laplace",
       "DP gradient vs central FD on the Laplace control objective", 6, 12,
       &ad_vs_fd_laplace},
      {"dal_vs_dp_laplace",
       "DAL adjoint gradient vs DP gradient on the Laplace problem", 16, 28,
       &dal_vs_dp_laplace},
      {"solver_equivalence",
       "band LU vs dense LU: forward, transpose and batched solves", 8, 96,
       &solver_equivalence},
      {"batched_vs_looped",
       "dense and band solve_many / lu_solve_many vs looped single solves", 4,
       64, &batched_vs_looped},
      {"cached_vs_cold",
       "warm OperatorCache hits vs cold assembly + factorisation", 4, 9,
       &cached_vs_cold},
      {"threaded_vs_serial",
       "OpenMP kernels vs the same run forced to one thread", 8, 64,
       &threaded_vs_serial},
      {"factorization_consistency",
       "Cholesky and QR vs LU on random SPD systems", 2, 64,
       &factorization_consistency},
      {"refinement_vs_uniform",
       "adjoint-adapted point clouds vs uniform grids at matched node count",
       12, 14, &refinement_vs_uniform},
      {"sharded_vs_single",
       "multi-process shard pools vs a plain in-process scenario run", 4, 12,
       &sharded_vs_single},
  };
  return oracles;
}

const Oracle* find_oracle(std::string_view name) {
  for (const Oracle& o : all_oracles())
    if (name == o.name) return &o;
  return nullptr;
}

OracleResult run_guarded(const Oracle& oracle, OracleCase c) {
  c.size = std::clamp(c.size, oracle.min_size, oracle.max_size);
  try {
    return oracle.run(c);
  } catch (const std::exception& e) {
    OracleResult r;
    r.ok = false;
    r.error = 1.0;
    r.tolerance = 0.0;
    r.detail = std::string("exception escaped oracle: ") + e.what();
    return r;
  }
}

}  // namespace updec::check
