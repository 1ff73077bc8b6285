#include "refine/adaptive_loop.hpp"

#include <utility>

#include "refine/transfer.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace updec::refine {

namespace {

/// Captures the last (state, adjoint) pair the DAL strategy computed; after
/// control::optimize_from returns, this holds the pair belonging to the
/// final accepted control -- exactly what the DWR indicator wants.
class PairCapture final : public control::AdjointObserver {
 public:
  void on_adjoint_pair(const la::Vector& state,
                       const la::Vector& adjoint) override {
    state_ = state;
    adjoint_ = adjoint;
  }
  [[nodiscard]] bool seen() const { return state_.size() > 0; }
  [[nodiscard]] const la::Vector& state() const { return state_; }
  [[nodiscard]] const la::Vector& adjoint() const { return adjoint_; }

 private:
  la::Vector state_;
  la::Vector adjoint_;
};

}  // namespace

AdaptiveLoop::AdaptiveLoop(std::size_t grid_n, const rbf::Kernel& kernel,
                           AdaptiveOptions options)
    : grid_n_(grid_n), kernel_(&kernel), options_(std::move(options)) {
  UPDEC_REQUIRE(grid_n_ >= 4, "adaptive loop needs a non-trivial base grid");
  UPDEC_REQUIRE(options_.driver.iterations > 0,
                "adaptive loop needs at least one optimize iteration");
}

AdaptiveResult AdaptiveLoop::run() const {
  UPDEC_TRACE_SCOPE("refine/adaptive_loop");
  auto problem = std::make_shared<rom::LaplaceFdControlProblem>(
      grid_n_, *kernel_, options_.stencil);
  la::Vector control = problem->initial_control();

  AdaptiveResult result;
  std::size_t inserted_total = 0;
  std::size_t removed_total = 0;
  // cycles adapt steps separate cycles + 1 optimize rounds; the final round
  // converges the control on the last adapted cloud.
  for (std::size_t cycle = 0; cycle <= options_.refine.cycles; ++cycle) {
    Stopwatch watch;
    CycleReport report;
    report.nodes = problem->solver().cloud().size();

    // Optimize: warm-started from the previous cloud's control (the control
    // DOF layout is invariant because adaptation never touches boundaries).
    const std::unique_ptr<control::GradientStrategy> strategy =
        rom::make_laplace_fd_dal(problem);
    PairCapture capture;
    UPDEC_REQUIRE(strategy->set_adjoint_observer(&capture),
                  "the DAL strategy must support adjoint observation");
    control::DriverOptions driver = options_.driver;
    if (cycle > 0)
      driver.initial_learning_rate *= options_.warm_lr_decay;
    control::DriverResult opt =
        control::optimize_from(std::move(control), *strategy, driver);
    UPDEC_REQUIRE(!opt.aborted, "adaptive cycle diverged beyond recovery");
    UPDEC_REQUIRE(capture.seen(),
                  "optimize must evaluate at least one gradient");
    control = std::move(opt.control);
    report.cost = opt.final_cost;

    // Estimate: adjoint-weighted residual of the converged pair.
    const la::Vector eta = adjoint_weighted_residual(
        problem->solver(), capture.state(), capture.adjoint(),
        options_.indicator);
    for (std::size_t i = 0; i < eta.size(); ++i)
      report.indicator_total += eta[i];

    if (cycle == options_.refine.cycles) {
      report.seconds = watch.seconds();
      result.cycles.push_back(report);
      break;
    }

    // Adapt: fixed-fraction selection, boundary protected by construction.
    const RefinePlan plan = fixed_fraction_plan(problem->solver().operators(),
                                                eta, options_.refine);
    if (plan.empty()) {
      log_info() << "refine: cycle " << cycle
                 << " produced an empty plan, stopping early";
      report.seconds = watch.seconds();
      result.cycles.push_back(report);
      break;
    }
    std::vector<std::ptrdiff_t> old_index;
    pc::PointCloud adapted =
        apply_plan(problem->solver().cloud(), plan, &old_index);
    report.inserted = plan.insertions.size();
    report.removed = plan.removals.size();
    inserted_total += report.inserted;
    removed_total += report.removed;

    // Transfer: rebuild the problem with incremental stencils, then check
    // the carried-over state's tracked cost on the new cloud (diagnostic --
    // the next optimize round re-solves from the transferred control).
    auto next = std::make_shared<rom::LaplaceFdControlProblem>(
        std::move(adapted), *kernel_, options_.stencil,
        &problem->solver().operators(), &old_index);
    UPDEC_REQUIRE(next->control_size() == control.size(),
                  "adaptation must preserve the control layout");
    report.stencil_rows_reused = next->solver().operators().rows_reused();
    report.stencil_rows_recomputed =
        next->solver().operators().rows_recomputed();
    const la::Vector carried =
        transfer_field(problem->solver().cloud(), capture.state(),
                       next->solver().cloud(), *kernel_, options_.stencil);
    report.transferred_cost =
        next->cost_from_flux(next->solver().flux_top(carried));
    report.seconds = watch.seconds();
    result.cycles.push_back(report);
    problem = std::move(next);
  }

  result.problem = std::move(problem);
  result.control = std::move(control);
  result.final_cost = result.cycles.back().cost;
  if (metrics::enabled()) {
    metrics::gauge_set("refine/cycles_run",
                       static_cast<double>(result.cycles.size()));
    metrics::gauge_set("refine/final_nodes",
                       static_cast<double>(
                           result.problem->solver().cloud().size()));
    metrics::gauge_set("refine/inserted_total",
                       static_cast<double>(inserted_total));
    metrics::gauge_set("refine/removed_total",
                       static_cast<double>(removed_total));
    metrics::gauge_set("refine/final_cost", result.final_cost);
  }
  return result;
}

}  // namespace updec::refine
