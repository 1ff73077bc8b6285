#pragma once
/// \file adaptive_loop.hpp
/// \brief The optimize -> estimate -> adapt -> transfer driver: runs the
///        sparse Laplace DAL control loop, forms adjoint-weighted residual
///        indicators from the pair the strategy already computed, adapts
///        the cloud by fixed-fraction selection, rebuilds stencils
///        incrementally and carries control/state onto the new cloud --
///        for RefineConfig::cycles rounds.
///
/// Because only interior nodes are touched, the control DOF layout (top
/// wall) is invariant across cycles and the optimized control warm-starts
/// every cycle's optimize; the converged state is RBF-transferred to the
/// new cloud as a per-cycle consistency diagnostic on the tracked cost.

#include <memory>
#include <vector>

#include "control/driver.hpp"
#include "refine/indicator.hpp"
#include "refine/refiner.hpp"
#include "rom/laplace_rom.hpp"

namespace updec::refine {

struct AdaptiveOptions {
  RefineConfig refine;              ///< see refine_config_from_env()
  IndicatorConfig indicator;
  control::DriverOptions driver;    ///< per-cycle optimize budget
  rbf::RbffdConfig stencil;
  /// Learning-rate multiplier for warm-started cycles (>= 1): the carried
  /// control is already near the new cloud's optimum, and re-running the
  /// full-rate Adam schedule from a reset moment state was measured to walk
  /// it away before re-converging.
  double warm_lr_decay = 0.3;

  AdaptiveOptions() {
    driver.iterations = 250;
    driver.initial_learning_rate = 1e-2;
  }
};

/// One optimize round on one cloud.
struct CycleReport {
  std::size_t nodes = 0;            ///< cloud size optimized on
  double cost = 0.0;                ///< final tracked cost on that cloud
  double indicator_total = 0.0;     ///< sum of eta (global error estimate)
  std::size_t inserted = 0;         ///< nodes added moving to the NEXT cloud
  std::size_t removed = 0;
  std::size_t stencil_rows_reused = 0;      ///< incremental rebuild savings
  std::size_t stencil_rows_recomputed = 0;
  double transferred_cost = 0.0;    ///< tracked cost of the RBF-transferred
                                    ///< state on the next cloud (diagnostic;
                                    ///< 0 for the last cycle)
  double seconds = 0.0;
};

struct AdaptiveResult {
  std::shared_ptr<rom::LaplaceFdControlProblem> problem;  ///< final cloud
  la::Vector control;               ///< optimized control on the final cloud
  double final_cost = 0.0;          ///< == cycles.back().cost
  std::vector<CycleReport> cycles;  ///< refine.cycles + 1 optimize rounds
};

/// Run the full loop from a uniform grid_n x grid_n cloud. The kernel must
/// outlive the returned problem.
class AdaptiveLoop {
 public:
  AdaptiveLoop(std::size_t grid_n, const rbf::Kernel& kernel,
               AdaptiveOptions options = {});

  [[nodiscard]] AdaptiveResult run() const;

 private:
  std::size_t grid_n_;
  const rbf::Kernel* kernel_;
  AdaptiveOptions options_;
};

}  // namespace updec::refine
