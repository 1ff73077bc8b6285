// Reproduces Table 3 of the paper: time, peak memory, iteration counts and
// final costs for {DAL, PINN, DP} x {Laplace, Navier-Stokes}. Absolute
// numbers depend on scale and hardware (the paper used a 16-core Ryzen and
// an RTX 3090 for hours); the reproduced quantity is the *shape*: relative
// cost ordering per problem and PINN paying in wall-clock. Each method's
// scratch memory -- its tape, counting what each tape operation keeps (the
// PINN network evaluations' activations, the channel rollout's stored step
// states) -- is reported alongside the process peak.

#include <iostream>

#include "bench_common.hpp"
#include "control/channel_problem.hpp"
#include "control/driver.hpp"
#include "control/laplace_problem.hpp"
#include "control/pinn_channel.hpp"
#include "control/pinn_laplace.hpp"
#include "la/blas.hpp"

namespace {

struct Row {
  std::string problem, method;
  double seconds = 0.0;
  double peak_mib = 0.0;    // process VmHWM (monotone across rows)
  double scratch_mib = 0.0; // method scratch (GradientStrategy/PINN
                            // scratch_bytes: tapes, stored step states)
  std::size_t iterations = 0;
  double final_cost = 0.0;
  std::string paper;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace updec;
  const CliArgs args(argc, argv);
  const bench::MetricsSession metrics_session("table3_performance", args);
  const bench::Scale scale = bench::Scale::from_args(args);
  scale.print("Table 3: performance comparison (time / memory / final J)");

  std::vector<Row> rows;
  const rbf::PolyharmonicSpline kernel(3);

  // ---- Laplace ----
  {
    auto problem = std::make_shared<control::LaplaceControlProblem>(
        scale.laplace_grid, kernel);
    control::DriverOptions adam;
    adam.iterations = scale.laplace_iters;
    adam.initial_learning_rate = 1e-2;

    auto dal = control::make_laplace_dal(problem);
    const auto r_dal = control::optimize(*problem, *dal, adam);
    rows.push_back({"Laplace", "DAL", r_dal.seconds,
                    to_mib(r_dal.peak_rss_bytes),
                    to_mib(dal->scratch_bytes()), r_dal.iterations,
                    r_dal.final_cost, "3.3 h / 33.6 GB / 500 it / 4.6e-3"});

    control::PinnConfig pinn_config;
    pinn_config.u_hidden = {30, 30, 30};
    pinn_config.epochs = scale.pinn_epochs;
    pinn_config.learning_rate = 1e-3;
    pinn_config.omega = 0.1;
    pinn_config.seed = 1;
    control::LaplacePinn pinn(pinn_config);
    const Stopwatch watch;
    pinn.train();
    const double seconds = watch.seconds();
    const la::Vector c = pinn.control_at(problem->solver().control_x());
    rows.push_back({"Laplace", "PINN", seconds, to_mib(peak_rss_bytes()),
                    to_mib(pinn.scratch_bytes()), pinn_config.epochs,
                    problem->cost(c), "7.3 h* / 5.0 GB / 20k ep / 1.6e-2"});

    auto dp = control::make_laplace_dp(problem);
    const auto r_dp = control::optimize(*problem, *dp, adam);
    rows.push_back({"Laplace", "DP", r_dp.seconds,
                    to_mib(r_dp.peak_rss_bytes),
                    to_mib(dp->scratch_bytes()), r_dp.iterations,
                    r_dp.final_cost, "1.65 h / 20.2 GB / 500 it / 2.2e-9"});
  }

  // ---- Navier-Stokes ----
  {
    pc::ChannelSpec spec;
    spec.target_nodes = scale.channel_nodes;
    pde::ChannelFlowConfig config;
    config.reynolds = args.get_double("re", 100.0);
    config.steps_per_refinement = 150;
    control::DriverOptions adam;
    adam.iterations = scale.channel_iters;
    adam.initial_learning_rate = 1e-1;

    config.refinements = 3;  // paper: k = 3 for DAL
    auto problem_dal = std::make_shared<control::ChannelFlowControlProblem>(
        spec, kernel, config);
    auto dal = control::make_channel_dal(problem_dal);
    const auto r_dal = control::optimize(*problem_dal, *dal, adam);
    rows.push_back({"Navier-Stokes", "DAL", r_dal.seconds,
                    to_mib(r_dal.peak_rss_bytes),
                    to_mib(dal->scratch_bytes()), r_dal.iterations,
                    r_dal.final_cost,
                    "1.5 h / 8.1 GB / 350 it (k=3) / 8.2e-2"});

    control::PinnConfig pinn_config;
    pinn_config.u_hidden = scale.paper
                               ? std::vector<std::size_t>{50, 50, 50, 50, 50}
                               : std::vector<std::size_t>{30, 30};
    pinn_config.epochs = scale.pinn_epochs;
    pinn_config.batch_interior = 48;
    pinn_config.learning_rate = 1e-3;
    pinn_config.omega = 1.0;
    pinn_config.seed = 2;
    control::ChannelPinn pinn(pinn_config, spec, config.reynolds,
                              config.patch_velocity);
    const Stopwatch watch;
    pinn.train();
    const double seconds = watch.seconds();
    std::vector<double> inlet_y(problem_dal->solver().inlet_y());
    const la::Vector c = pinn.control_at(inlet_y);
    rows.push_back({"Navier-Stokes", "PINN", seconds,
                    to_mib(peak_rss_bytes()), to_mib(pinn.scratch_bytes()),
                    pinn_config.epochs, problem_dal->cost(c),
                    "26.8 h* / 1.3 GB / 100k ep / 1.0e-3"});

    config.refinements = scale.paper ? 10 : 3;  // paper: k = 10 for DP
    auto problem_dp = std::make_shared<control::ChannelFlowControlProblem>(
        spec, kernel, config);
    auto dp = control::make_channel_dp(problem_dp);
    const auto r_dp = control::optimize(*problem_dp, *dp, adam);
    rows.push_back({"Navier-Stokes", "DP", r_dp.seconds,
                    to_mib(r_dp.peak_rss_bytes),
                    to_mib(dp->scratch_bytes()), r_dp.iterations,
                    r_dp.final_cost,
                    "3.8 h / 45.3 GB / 350 it (k=10) / 2.6e-4"});
  }

  TextTable table("Table 3 (measured at this scale vs paper at full scale)");
  table.set_header({"problem", "method", "time (s)", "peak RSS (MiB)",
                    "scratch (MiB)", "iters/epochs", "final J",
                    "paper (full scale)"});
  for (const Row& row : rows)
    table.add_row({row.problem, row.method, TextTable::num(row.seconds, 4),
                   TextTable::num(row.peak_mib, 4),
                   TextTable::num(row.scratch_mib, 4),
                   std::to_string(row.iterations),
                   TextTable::sci(row.final_cost), row.paper});
  table.print(std::cout);
  std::cout
      << "shape checks: (1) DP lowest J on both problems; (2) DAL worst on "
         "Navier-Stokes at Re=100; (3) PINN pays in wall-clock per unit of "
         "J; (4) memory: the paper's DP is the memory-hungry method; here "
         "the channel DP keeps 16 bytes per node and pseudo-time step "
         "(see the scratch column and the memory-vs-k ablation bench).\n";
  return 0;
}
