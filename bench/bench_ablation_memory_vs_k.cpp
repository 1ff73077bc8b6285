// Memory-vs-refinements ablation (section 4): "DP as conceived in this
// study can be memory inefficient due to storage ... the computational
// complexity scales super-linearly with the number of refinement steps k."
// Measure what one DP gradient keeps -- tape nodes, and the tape's bytes,
// which count the rollout's stored step states -- with the process peak RSS
// and the gradient wall-clock, as a function of k.

#include <iostream>

#include "autodiff/ops.hpp"
#include "bench_common.hpp"
#include "control/channel_problem.hpp"
#include "pde/channel_flow.hpp"

int main(int argc, char** argv) {
  using namespace updec;
  const CliArgs args(argc, argv);
  const bench::MetricsSession metrics_session("ablation_memory_vs_k", args);
  const bench::Scale scale = bench::Scale::from_args(args);
  scale.print("Ablation: DP cost vs refinements k (tape memory, time)");
  SeriesWriter writer = bench::make_writer(args);

  const rbf::PolyharmonicSpline kernel(3);
  pc::ChannelSpec spec;
  spec.target_nodes = std::min<std::size_t>(scale.channel_nodes, 350);
  const pc::PointCloud cloud = pc::channel_cloud(spec);

  TextTable table("DP gradient cost per evaluation vs refinements k");
  table.set_header({"k", "pseudo-time steps", "tape nodes",
                    "tape MiB", "peak RSS MiB",
                    "forward+reverse (s)"});
  Series mem_series;
  mem_series.name = "memory_vs_k";
  mem_series.x_label = "k";
  mem_series.y_label = "tape MiB (stored states included)";

  for (const std::size_t k : {1ul, 2ul, 4ul, 8ul}) {
    pde::ChannelFlowConfig config;
    config.reynolds = 50.0;
    config.refinements = k;
    config.steps_per_refinement = 100;
    config.steady_tol = 0.0;  // force the full rollout for fair scaling
    const pde::ChannelFlowSolver solver(cloud, kernel, config, spec);
    const la::Vector inflow = solver.parabolic_inflow();

    ad::Tape tape;
    const Stopwatch watch;
    const ad::VarVec c = ad::make_variables(tape, inflow);
    const pde::FlowAd flow = solver.solve(tape, c);
    ad::Var j = ad::dot(flow.u, flow.u);  // any scalar output
    tape.backward(j);
    const double seconds = watch.seconds();

    table.add_row({std::to_string(k), std::to_string(flow.steps_taken),
                   std::to_string(tape.size()),
                   TextTable::num(to_mib(tape.memory_bytes()), 4),
                   TextTable::num(to_mib(peak_rss_bytes()), 4),
                   TextTable::num(seconds, 3)});
    mem_series.x.push_back(static_cast<double>(k));
    mem_series.y.push_back(to_mib(tape.memory_bytes()));
  }
  table.print(std::cout);
  writer.add(std::move(mem_series));
  std::cout << "expected shape: the tape holds the control, one rollout "
               "operation's u, v, p outputs and the cost, so its node count "
               "does not move with k; its bytes, which count the stored step "
               "states, grow by 16 n per pseudo-time step, linearly in k for "
               "fixed steps per refinement with early exit disabled; time "
               "grows with the step count.\n";
  writer.flush();
  return 0;
}
