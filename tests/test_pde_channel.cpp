// Tests for the Navier-Stokes channel solver: Poiseuille recovery, mass
// conservation, patch boundary conditions, and agreement between the plain
// and differentiable paths including gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "pde/channel_flow.hpp"

namespace {

using updec::ad::Tape;
using updec::ad::Var;
using updec::ad::VarVec;
using updec::la::Vector;
using updec::pc::ChannelSpec;
using updec::pc::PointCloud;
using updec::pde::ChannelFlowConfig;
using updec::pde::ChannelFlowSolver;
using updec::pde::Flow;
namespace tags = updec::pc::tags;

/// Shared small test fixture: one cloud + kernel reused across tests.
class ChannelTest : public ::testing::Test {
 protected:
  static ChannelSpec small_spec() {
    ChannelSpec spec;
    spec.target_nodes = 320;
    spec.grading = 0.3;
    return spec;
  }
  ChannelTest()
      : spec_(small_spec()),
        cloud_(updec::pc::channel_cloud(spec_)),
        kernel_(3) {}

  ChannelFlowConfig quick_config(double re = 20.0) const {
    ChannelFlowConfig config;
    config.reynolds = re;
    config.dt = 0.004;
    config.refinements = 2;
    config.steps_per_refinement = 250;
    config.rbffd.stencil_size = 13;
    return config;
  }

  ChannelSpec spec_;
  PointCloud cloud_;
  updec::rbf::PolyharmonicSpline kernel_;
};

TEST_F(ChannelTest, PoiseuilleFlowIsRecoveredWithoutPatches) {
  ChannelFlowConfig config = quick_config();
  config.patch_velocity = 0.0;  // plain channel
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());

  // Outflow should be close to the inflow parabola (fully developed flow).
  const auto& outlet = solver.outlet_nodes();
  double max_err = 0.0;
  for (std::size_t q = 0; q < outlet.size(); ++q) {
    const double target = solver.target_outflow(solver.outlet_y()[q]);
    max_err = std::max(max_err, std::abs(flow.u[outlet[q]] - target));
  }
  EXPECT_LT(max_err, 0.08);
  // Cross-flow velocity stays small everywhere.
  EXPECT_LT(updec::la::nrm_inf(flow.v), 0.05);
}

TEST_F(ChannelTest, DivergenceIsSmallAfterProjection) {
  ChannelFlowConfig config = quick_config();
  config.patch_velocity = 0.0;
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());
  const Vector div = solver.divergence(flow.u, flow.v);
  // Interior divergence (boundary rows include one-sided noise).
  double max_div = 0.0;
  for (std::size_t i = 0; i < cloud_.num_internal(); ++i)
    max_div = std::max(max_div, std::abs(div[i]));
  EXPECT_LT(max_div, 0.7);  // projection keeps it bounded; exact 0 needs
                            // implicit coupling
}

TEST_F(ChannelTest, PatchBoundaryValuesAreImposed) {
  const ChannelFlowConfig config = quick_config();
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());
  bool saw_positive_blow = false;
  for (const std::size_t i : cloud_.indices_with_tag(tags::kBlowing)) {
    EXPECT_DOUBLE_EQ(flow.u[i], 0.0);
    EXPECT_NEAR(flow.v[i], solver.patch_velocity_at(i), 1e-12);
    if (flow.v[i] > 0.01) saw_positive_blow = true;
  }
  EXPECT_TRUE(saw_positive_blow);
  for (const std::size_t i : cloud_.indices_with_tag(tags::kWall))
    EXPECT_DOUBLE_EQ(flow.v[i], 0.0);
}

TEST_F(ChannelTest, CrossFlowDeflectsTheJet) {
  // With blowing/suction on, the vertical velocity above the blowing patch
  // should be positive (flow pushed upward, as in fig. 1).
  const ChannelFlowSolver solver(cloud_, kernel_, quick_config(), spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());
  const double xc = 0.5 * (spec_.blow_start + spec_.blow_end);
  double v_probe = 0.0;
  double best = 1e9;
  for (std::size_t i = 0; i < cloud_.num_internal(); ++i) {
    const auto p = cloud_.node(i).pos;
    const double d = std::abs(p.x - xc) + std::abs(p.y - 0.3);
    if (d < best) {
      best = d;
      v_probe = flow.v[i];
    }
  }
  EXPECT_GT(v_probe, 0.005);
}

TEST_F(ChannelTest, MassIsApproximatelyConserved) {
  ChannelFlowConfig config = quick_config();
  config.patch_velocity = 0.0;
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());
  // Flux in == flux out (trapezoid in y).
  const auto flux = [&](const std::vector<std::size_t>& nodes,
                        const std::vector<double>& ys) {
    double f = 0.0;
    for (std::size_t q = 0; q + 1 < nodes.size(); ++q) {
      const double h = ys[q + 1] - ys[q];
      f += 0.5 * h * (flow.u[nodes[q]] + flow.u[nodes[q + 1]]);
    }
    return f;
  };
  const double in = flux(solver.inlet_nodes(), solver.inlet_y());
  const double out = flux(solver.outlet_nodes(), solver.outlet_y());
  EXPECT_NEAR(out, in, 0.08 * std::abs(in));
}

TEST_F(ChannelTest, OutflowIsPhysicallySane) {
  // The implicit outlet rows keep the outflow bounded and channel-like:
  // positive streamwise flow in the core, no runaway values, and a profile
  // that vanishes towards the walls.
  ChannelFlowConfig config = quick_config();
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Flow flow = solver.solve(solver.parabolic_inflow());
  const auto& outlet = solver.outlet_nodes();
  const auto& ys = solver.outlet_y();
  double u_core = 0.0;
  for (std::size_t q = 0; q < outlet.size(); ++q) {
    EXPECT_LT(std::abs(flow.u[outlet[q]]), 3.0);
    EXPECT_LT(std::abs(flow.v[outlet[q]]), 1.0);
    if (std::abs(ys[q] - 0.5) < 0.2) u_core = std::max(u_core, flow.u[outlet[q]]);
  }
  EXPECT_GT(u_core, 0.4);
  // Near-wall outflow smaller than core outflow.
  EXPECT_LT(flow.u[outlet.front()], u_core);
  EXPECT_LT(flow.u[outlet.back()], u_core);
}

TEST_F(ChannelTest, TapeSolveMatchesPlainSolve) {
  ChannelFlowConfig config = quick_config();
  config.steps_per_refinement = 30;  // short rollout is enough for identity
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Vector inflow = solver.parabolic_inflow();
  const Flow plain = solver.solve(inflow);

  Tape tape;
  const VarVec c = updec::ad::make_variables(tape, inflow);
  const updec::pde::FlowAd traced = solver.solve(tape, c);
  EXPECT_EQ(plain.steps_taken, traced.steps_taken);
  for (std::size_t i = 0; i < cloud_.size(); i += 11) {
    EXPECT_NEAR(traced.u[i].value(), plain.u[i], 1e-12);
    EXPECT_NEAR(traced.v[i].value(), plain.v[i], 1e-12);
  }
}

TEST_F(ChannelTest, TapeGradientMatchesFiniteDifferences) {
  // Short rollout so the FD reference is cheap; J = outlet-mismatch cost.
  ChannelFlowConfig config = quick_config();
  config.refinements = 1;
  config.steps_per_refinement = 25;
  const ChannelFlowSolver solver(cloud_, kernel_, config, spec_);
  const Vector inflow0 = solver.parabolic_inflow();

  const auto cost_of = [&](const Vector& inflow) {
    const Flow flow = solver.solve(inflow);
    double j = 0.0;
    const auto& outlet = solver.outlet_nodes();
    for (std::size_t q = 0; q < outlet.size(); ++q) {
      const double du =
          flow.u[outlet[q]] - solver.target_outflow(solver.outlet_y()[q]);
      const double dv = flow.v[outlet[q]];
      j += 0.5 * solver.outlet_quadrature()[q] * (du * du + dv * dv);
    }
    return j;
  };

  Tape tape;
  const VarVec c = updec::ad::make_variables(tape, inflow0);
  const updec::pde::FlowAd flow = solver.solve(tape, c);
  Var j = tape.constant(0.0);
  const auto& outlet = solver.outlet_nodes();
  for (std::size_t q = 0; q < outlet.size(); ++q) {
    const Var du =
        flow.u[outlet[q]] - solver.target_outflow(solver.outlet_y()[q]);
    const Var dv = flow.v[outlet[q]];
    j = j + 0.5 * solver.outlet_quadrature()[q] * (du * du + dv * dv);
  }
  tape.backward(j);
  EXPECT_NEAR(j.value(), cost_of(inflow0), 1e-11);

  const double h = 1e-6;
  const std::size_t mid = inflow0.size() / 2;
  for (const std::size_t i : {std::size_t{1}, mid, inflow0.size() - 2}) {
    Vector cp = inflow0, cm = inflow0;
    cp[i] += h;
    cm[i] -= h;
    const double g_fd = (cost_of(cp) - cost_of(cm)) / (2 * h);
    EXPECT_NEAR(c[i].adjoint(), g_fd, 2e-5 * (1.0 + std::abs(g_fd)))
        << "component " << i;
  }
}

TEST_F(ChannelTest, RejectsWrongInflowSize) {
  const ChannelFlowSolver solver(cloud_, kernel_, quick_config(), spec_);
  EXPECT_THROW(solver.solve(Vector(2, 0.0)), updec::Error);
}

TEST_F(ChannelTest, NanVelocityIsReportedAsDivergence) {
  // A NaN in the state must trip the divergence guard. A guard built on
  // std::max drops NaN deltas, so the rollout read a zero change, took the
  // NaN state for steady and returned it as the solution.
  const ChannelFlowSolver solver(cloud_, kernel_, quick_config(), spec_);
  Vector inflow = solver.parabolic_inflow();
  inflow[inflow.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.solve(inflow), updec::Error);
}

// Regression: on the paper's 1385-node cloud every momentum and pressure
// solve once failed through GMRES and then BiCGSTAB before a dense fallback
// answered (three attempts and about 0.66 s per solve). The band LU must
// answer every direction on its first factorisation.
TEST(ChannelOperators, FineCloudSolvesDirectlyInOneAttempt) {
  ChannelSpec spec;
  spec.target_nodes = 1385;
  const PointCloud cloud = updec::pc::channel_cloud(spec);
  const updec::rbf::PolyharmonicSpline kernel(3);
  const ChannelFlowSolver solver(cloud, kernel, ChannelFlowConfig{}, spec);
  // Manufactured right-hand sides from a smooth field, the shape of the
  // solver's own (an iid-normal b makes the pressure operator's residual,
  // ~1e-12 of ||b||, a measure of its conditioning, not of the solve).
  Vector smooth(cloud.size());
  for (std::size_t i = 0; i < cloud.size(); ++i) {
    const auto p = cloud.node(i).pos;
    smooth[i] = 0.5 + std::sin(3.0 * p.x) * std::cos(2.0 * p.y);
  }

  for (const updec::la::SparseFirstSolver* op :
       {&solver.momentum_op(), &solver.pressure_op()}) {
    for (const bool transpose : {false, true}) {
      SCOPED_TRACE(op == &solver.momentum_op() ? "momentum" : "pressure");
      SCOPED_TRACE(transpose ? "transpose" : "forward");
      const Vector b = transpose ? op->matrix().apply_transpose(smooth)
                                 : op->matrix().apply(smooth);
      const double b_norm = updec::la::nrm2(b);
      updec::la::SolveReport report;
      const Vector x = transpose ? op->solve_transpose(b, &report)
                                 : op->solve(b, &report);
      EXPECT_TRUE(report.converged);
      EXPECT_EQ(report.attempts, 1u);
      Vector r = b;
      if (transpose)
        op->matrix().spmv_t(-1.0, x, 1.0, r);
      else
        op->matrix().spmv(-1.0, x, 1.0, r);
      EXPECT_LE(updec::la::nrm2(r) / b_norm, 1e-12);
      EXPECT_LE(report.residual_norm / b_norm, 1e-12);
    }
  }
}

}  // namespace
