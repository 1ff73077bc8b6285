#include "pde/channel_flow.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "la/blas.hpp"
#include "la/robust_solve.hpp"

namespace updec::pde {

namespace tags = pc::tags;

ChannelFlowSolver::ChannelFlowSolver(const pc::PointCloud& cloud,
                                     const rbf::Kernel& kernel,
                                     const ChannelFlowConfig& config,
                                     const pc::ChannelSpec& spec)
    : cloud_(&cloud),
      config_(config),
      spec_(spec),
      operators_(cloud, kernel, config.rbffd),
      dx_(operators_.weights_for(rbf::LinearOp::d_dx())),
      dy_(operators_.weights_for(rbf::LinearOp::d_dy())),
      lap_(operators_.weights_for(rbf::LinearOp::laplacian())) {
  const std::size_t n = cloud.size();

  // Sorted inlet / outlet index sets.
  inlet_nodes_ = cloud.indices_with_tag(tags::kInlet);
  outlet_nodes_ = cloud.indices_with_tag(tags::kOutlet);
  UPDEC_REQUIRE(!inlet_nodes_.empty() && !outlet_nodes_.empty(),
                "cloud has no inlet/outlet (not a channel cloud?)");
  const auto by_y = [&](std::size_t a, std::size_t b) {
    return cloud.node(a).pos.y < cloud.node(b).pos.y;
  };
  std::sort(inlet_nodes_.begin(), inlet_nodes_.end(), by_y);
  std::sort(outlet_nodes_.begin(), outlet_nodes_.end(), by_y);
  for (const std::size_t i : inlet_nodes_) inlet_y_.push_back(cloud.node(i).pos.y);
  for (const std::size_t i : outlet_nodes_)
    outlet_y_.push_back(cloud.node(i).pos.y);

  for (const int tag : {tags::kWall, tags::kBlowing, tags::kSuction})
    for (const std::size_t i : cloud.indices_with_tag(tag))
      wall_nodes_.push_back(i);


  // Trapezoid weights along the outlet, extended to the walls (y=0, y=Ly)
  // where the velocity is pinned to zero anyway.
  outlet_quad_ = la::Vector(outlet_nodes_.size(), 0.0);
  for (std::size_t i = 0; i + 1 < outlet_nodes_.size(); ++i) {
    const double h = outlet_y_[i + 1] - outlet_y_[i];
    outlet_quad_[i] += 0.5 * h;
    outlet_quad_[i + 1] += 0.5 * h;
  }

  // Pressure-Poisson system with the *consistent* discrete Laplacian
  // Dx.Dx + Dy.Dy on interior rows: the projection then removes exactly the
  // divergence it is driven by (using the RBF-FD Laplacian here instead
  // leaves an O(1) commutator residual that self-amplifies across steps).
  // Boundary rows: dp/dn = 0 on inlet and walls, p = 0 at the outlet.
  // Both operators assemble sparse straight from the stencil-weight CSRs
  // and are factored once as band LUs.
  is_interior_.assign(n, 0);
  for (std::size_t i = 0; i < cloud.num_internal(); ++i) is_interior_[i] = 1;
  lap_consistent_ = rbf::consistent_laplacian(dx_, dy_, is_interior_);
  const auto scatter_row = [](const la::CsrMatrix& m, std::size_t row,
                              double scale, la::SparseBuilder& into) {
    for (std::size_t k = m.row_ptr()[row]; k < m.row_ptr()[row + 1]; ++k)
      into.add(row, m.col_idx()[k], scale * m.values()[k]);
  };
  la::SparseBuilder pressure(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const pc::Node& node = cloud.node(i);
    if (is_interior_[i]) {
      scatter_row(config_.consistent_pressure ? lap_consistent_ : lap_, i,
                  1.0, pressure);
    } else if (node.tag == tags::kOutlet) {
      pressure.add(i, i, 1.0);
    } else {
      scatter_row(dx_, i, node.normal.x, pressure);
      scatter_row(dy_, i, node.normal.y, pressure);
    }
  }
  pressure_op_ = la::SparseFirstSolver(la::CsrMatrix(pressure));

  // Semi-implicit momentum operator: (I - dt/Re Lap) on interior rows,
  // identity on Dirichlet velocity rows, and the outflow condition
  // du/dn = 0 as an implicit RBF-FD d/dx row at the outlet (explicit
  // donor-copy variants destabilise wall-graded clouds).
  const double nu_dt = config_.dt / config_.reynolds;
  const double hv_dt = config_.hyperviscosity * config_.dt;
  // Biharmonic rows: (Lap^2)_i over interior rows of the product Laplacian
  // (sparse-sparse product; boundary rows of lap_consistent_ are empty so
  // the mask only skips forming interior->boundary fill that gets dropped).
  la::CsrMatrix lap2;
  if (hv_dt > 0.0)
    lap2 = la::multiply(lap_consistent_, lap_consistent_, &is_interior_);
  la::SparseBuilder momentum(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (is_interior_[i]) {
      momentum.add(i, i, 1.0);
      scatter_row(lap_consistent_, i, -nu_dt, momentum);
      if (hv_dt > 0.0) scatter_row(lap2, i, hv_dt, momentum);
    } else if (cloud.node(i).tag == tags::kOutlet) {
      scatter_row(dx_, i, 1.0, momentum);
    } else {
      momentum.add(i, i, 1.0);
    }
  }
  momentum_op_ = la::SparseFirstSolver(la::CsrMatrix(momentum));
}

double ChannelFlowSolver::target_outflow(double y) const {
  const double ly = spec_.ly;
  return 4.0 * y * (ly - y) / (ly * ly);
}

la::Vector ChannelFlowSolver::parabolic_inflow() const {
  la::Vector c(inlet_nodes_.size());
  for (std::size_t q = 0; q < inlet_nodes_.size(); ++q)
    c[q] = target_outflow(inlet_y_[q]);
  return c;
}

double ChannelFlowSolver::patch_velocity_at(std::size_t node) const {
  const pc::Node& n = cloud_->node(node);
  const auto bump = [&](double start, double end) {
    const double t = (n.pos.x - start) / (end - start);
    if (t <= 0.0 || t >= 1.0) return 0.0;
    const double s = std::sin(std::numbers::pi * t);
    return config_.patch_velocity * s * s;
  };
  // Both patches push flow in +y: blowing injects at the bottom wall,
  // suction extracts through the top wall (the fig. 1 cross-flow).
  if (n.tag == tags::kBlowing) return bump(spec_.blow_start, spec_.blow_end);
  if (n.tag == tags::kSuction)
    return bump(spec_.suction_start, spec_.suction_end);
  return 0.0;
}

la::Vector ChannelFlowSolver::divergence(const la::Vector& u,
                                         const la::Vector& v) const {
  la::Vector div = dx_.apply(u);
  const la::Vector dyv = dy_.apply(v);
  for (std::size_t i = 0; i < div.size(); ++i) div[i] += dyv[i];
  return div;
}

template <typename Backend>
void ChannelFlowSolver::apply_velocity_bcs(
    const Backend& backend, typename Backend::Vec& u, typename Backend::Vec& v,
    const typename Backend::Vec& inflow) const {
  // Inlet: u = control, v = 0.
  for (std::size_t q = 0; q < inlet_nodes_.size(); ++q) {
    u[inlet_nodes_[q]] = inflow[q];
    v[inlet_nodes_[q]] = backend.scalar(0.0);
  }
  // Walls and patches: no-slip u, prescribed wall-normal v.
  for (const std::size_t i : wall_nodes_) {
    u[i] = backend.scalar(0.0);
    v[i] = backend.scalar(patch_velocity_at(i));
  }
  // Outlet: du/dn = 0 is enforced implicitly by the momentum matrix's d/dx
  // rows; nothing to overwrite here.
}

template <typename Backend>
FlowState<typename Backend::Vec> ChannelFlowSolver::initial_state(
    const Backend& backend, const typename Backend::Vec& inflow) const {
  using Vec = typename Backend::Vec;
  const std::size_t n = cloud_->size();
  UPDEC_REQUIRE(inflow.size() == inlet_nodes_.size(),
                "one inflow value per inlet node required");
  FlowState<Vec> state;
  // Initial condition: uniform streamwise flow matching the inflow shape,
  // zero v and p.
  la::Vector u0(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    u0[i] = target_outflow(cloud_->node(i).pos.y);
  state.u = backend.constants(u0);
  state.v = backend.zeros(n);
  state.p = backend.zeros(n);
  apply_velocity_bcs(backend, state.u, state.v, inflow);
  return state;
}

template <typename Backend>
void ChannelFlowSolver::run_refinements(
    const Backend& backend, FlowState<typename Backend::Vec>& state,
    const typename Backend::Vec& inflow, std::size_t count) const {
  using Vec = typename Backend::Vec;
  const std::size_t n = cloud_->size();
  const double dt = config_.dt;
  const double adv_dt = config_.advection * dt;

  for (std::size_t refinement = 0; refinement < count; ++refinement) {
    // Picard re-linearisation: freeze the advecting velocity for this
    // refinement (values update between refinements; in the DP path the
    // gradient still flows through the frozen field into earlier
    // refinements, i.e. we differentiate the whole k-sweep rollout).
    const Vec u_adv = state.u;
    const Vec v_adv = state.v;

    for (std::size_t step = 0; step < config_.steps_per_refinement; ++step) {
      // Semi-implicit predictor: explicit (Picard-frozen) advection,
      // implicit diffusion through the constant momentum factorisation.
      //   (I - dt/Re Lap) u* = u - dt (u_adv . grad) u   (interior rows)
      //   u* = prescribed boundary value                  (boundary rows)
      const Vec dxu = backend.spmv(dx_, state.u);
      const Vec dyu = backend.spmv(dy_, state.u);
      const Vec dxv = backend.spmv(dx_, state.v);
      const Vec dyv = backend.spmv(dy_, state.v);

      Vec rhs_u = state.u;
      Vec rhs_v = state.v;
      for (std::size_t i = 0; i < n; ++i) {
        if (is_interior_[i]) {
          rhs_u[i] = state.u[i] -
                     adv_dt * (u_adv[i] * dxu[i] + v_adv[i] * dyu[i]);
          rhs_v[i] = state.v[i] -
                     adv_dt * (u_adv[i] * dxv[i] + v_adv[i] * dyv[i]);
        }
        // Dirichlet rows keep the current (BC-satisfying) values; the
        // identity rows of the momentum matrix reproduce them.
      }
      // Outlet d/dx rows demand zero streamwise gradient.
      for (const std::size_t i : outlet_nodes_) {
        rhs_u[i] = backend.scalar(0.0);
        rhs_v[i] = backend.scalar(0.0);
      }
      Vec ustar = backend.solve(momentum_op_, rhs_u);
      Vec vstar = backend.solve(momentum_op_, rhs_v);
      apply_velocity_bcs(backend, ustar, vstar, inflow);

      // Pressure Poisson: Lap p = div(u*) / dt inside, dp/dn = 0 / p = 0 on
      // the boundary rows baked into pressure_lu_.
      const Vec div_x = backend.spmv(dx_, ustar);
      const Vec div_y = backend.spmv(dy_, vstar);
      Vec prhs = backend.zeros(n);
      for (std::size_t i = 0; i < n; ++i)
        if (is_interior_[i]) prhs[i] = (div_x[i] + div_y[i]) * (1.0 / dt);
      const Vec p = backend.solve(pressure_op_, prhs);

      // Projection: correct interior velocities, refresh boundary values.
      const Vec dxp = backend.spmv(dx_, p);
      const Vec dyp = backend.spmv(dy_, p);
      Vec unew = ustar;
      Vec vnew = vstar;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (is_interior_[i]) {
          unew[i] = ustar[i] - dt * dxp[i];
          vnew[i] = vstar[i] - dt * dyp[i];
        }
        max_delta = std::max(
            max_delta, std::abs(Backend::value(unew[i]) -
                                Backend::value(state.u[i])));
        max_delta = std::max(
            max_delta, std::abs(Backend::value(vnew[i]) -
                                Backend::value(state.v[i])));
      }
      apply_velocity_bcs(backend, unew, vnew, inflow);
      state.u = std::move(unew);
      state.v = std::move(vnew);
      state.p = p;
      ++state.steps_taken;
      // Divergence guard: a non-finite velocity would otherwise defeat the
      // steady-state test (NaN comparisons are false) and silently burn the
      // whole step budget before corrupting the cost downstream.
      UPDEC_REQUIRE(std::isfinite(max_delta),
                    "channel flow diverged (non-finite velocity) at "
                    "projection step " +
                        std::to_string(state.steps_taken));
      if (max_delta / dt < config_.steady_tol) break;
    }
  }
}

template <typename Backend>
FlowState<typename Backend::Vec> ChannelFlowSolver::run(
    const Backend& backend, const typename Backend::Vec& inflow) const {
  auto state = initial_state(backend, inflow);
  run_refinements(backend, state, inflow, config_.refinements);
  return state;
}

Flow ChannelFlowSolver::solve(const la::Vector& inflow) const {
  UPDEC_TRACE_SCOPE("pde/channel_solve");
  UPDEC_METRIC_ADD("pde/channel.solves", 1);
  const DoubleBackend backend;
  Flow flow = run(backend, inflow);
  UPDEC_METRIC_OBSERVE("pde/channel.steps_to_steady",
                       static_cast<double>(flow.steps_taken));
  return flow;
}

FlowAd ChannelFlowSolver::solve(ad::Tape& tape,
                                const ad::VarVec& inflow) const {
  UPDEC_TRACE_SCOPE("pde/channel_solve_ad");
  UPDEC_METRIC_ADD("pde/channel.ad_solves", 1);
  const TapeBackend backend{&tape};
  return run(backend, inflow);
}

FlowAd ChannelFlowSolver::solve_last_refinement(
    ad::Tape& tape, const ad::VarVec& inflow) const {
  UPDEC_TRACE_SCOPE("pde/channel_solve_ad");
  UPDEC_METRIC_ADD("pde/channel.ad_solves", 1);
  const TapeBackend taped{&tape};
  if (config_.refinements <= 1) {
    auto state = initial_state(taped, inflow);
    run_refinements(taped, state, inflow, 1);
    return state;
  }
  // Detached warm-up: first k-1 refinements in plain arithmetic.
  const DoubleBackend plain;
  const la::Vector inflow_values = ad::values(inflow);
  auto warm = initial_state(plain, inflow_values);
  run_refinements(plain, warm, inflow_values, config_.refinements - 1);
  // Final refinement on the tape, from the detached state; the inflow
  // variables re-enter through the boundary conditions.
  FlowAd state;
  state.u = ad::make_constants(tape, warm.u);
  state.v = ad::make_constants(tape, warm.v);
  state.p = ad::make_constants(tape, warm.p);
  state.steps_taken = warm.steps_taken;
  apply_velocity_bcs(taped, state.u, state.v, inflow);
  run_refinements(taped, state, inflow, 1);
  return state;
}

}  // namespace updec::pde
