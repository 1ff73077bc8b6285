#include "pde/channel_flow.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>
#include <utility>

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

template <typename Backend, typename BeforeStep>
FlowState<typename Backend::Vec> ChannelFlowSolver::run(
    const Backend& backend, const typename Backend::Vec& inflow,
    BeforeStep&& before_step) const {
  using Vec = typename Backend::Vec;
  const std::size_t n = cloud_->size();
  const double dt = config_.dt;
  const double adv_dt = config_.advection * dt;
  FlowState<Vec> state = initial_state(backend, inflow);

  for (std::size_t refinement = 0; refinement < config_.refinements;
       ++refinement) {
    // Picard re-linearisation: freeze the advecting velocity for this
    // refinement (values update between refinements; in the DP path the
    // gradient still flows through the frozen field into earlier
    // refinements, i.e. we differentiate the whole k-sweep rollout).
    const Vec u_adv = state.u;
    const Vec v_adv = state.v;

    for (std::size_t step = 0; step < config_.steps_per_refinement; ++step) {
      before_step(refinement, std::as_const(state));
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
      // Largest change this step; a NaN sticks (std::max would drop it).
      double max_delta = 0.0;
      const auto track = [&max_delta](double delta) {
        if (delta > max_delta || std::isnan(delta)) max_delta = delta;
      };
      for (std::size_t i = 0; i < n; ++i) {
        if (is_interior_[i]) {
          unew[i] = ustar[i] - dt * dxp[i];
          vnew[i] = vstar[i] - dt * dyp[i];
        }
        track(std::abs(Backend::value(unew[i]) - Backend::value(state.u[i])));
        track(std::abs(Backend::value(vnew[i]) - Backend::value(state.v[i])));
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
  return state;
}

Flow ChannelFlowSolver::solve(const la::Vector& inflow) const {
  UPDEC_TRACE_SCOPE("pde/channel_solve");
  UPDEC_METRIC_ADD("pde/channel.solves", 1);
  Flow flow = run(DoubleBackend{}, inflow, [](std::size_t, const Flow&) {});
  UPDEC_METRIC_OBSERVE("pde/channel.steps_to_steady",
                       static_cast<double>(flow.steps_taken));
  return flow;
}

FlowAd ChannelFlowSolver::solve(ad::Tape& tape,
                                const ad::VarVec& inflow) const {
  UPDEC_TRACE_SCOPE("pde/channel_solve_ad");
  UPDEC_METRIC_ADD("pde/channel.ad_solves", 1);
  const std::size_t n = cloud_->size();
  RolloutTrace trace;
  trace.steps.assign(config_.refinements, 0);
  const Flow flow = run(DoubleBackend{}, ad::values(inflow),
                        [&trace](std::size_t refinement, const Flow& state) {
                          trace.u.push_back(state.u);
                          trace.v.push_back(state.v);
                          ++trace.steps[refinement];
                        });

  std::vector<double> outputs;
  outputs.reserve(3 * n);
  for (const la::Vector* field : {&flow.u, &flow.v, &flow.p})
    outputs.insert(outputs.end(), field->std().begin(), field->std().end());
  std::vector<std::int64_t> inflow_idx(inflow.size());
  for (std::size_t q = 0; q < inflow.size(); ++q)
    inflow_idx[q] = inflow[q].index();
  const std::size_t kept = 2 * trace.u.size() * n * sizeof(double) +
                           trace.steps.size() * sizeof(std::size_t) +
                           inflow_idx.size() * sizeof(std::int64_t);
  const std::int64_t start = tape.custom_op(
      outputs, kept,
      [this, n, trace = std::move(trace),
       inflow_idx = std::move(inflow_idx)](ad::Tape& t, std::int64_t out) {
        la::Vector ubar(n), vbar(n), pbar(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto at = out + static_cast<std::int64_t>(i);
          ubar[i] = t.adjoint(at);
          vbar[i] = t.adjoint(at + static_cast<std::int64_t>(n));
          pbar[i] = t.adjoint(at + static_cast<std::int64_t>(2 * n));
        }
        const la::Vector cbar =
            rollout_vjp(trace, std::move(ubar), std::move(vbar), pbar);
        for (std::size_t q = 0; q < inflow_idx.size(); ++q)
          t.adjoint_ref(inflow_idx[q]) += cbar[q];
      });

  const auto output_block = [&](std::size_t block) {
    ad::VarVec field(n);
    for (std::size_t i = 0; i < n; ++i)
      field[i] =
          ad::Var(&tape, start + static_cast<std::int64_t>(block * n + i));
    return field;
  };
  FlowAd result;
  result.u = output_block(0);
  result.v = output_block(1);
  result.p = output_block(2);
  result.steps_taken = flow.steps_taken;
  return result;
}

FlowAd ChannelFlowSolver::solve_unrolled_reference(
    ad::Tape& tape, const ad::VarVec& inflow) const {
  return run(TapeBackend{&tape}, inflow,
             [](std::size_t, const FlowAd&) {});
}

la::Vector ChannelFlowSolver::rollout_vjp(const RolloutTrace& trace,
                                          la::Vector ubar, la::Vector vbar,
                                          const la::Vector& pbar) const {
  const std::size_t n = cloud_->size();
  la::Vector cbar(inlet_nodes_.size(), 0.0);
  // The output p is the last step's pressure; no other step's is read.
  const la::Vector* step_pbar = &pbar;
  std::size_t end = trace.u.size();
  for (std::size_t r = trace.steps.size(); r-- > 0;) {
    const std::size_t begin = end - trace.steps[r];
    if (begin == end) continue;
    // The frozen advecting field is a copy of the state entering the
    // refinement's first step; its adjoint joins that state's at the end.
    la::Vector uabar(n, 0.0), vabar(n, 0.0);
    for (std::size_t s = end; s-- > begin;) {
      step_vjp(trace.u[s], trace.v[s], trace.u[begin], trace.v[begin], ubar,
               vbar, step_pbar, uabar, vabar, cbar);
      step_pbar = nullptr;
    }
    la::axpy(1.0, uabar, ubar);
    la::axpy(1.0, vabar, vbar);
    end = begin;
  }
  // The initial state carries the inflow on its inlet nodes.
  velocity_bcs_vjp(ubar, vbar, cbar);
  return cbar;
}

void ChannelFlowSolver::step_vjp(const la::Vector& u, const la::Vector& v,
                                 const la::Vector& ua, const la::Vector& va,
                                 la::Vector& ubar, la::Vector& vbar,
                                 const la::Vector* pbar, la::Vector& uabar,
                                 la::Vector& vabar, la::Vector& cbar) const {
  const std::size_t n = cloud_->size();
  const double dt = config_.dt;
  const double adv_dt = config_.advection * dt;

  // Projection: u_new = u* - dt Dx p on interior rows (u* elsewhere), then
  // the velocity BCs. u*'s adjoint is u_new's; p collects -dt Dx^T ubar.
  velocity_bcs_vjp(ubar, vbar, cbar);
  la::Vector p_total = pbar != nullptr ? *pbar : la::Vector(n, 0.0);
  la::Vector dxp_bar(n, 0.0), dyp_bar(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_interior_[i]) continue;
    dxp_bar[i] = -dt * ubar[i];
    dyp_bar[i] = -dt * vbar[i];
  }
  dx_.spmv_t(1.0, dxp_bar, 1.0, p_total);
  dy_.spmv_t(1.0, dyp_bar, 1.0, p_total);

  // Pressure Poisson: p = P^{-1} (Dx u* + Dy v*) / dt on interior rows.
  const la::Vector prhs_bar = pressure_op_.solve_transpose(p_total);
  la::Vector div_bar(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    if (is_interior_[i]) div_bar[i] = prhs_bar[i] * (1.0 / dt);
  dx_.spmv_t(1.0, div_bar, 1.0, ubar);
  dy_.spmv_t(1.0, div_bar, 1.0, vbar);

  // Predictor: u* = M^{-1} rhs, then the velocity BCs; the outlet rows of
  // rhs are constants.
  velocity_bcs_vjp(ubar, vbar, cbar);
  la::Vector rhs_u_bar = momentum_op_.solve_transpose(ubar);
  la::Vector rhs_v_bar = momentum_op_.solve_transpose(vbar);
  for (const std::size_t i : outlet_nodes_) rhs_u_bar[i] = rhs_v_bar[i] = 0.0;

  // rhs = u - adv_dt (ua Dx u + va Dy u) on interior rows, u elsewhere: the
  // state's adjoint is rhs's plus the transposed advection products, and
  // the frozen field's picks up the state's derivatives.
  const la::Vector dxu = dx_.apply(u), dyu = dy_.apply(u);
  const la::Vector dxv = dx_.apply(v), dyv = dy_.apply(v);
  la::Vector gxu(n, 0.0), gyu(n, 0.0), gxv(n, 0.0), gyv(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_interior_[i]) continue;
    const double au = -adv_dt * rhs_u_bar[i];
    const double av = -adv_dt * rhs_v_bar[i];
    gxu[i] = au * ua[i];
    gyu[i] = au * va[i];
    gxv[i] = av * ua[i];
    gyv[i] = av * va[i];
    uabar[i] += au * dxu[i] + av * dxv[i];
    vabar[i] += au * dyu[i] + av * dyv[i];
  }
  ubar = std::move(rhs_u_bar);
  vbar = std::move(rhs_v_bar);
  dx_.spmv_t(1.0, gxu, 1.0, ubar);
  dy_.spmv_t(1.0, gyu, 1.0, ubar);
  dx_.spmv_t(1.0, gxv, 1.0, vbar);
  dy_.spmv_t(1.0, gyv, 1.0, vbar);
}

void ChannelFlowSolver::velocity_bcs_vjp(la::Vector& ubar, la::Vector& vbar,
                                         la::Vector& cbar) const {
  // In reverse order of apply_velocity_bcs: walls, then inlet.
  for (const std::size_t i : wall_nodes_) ubar[i] = vbar[i] = 0.0;
  for (std::size_t q = 0; q < inlet_nodes_.size(); ++q) {
    const std::size_t i = inlet_nodes_[q];
    cbar[q] += ubar[i];
    ubar[i] = vbar[i] = 0.0;
  }
}

}  // namespace updec::pde
