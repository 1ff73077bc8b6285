#include "control/channel_problem.hpp"

#include <algorithm>
#include <cmath>

#include "autodiff/ops.hpp"
#include "la/blas.hpp"
#include "la/robust_solve.hpp"

namespace updec::control {

namespace tags = pc::tags;
using pde::ChannelFlowSolver;

ChannelFlowControlProblem::ChannelFlowControlProblem(
    const pc::ChannelSpec& spec, const rbf::Kernel& kernel,
    const pde::ChannelFlowConfig& config)
    : cloud_(pc::channel_cloud(spec)), kernel_(&kernel) {
  solver_ = std::make_unique<ChannelFlowSolver>(cloud_, kernel, config, spec);
}

double ChannelFlowControlProblem::cost(const la::Vector& control) const {
  return cost_of_flow(solver_->solve(control));
}

double ChannelFlowControlProblem::cost_of_flow(const pde::Flow& flow) const {
  const auto& outlet = solver_->outlet_nodes();
  const auto& ys = solver_->outlet_y();
  const auto& w = solver_->outlet_quadrature();
  double j = 0.0;
  for (std::size_t q = 0; q < outlet.size(); ++q) {
    const double du = flow.u[outlet[q]] - solver_->target_outflow(ys[q]);
    const double dv = flow.v[outlet[q]];
    j += 0.5 * w[q] * (du * du + dv * dv);
  }
  return j;
}

la::Vector ChannelFlowControlProblem::outflow_profile(
    const la::Vector& control) const {
  const pde::Flow flow = solver_->solve(control);
  const auto& outlet = solver_->outlet_nodes();
  la::Vector profile(outlet.size());
  for (std::size_t q = 0; q < outlet.size(); ++q)
    profile[q] = flow.u[outlet[q]];
  return profile;
}

namespace {

/// DP: the projection rollout and the cost live on one tape.
class ChannelDpStrategy final : public GradientStrategy {
 public:
  ChannelDpStrategy(std::shared_ptr<const ChannelFlowControlProblem> p,
                    double smoothing, bool last_refinement_only = false)
      : problem_(std::move(p)),
        smoothing_(smoothing),
        last_refinement_only_(last_refinement_only) {}

  [[nodiscard]] std::string name() const override {
    if (last_refinement_only_) return "DP(truncated)";
    return smoothing_ > 0.0 ? "DP(smoothed)" : "DP";
  }

  double value_and_gradient(const la::Vector& control,
                            la::Vector& gradient) override {
    const auto& solver = problem_->solver();
    tape_.clear();
    const ad::VarVec c = ad::make_variables(tape_, control);
    const pde::FlowAd flow = last_refinement_only_
                                 ? solver.solve_last_refinement(tape_, c)
                                 : solver.solve(tape_, c);
    const auto& outlet = solver.outlet_nodes();
    const auto& ys = solver.outlet_y();
    const auto& w = solver.outlet_quadrature();
    ad::Var j = tape_.constant(0.0);
    for (std::size_t q = 0; q < outlet.size(); ++q) {
      const ad::Var du =
          flow.u[outlet[q]] - solver.target_outflow(ys[q]);
      const ad::Var dv = flow.v[outlet[q]];
      j = j + 0.5 * w[q] * (du * du + dv * dv);
    }
    const double j_raw = j.value();
    if (smoothing_ > 0.0) {
      // Optional Tikhonov term on the control's variation (section 4).
      const auto& iy = solver.inlet_y();
      for (std::size_t q = 0; q + 1 < c.size(); ++q) {
        const ad::Var d = c[q + 1] - c[q];
        j = j + (smoothing_ / (iy[q + 1] - iy[q])) * (d * d);
      }
    }
    tape_.backward(j);
    gradient = ad::adjoints(c);
    peak_tape_bytes_ = std::max(peak_tape_bytes_, tape_.memory_bytes());
    return j_raw;
  }

  /// Tape footprint of the largest rollout (Table 3 memory narrative).
  [[nodiscard]] std::size_t scratch_bytes() const override {
    return peak_tape_bytes_;
  }

 private:
  std::shared_ptr<const ChannelFlowControlProblem> problem_;
  double smoothing_;
  bool last_refinement_only_;
  ad::Tape tape_;
  std::size_t peak_tape_bytes_ = 0;
};

/// DAL: continuous adjoint Navier-Stokes, marched to steady state with the
/// same semi-implicit projection machinery as the forward problem.
///
/// Adjoint system (see DESIGN.md):
///   (u.grad)lambda - (grad u)^T lambda + (1/Re) Lap lambda + grad sigma = 0
///   div lambda = 0
/// BCs: lambda = 0 at inlet and walls; at the outlet the truncated traction
/// balance lambda = -j_u / (u.n) with j_u = (u - u_target, v).
/// Gradient on the inlet (n = (-1, 0)):
///   dJ/dc(y) = -(1/Re) d(lambda_u)/dx (0, y) - sigma(0, y),
/// weighted by the inlet quadrature to approximate the discrete gradient.
class ChannelDalStrategy final : public GradientStrategy {
 public:
  explicit ChannelDalStrategy(
      std::shared_ptr<const ChannelFlowControlProblem> p)
      : problem_(std::move(p)) {
    const auto& solver = problem_->solver();
    const auto& cloud = solver.cloud();
    const std::size_t n = cloud.size();
    const auto& interior = solver.interior_mask();
    const double nu_dt =
        solver.config().dt / solver.config().reynolds;
    // Adjoint momentum operator: same interior rows as the forward one,
    // identity on every boundary row (the adjoint outlet BC is Dirichlet).
    // Assembled sparse from the shared consistent Laplacian and factored
    // once as a band LU.
    la::SparseBuilder momentum(n, n);
    const la::CsrMatrix& lap = solver.interior_laplacian();
    for (std::size_t i = 0; i < n; ++i) {
      momentum.add(i, i, 1.0);
      if (!interior[i]) continue;
      for (std::size_t k = lap.row_ptr()[i]; k < lap.row_ptr()[i + 1]; ++k)
        momentum.add(i, lap.col_idx()[k], -nu_dt * lap.values()[k]);
    }
    momentum_op_ = la::SparseFirstSolver(la::CsrMatrix(momentum));
    // Inlet quadrature (trapezoid in y).
    const auto& ys = solver.inlet_y();
    inlet_quad_ = la::Vector(ys.size(), 0.0);
    for (std::size_t q = 0; q + 1 < ys.size(); ++q) {
      const double h = ys[q + 1] - ys[q];
      inlet_quad_[q] += 0.5 * h;
      inlet_quad_[q + 1] += 0.5 * h;
    }
  }

  [[nodiscard]] std::string name() const override { return "DAL"; }

  double value_and_gradient(const la::Vector& control,
                            la::Vector& gradient) override {
    const auto& solver = problem_->solver();
    const auto& cloud = solver.cloud();
    const auto& config = solver.config();
    const std::size_t n = cloud.size();
    const auto& interior = solver.interior_mask();
    const auto& dx = solver.dx_matrix();
    const auto& dy = solver.dy_matrix();
    const double dt = config.dt;
    const double inv_re = 1.0 / config.reynolds;

    // Forward solve and its frozen derivative fields.
    const pde::Flow flow = solver.solve(control);
    const double j = problem_->cost_of_flow(flow);
    const la::Vector dxu = dx.apply(flow.u), dyu = dy.apply(flow.u);
    const la::Vector dxv = dx.apply(flow.v), dyv = dy.apply(flow.v);

    // Adjoint outlet Dirichlet data from the truncated traction balance.
    const auto& outlet = solver.outlet_nodes();
    const auto& oys = solver.outlet_y();
    la::Vector lam_u_outlet(outlet.size(), 0.0), lam_v_outlet(outlet.size(), 0.0);
    for (std::size_t q = 0; q < outlet.size(); ++q) {
      const double un = std::max(flow.u[outlet[q]], 0.1);  // avoid reversal
      lam_u_outlet[q] =
          -(flow.u[outlet[q]] - solver.target_outflow(oys[q])) / un;
      lam_v_outlet[q] = -flow.v[outlet[q]] / un;
    }

    la::Vector lu(n, 0.0), lv(n, 0.0), sigma(n, 0.0);
    const auto apply_bcs = [&](la::Vector& au, la::Vector& av) {
      for (const std::size_t i : solver.inlet_nodes()) au[i] = av[i] = 0.0;
      for (const int tag : {tags::kWall, tags::kBlowing, tags::kSuction})
        for (const std::size_t i : cloud.indices_with_tag(tag))
          au[i] = av[i] = 0.0;
      for (std::size_t q = 0; q < outlet.size(); ++q) {
        au[outlet[q]] = lam_u_outlet[q];
        av[outlet[q]] = lam_v_outlet[q];
      }
    };
    apply_bcs(lu, lv);

    const std::size_t steps = config.refinements * config.steps_per_refinement;
    la::Vector rhs_u(n), rhs_v(n), prhs(n), q_p(n);
    for (std::size_t step = 0; step < steps; ++step) {
      const la::Vector dxlu = dx.apply(lu), dylu = dy.apply(lu);
      const la::Vector dxlv = dx.apply(lv), dylv = dy.apply(lv);
      rhs_u = lu;
      rhs_v = lv;
      double max_delta = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!interior[i]) continue;
        // lambda_tau = (u.grad)lambda - (grad u)^T lambda (+ implicit diff).
        rhs_u[i] = lu[i] + dt * (flow.u[i] * dxlu[i] + flow.v[i] * dylu[i] -
                                 (dxu[i] * lu[i] + dxv[i] * lv[i]));
        rhs_v[i] = lv[i] + dt * (flow.u[i] * dxlv[i] + flow.v[i] * dylv[i] -
                                 (dyu[i] * lu[i] + dyv[i] * lv[i]));
      }
      la::Vector lu_star =
          la::checked_solve(momentum_op_, rhs_u, "DAL adjoint momentum (u)");
      la::Vector lv_star =
          la::checked_solve(momentum_op_, rhs_v, "DAL adjoint momentum (v)");
      apply_bcs(lu_star, lv_star);
      // Projection onto divergence-free adjoint fields: Lap q = div/dt,
      // lambda -= dt grad q, sigma = -q.
      prhs.fill(0.0);
      const la::Vector div_x = dx.apply(lu_star);
      const la::Vector div_y = dy.apply(lv_star);
      for (std::size_t i = 0; i < n; ++i)
        if (interior[i]) prhs[i] = (div_x[i] + div_y[i]) / dt;
      q_p = la::checked_solve(solver.pressure_op(), prhs,
                              "DAL adjoint pressure projection");
      const la::Vector dxq = dx.apply(q_p);
      const la::Vector dyq = dy.apply(q_p);
      for (std::size_t i = 0; i < n; ++i) {
        if (interior[i]) {
          lu_star[i] -= dt * dxq[i];
          lv_star[i] -= dt * dyq[i];
        }
        max_delta = std::max(max_delta, std::abs(lu_star[i] - lu[i]));
        max_delta = std::max(max_delta, std::abs(lv_star[i] - lv[i]));
      }
      apply_bcs(lu_star, lv_star);
      lu = std::move(lu_star);
      lv = std::move(lv_star);
      for (std::size_t i = 0; i < n; ++i) sigma[i] = -q_p[i];
      if (max_delta / dt < config.steady_tol) break;
    }

    // Gradient extraction on the inlet.
    const la::Vector dxlu_final = dx.apply(lu);
    const auto& inlet = solver.inlet_nodes();
    gradient.resize(inlet.size());
    for (std::size_t q = 0; q < inlet.size(); ++q) {
      const std::size_t i = inlet[q];
      gradient[q] =
          inlet_quad_[q] * (-inv_re * dxlu_final[i] - sigma[i]);
    }
    return j;
  }

 private:
  std::shared_ptr<const ChannelFlowControlProblem> problem_;
  la::SparseFirstSolver momentum_op_;
  la::Vector inlet_quad_;
};

/// FD: central differences over full nonlinear solves (expensive; used for
/// gradient-accuracy ablations, as the paper's footnote 11 does).
class ChannelFdStrategy final : public GradientStrategy {
 public:
  ChannelFdStrategy(std::shared_ptr<const ChannelFlowControlProblem> p,
                    double step)
      : problem_(std::move(p)), step_(step) {}

  [[nodiscard]] std::string name() const override { return "FD"; }

  double value_and_gradient(const la::Vector& control,
                            la::Vector& gradient) override {
    const double j = problem_->cost(control);
    gradient.resize(control.size());
    la::Vector probe = control;
    for (std::size_t i = 0; i < control.size(); ++i) {
      probe[i] = control[i] + step_;
      const double jp = problem_->cost(probe);
      probe[i] = control[i] - step_;
      const double jm = problem_->cost(probe);
      probe[i] = control[i];
      gradient[i] = (jp - jm) / (2.0 * step_);
    }
    return j;
  }

 private:
  std::shared_ptr<const ChannelFlowControlProblem> problem_;
  double step_;
};

}  // namespace

std::unique_ptr<GradientStrategy> make_channel_dp(
    std::shared_ptr<const ChannelFlowControlProblem> problem,
    double smoothing) {
  return std::make_unique<ChannelDpStrategy>(std::move(problem), smoothing);
}

std::unique_ptr<GradientStrategy> make_channel_dp_truncated(
    std::shared_ptr<const ChannelFlowControlProblem> problem) {
  return std::make_unique<ChannelDpStrategy>(std::move(problem), 0.0, true);
}

std::unique_ptr<GradientStrategy> make_channel_dal(
    std::shared_ptr<const ChannelFlowControlProblem> problem) {
  return std::make_unique<ChannelDalStrategy>(std::move(problem));
}

std::unique_ptr<GradientStrategy> make_channel_fd(
    std::shared_ptr<const ChannelFlowControlProblem> problem, double step) {
  return std::make_unique<ChannelFdStrategy>(std::move(problem), step);
}

}  // namespace updec::control
