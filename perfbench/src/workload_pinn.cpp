/// The `pinn` workload: the Table 3 PINN rows for a fixed epoch budget,
/// each learnt control scored by the RBF solver.
///
/// Untraced, every pass trains a fresh Laplace PINN (Table 1: u 3x30 tanh,
/// c 1x20, omega = 0.1) and a fresh reduced channel PINN (2x30, omega = 1,
/// Re = 100) from a per-pass seed and times train(); pass_s is the sum of
/// the two rows' medians over the passes. Traced, the same
/// training is composed epoch by epoch from public calls -- the pinn_detail
/// evaluators (nn), Tape::backward (autodiff) and Adam::step (optim) -- and
/// must reproduce PinnHistory bitwise, so the trace measures the same work.

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <string>

#include "control/channel_problem.hpp"
#include "control/laplace_problem.hpp"
#include "control/pinn_channel.hpp"
#include "control/pinn_laplace.hpp"
#include "cpu_clock.hpp"
#include "pde/laplace.hpp"
#include "record.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace updec;
namespace pd = control::pinn_detail;
using ad::Var;

constexpr std::size_t kLaplaceEpochs = 32;
constexpr std::size_t kChannelEpochs = 32;
constexpr double kReynolds = 100.0;
constexpr double kPatchVelocity = 1.0;
/// One pass (both rows, their scoring and checks), nominal.
constexpr double kPassSeconds = 6.0;
/// Set-up (the two scoring problems) takes a few tenths of a second; with
/// three repeats its median spread by 0.21 (IQR over median) across five
/// seeds on the 4-vCPU Xeon virtual machine of README.md's "Noise" table,
/// so it is repeated more often than `solver`'s.
constexpr int kScorerSetupRepeats = 7;

/// J of the first pass under kDefaultSeed, recorded on the commit that
/// introduced the benchmark; a later commit must reproduce it within
/// kReferenceTolerance (relative).
constexpr double kLaplaceReferenceJ = 8.0878811432141546;
constexpr double kChannelReferenceJ = 0.27577319502385372;
constexpr double kReferenceTolerance = 1e-6;

control::PinnConfig laplace_config(std::uint64_t seed) {
  control::PinnConfig c;
  c.u_hidden = {30, 30, 30};
  c.c_hidden = {20};
  c.epochs = kLaplaceEpochs;
  c.learning_rate = 1e-3;
  c.omega = 0.1;
  c.seed = seed;
  return c;
}

control::PinnConfig channel_config(std::uint64_t seed) {
  control::PinnConfig c;
  c.u_hidden = {30, 30};
  c.c_hidden = {20};
  c.epochs = kChannelEpochs;
  c.batch_interior = 48;
  c.learning_rate = 1e-3;
  c.omega = 1.0;
  c.seed = seed;
  return c;
}

pc::ChannelSpec channel_spec() {
  pc::ChannelSpec spec;
  spec.target_nodes = 350;
  return spec;
}

std::vector<std::size_t> arch(std::size_t in,
                              const std::vector<std::size_t>& hidden,
                              std::size_t out) {
  std::vector<std::size_t> layers{in};
  layers.insert(layers.end(), hidden.begin(), hidden.end());
  layers.push_back(out);
  return layers;
}

/// Plain (double) network evaluations for the full-batch training loss.
std::vector<ad::Dual2<double>> eval2(const nn::Mlp& net, double x, double y) {
  const std::vector<ad::Dual2<double>> in = {ad::dual2_x(x), ad::dual2_y(y)};
  return net.forward<ad::Dual2<double>, double>(
      std::span<const double>(net.parameters()),
      std::span<const ad::Dual2<double>>(in),
      [](double w) { return ad::dual2_constant(w); });
}

std::vector<double> eval0(const nn::Mlp& net,
                          std::initializer_list<double> in) {
  const std::vector<double> inputs(in);
  return net.forward(std::span<const double>(inputs));
}

std::vector<ad::Dual<double>> eval1(const nn::Mlp& net, double x, double y,
                                    double dx, double dy) {
  const std::vector<ad::Dual<double>> in = {{x, dx}, {y, dy}};
  return net.forward<ad::Dual<double>, double>(
      std::span<const double>(net.parameters()),
      std::span<const ad::Dual<double>>(in),
      [](double w) { return ad::dual_constant(w); });
}

/// Tape and per-phase accounting shared by the composed trainers.
struct ComposedTape {
  ad::Tape tape;
  std::size_t nodes = 0;  ///< largest tape of an epoch, before backward
  std::size_t bytes = 0;

  void backward(const Var& total, const std::string& row) {
    nodes = std::max(nodes, tape.size());
    bytes = std::max(bytes, tape.memory_bytes());
    const Scope span("autodiff.backward." + row);
    tape.backward(total);
  }
};

void record_epoch(control::PinnHistory& h, const Var& total, const Var& pde,
                  const Var& bc, const Var& cost) {
  h.total_loss.push_back(total.value());
  h.pde_loss.push_back(pde.value());
  h.boundary_loss.push_back(bc.value());
  h.cost_term.push_back(cost.value());
}

/// Alternating Adam updates of section 2.3, as the library's trainers run
/// them: even epochs move u_theta, odd epochs c_theta.
void adam_updates(nn::Mlp& u_net, nn::Mlp& c_net, optim::Adam& adam_u,
                  optim::Adam& adam_c, const ad::VarVec& theta_u,
                  const ad::VarVec& theta_c, std::size_t epoch,
                  const control::PinnConfig& config, const std::string& row) {
  const la::Vector grad_u = ad::adjoints(theta_u);
  const la::Vector grad_c = ad::adjoints(theta_c);
  const Scope span("optim.step." + row);
  const bool update_u =
      !config.alternating || epoch % 2 == 0 || !config.train_control;
  const bool update_c =
      config.train_control && (!config.alternating || epoch % 2 == 1);
  if (update_u) {
    la::Vector params_u(u_net.parameters());
    adam_u.step(params_u, grad_u, epoch);
    u_net.set_parameters(params_u.std());
  }
  if (update_c) {
    la::Vector params_c(c_net.parameters());
    adam_c.step(params_c, grad_c, epoch);
    c_net.set_parameters(params_c.std());
  }
}

/// control::LaplacePinn composed from public calls.
class ComposedLaplacePinn {
 public:
  explicit ComposedLaplacePinn(const control::PinnConfig& config)
      : config_(config),
        u_net_(arch(2, config.u_hidden, 1), nn::Activation::kTanh,
               config.seed),
        c_net_(arch(1, config.c_hidden, 1), nn::Activation::kTanh,
               config.seed + 1),
        rng_(config.seed + 2),
        schedule_(std::make_shared<optim::PaperSchedule>(
            config.learning_rate, config.epochs)),
        adam_u_(schedule_),
        adam_c_(schedule_) {
    std::uint64_t index = config_.seed + 17;
    while (interior_.size() < config_.n_interior) {
      const pc::Vec2 p = pc::halton2(index++);
      if (p.x < 0.02 || p.x > 0.98 || p.y < 0.02 || p.y > 0.98) continue;
      interior_.push_back(p);
    }
    for (std::size_t i = 0; i < config_.n_boundary; ++i)
      boundary_.push_back(static_cast<double>(i) /
                          static_cast<double>(config_.n_boundary - 1));
    const std::size_t nq = 64;
    quad_w_.assign(nq, 1.0 / static_cast<double>(nq - 1));
    for (std::size_t i = 0; i < nq; ++i)
      quad_x_.push_back(static_cast<double>(i) / static_cast<double>(nq - 1));
    quad_w_.front() *= 0.5;
    quad_w_.back() *= 0.5;
  }

  void train() {
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      const Scope span("control.epoch.laplace.pinn");
      epoch_step(epoch);
    }
  }

  [[nodiscard]] const control::PinnHistory& history() const {
    return history_;
  }
  [[nodiscard]] const ComposedTape& tape() const { return t_; }
  [[nodiscard]] const nn::Mlp& u_net() const { return u_net_; }
  [[nodiscard]] const nn::Mlp& c_net() const { return c_net_; }

  /// The training loss over the whole collocation set (no mini-batches),
  /// in plain arithmetic, for networks `u` and `c`.
  [[nodiscard]] double full_loss(const nn::Mlp& u, const nn::Mlp& c) const {
    double pde_loss = 0.0;
    for (const pc::Vec2& p : interior_) {
      const auto out = eval2(u, p.x, p.y);
      const double r = out[0].hxx + out[0].hyy;
      pde_loss += r * r;
    }
    double bc_loss = 0.0;
    for (const double t : boundary_) {
      const double db = eval0(u, {t, 0.0})[0] - std::sin(kTwoPi * t);
      const double dt = eval0(u, {t, 1.0})[0] - eval0(c, {t})[0];
      const auto l0 = eval1(u, 0.0, t, 1.0, 0.0);
      const auto l1 = eval1(u, 1.0, t, 1.0, 0.0);
      const double dv = l0[0].v - l1[0].v;
      const double dg = l0[0].d - l1[0].d;
      bc_loss += db * db + dt * dt + dv * dv + dg * dg;
    }
    double cost = 0.0;
    for (std::size_t i = 0; i < quad_x_.size(); ++i) {
      const double d = eval1(u, quad_x_[i], 1.0, 0.0, 1.0)[0].d -
                       pde::LaplaceSolver::target_flux(quad_x_[i]);
      cost += quad_w_[i] * d * d;
    }
    return pde_loss / static_cast<double>(interior_.size()) +
           bc_loss / static_cast<double>(boundary_.size()) +
           config_.omega * cost;
  }

 private:
  static constexpr double kTwoPi = 2.0 * std::numbers::pi;

  void epoch_step(std::size_t epoch) {
    ad::Tape& tape = t_.tape;
    tape.clear();
    const ad::VarVec theta_u =
        ad::make_variables(tape, la::Vector(u_net_.parameters()));
    const ad::VarVec theta_c =
        ad::make_variables(tape, la::Vector(c_net_.parameters()));
    const std::span<const Var> tu(theta_u);
    const std::span<const Var> tc(theta_c);

    std::optional<Scope> forward;
    forward.emplace("nn.forward.laplace.pinn");
    Var pde_loss = tape.constant(0.0);
    const auto batch = rng_.sample_without_replacement(
        interior_.size(), std::min(config_.batch_interior, interior_.size()));
    for (const std::size_t k : batch) {
      const auto u =
          pd::eval_dual2(u_net_, tu, tape, interior_[k].x, interior_[k].y);
      const Var r = u[0].hxx + u[0].hyy;
      pde_loss = pde_loss + r * r;
    }
    pde_loss = pde_loss * (1.0 / static_cast<double>(batch.size()));

    Var bc_loss = tape.constant(0.0);
    const std::size_t nb = std::min(config_.batch_boundary, boundary_.size());
    const auto bidx = rng_.sample_without_replacement(boundary_.size(), nb);
    for (const std::size_t k : bidx) {
      const double x = boundary_[k];
      const auto ub = pd::eval_value(u_net_, tu, tape, x, 0.0);
      const Var db = ub[0] - std::sin(kTwoPi * x);
      bc_loss = bc_loss + db * db;
      const auto ut = pd::eval_value(u_net_, tu, tape, x, 1.0);
      const auto ct = pd::eval_value1d(c_net_, tc, tape, x);
      const Var dt = ut[0] - ct[0];
      bc_loss = bc_loss + dt * dt;
      const double y = boundary_[k];
      const auto l0 = pd::eval_dual1(u_net_, tu, tape, 0.0, y, 1.0, 0.0);
      const auto l1 = pd::eval_dual1(u_net_, tu, tape, 1.0, y, 1.0, 0.0);
      const Var dv = l0[0].v - l1[0].v;
      const Var dg = l0[0].d - l1[0].d;
      bc_loss = bc_loss + dv * dv + dg * dg;
    }
    bc_loss = bc_loss * (1.0 / static_cast<double>(nb));

    Var cost = tape.constant(0.0);
    for (std::size_t i = 0; i < quad_x_.size(); ++i) {
      const auto uy =
          pd::eval_dual1(u_net_, tu, tape, quad_x_[i], 1.0, 0.0, 1.0);
      const Var d = uy[0].d - pde::LaplaceSolver::target_flux(quad_x_[i]);
      cost = cost + quad_w_[i] * (d * d);
    }
    const Var total = pde_loss + bc_loss + config_.omega * cost;
    forward.reset();

    t_.backward(total, "laplace.pinn");
    adam_updates(u_net_, c_net_, adam_u_, adam_c_, theta_u, theta_c, epoch,
                 config_, "laplace.pinn");
    record_epoch(history_, total, pde_loss, bc_loss, cost);
  }

  control::PinnConfig config_;
  nn::Mlp u_net_;
  nn::Mlp c_net_;
  Rng rng_;
  std::vector<pc::Vec2> interior_;
  std::vector<double> boundary_;  // bottom x = side y = top x samples
  std::vector<double> quad_x_, quad_w_;
  std::shared_ptr<optim::PaperSchedule> schedule_;
  optim::Adam adam_u_, adam_c_;
  control::PinnHistory history_;
  ComposedTape t_;
};

/// control::ChannelPinn composed from public calls.
class ComposedChannelPinn {
 public:
  ComposedChannelPinn(const control::PinnConfig& config,
                      const pc::ChannelSpec& spec)
      : config_(config),
        spec_(spec),
        u_net_(arch(2, config.u_hidden, 3), nn::Activation::kTanh,
               config.seed),
        c_net_(arch(1, config.c_hidden, 1), nn::Activation::kTanh,
               config.seed + 1),
        rng_(config.seed + 2),
        schedule_(std::make_shared<optim::PaperSchedule>(
            config.learning_rate, config.epochs)),
        adam_u_(schedule_),
        adam_c_(schedule_) {
    std::uint64_t index = config_.seed + 31;
    while (interior_.size() < config_.n_interior) {
      pc::Vec2 p = pc::halton2(index++);
      p.x *= spec_.lx;
      p.y *= spec_.ly;
      if (p.x < 0.01 || p.x > spec_.lx - 0.01 || p.y < 0.01 ||
          p.y > spec_.ly - 0.01)
        continue;
      interior_.push_back(p);
    }
    for (std::size_t i = 0; i < config_.n_boundary; ++i) {
      const double t =
          static_cast<double>(i) / static_cast<double>(config_.n_boundary - 1);
      side_y_.push_back(t * spec_.ly);
      wall_x_.push_back(t * spec_.lx);
    }
    const std::size_t nq = 48;
    quad_w_.assign(nq, spec_.ly / static_cast<double>(nq - 1));
    for (std::size_t i = 0; i < nq; ++i)
      quad_y_.push_back(spec_.ly * static_cast<double>(i) /
                        static_cast<double>(nq - 1));
    quad_w_.front() *= 0.5;
    quad_w_.back() *= 0.5;
  }

  void train() {
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
      const Scope span("control.epoch.channel.pinn");
      epoch_step(epoch);
    }
  }

  [[nodiscard]] const control::PinnHistory& history() const {
    return history_;
  }
  [[nodiscard]] const ComposedTape& tape() const { return t_; }
  [[nodiscard]] const nn::Mlp& u_net() const { return u_net_; }
  [[nodiscard]] const nn::Mlp& c_net() const { return c_net_; }

  /// The training loss over the whole collocation set (no mini-batches),
  /// in plain arithmetic, for networks `un` and `cn`.
  [[nodiscard]] double full_loss(const nn::Mlp& un, const nn::Mlp& cn) const {
    const double nu = 1.0 / kReynolds;
    double pde_loss = 0.0;
    for (const pc::Vec2& q : interior_) {
      const auto out = eval2(un, q.x, q.y);
      const auto& u = out[0];
      const auto& v = out[1];
      const auto& p = out[2];
      const double rx = u.v * u.gx + v.v * u.gy + p.gx - nu * (u.hxx + u.hyy);
      const double ry = u.v * v.gx + v.v * v.gy + p.gy - nu * (v.hxx + v.hyy);
      const double rc = u.gx + v.gy;
      pde_loss += rx * rx + ry * ry + rc * rc;
    }
    double bc_loss = 0.0;
    for (std::size_t k = 0; k < wall_x_.size(); ++k) {
      const double yi = side_y_[k];
      const auto in = eval0(un, {0.0, yi});
      const double diu = in[0] - eval0(cn, {yi})[0];
      const double xw = wall_x_[k];
      const auto bot = eval0(un, {xw, 0.0});
      const auto top = eval0(un, {xw, spec_.ly});
      const double dbv = bot[1] - patch_v(xw, true);
      const double dtv = top[1] - patch_v(xw, false);
      const auto ox = eval1(un, spec_.lx, yi, 1.0, 0.0);
      bc_loss += diu * diu + in[1] * in[1] + bot[0] * bot[0] + dbv * dbv +
                 top[0] * top[0] + dtv * dtv + ox[2].v * ox[2].v +
                 ox[0].d * ox[0].d + ox[1].d * ox[1].d;
    }
    double cost = 0.0;
    for (std::size_t i = 0; i < quad_y_.size(); ++i) {
      const auto out = eval0(un, {spec_.lx, quad_y_[i]});
      const double du = out[0] - target_outflow(quad_y_[i]);
      cost += 0.5 * quad_w_[i] * (du * du + out[1] * out[1]);
    }
    return pde_loss / static_cast<double>(interior_.size()) +
           bc_loss / static_cast<double>(wall_x_.size()) +
           config_.omega * cost;
  }

 private:
  [[nodiscard]] double target_outflow(double y) const {
    return 4.0 * y * (spec_.ly - y) / (spec_.ly * spec_.ly);
  }

  [[nodiscard]] double patch_v(double x, bool bottom) const {
    const double start = bottom ? spec_.blow_start : spec_.suction_start;
    const double end = bottom ? spec_.blow_end : spec_.suction_end;
    const double t = (x - start) / (end - start);
    if (t <= 0.0 || t >= 1.0) return 0.0;
    const double s = std::sin(std::numbers::pi * t);
    return kPatchVelocity * s * s;
  }

  void epoch_step(std::size_t epoch) {
    ad::Tape& tape = t_.tape;
    tape.clear();
    const ad::VarVec theta_u =
        ad::make_variables(tape, la::Vector(u_net_.parameters()));
    const ad::VarVec theta_c =
        ad::make_variables(tape, la::Vector(c_net_.parameters()));
    const std::span<const Var> tu(theta_u);
    const std::span<const Var> tc(theta_c);
    const double nu = 1.0 / kReynolds;

    std::optional<Scope> forward;
    forward.emplace("nn.forward.channel.pinn");
    Var pde_loss = tape.constant(0.0);
    const auto batch = rng_.sample_without_replacement(
        interior_.size(), std::min(config_.batch_interior, interior_.size()));
    for (const std::size_t k : batch) {
      const auto out =
          pd::eval_dual2(u_net_, tu, tape, interior_[k].x, interior_[k].y);
      const auto& u = out[0];
      const auto& v = out[1];
      const auto& p = out[2];
      const Var rx = u.v * u.gx + v.v * u.gy + p.gx - nu * (u.hxx + u.hyy);
      const Var ry = u.v * v.gx + v.v * v.gy + p.gy - nu * (v.hxx + v.hyy);
      const Var rc = u.gx + v.gy;
      pde_loss = pde_loss + rx * rx + ry * ry + rc * rc;
    }
    pde_loss = pde_loss * (1.0 / static_cast<double>(batch.size()));

    Var bc_loss = tape.constant(0.0);
    const std::size_t nb = std::min(config_.batch_boundary, wall_x_.size());
    const auto bidx = rng_.sample_without_replacement(wall_x_.size(), nb);
    for (const std::size_t k : bidx) {
      const double yi = side_y_[k];
      const auto in_val = pd::eval_value(u_net_, tu, tape, 0.0, yi);
      const auto c_val = pd::eval_value1d(c_net_, tc, tape, yi);
      const Var diu = in_val[0] - c_val[0];
      bc_loss = bc_loss + diu * diu + in_val[1] * in_val[1];
      const double xw = wall_x_[k];
      const auto bot = pd::eval_value(u_net_, tu, tape, xw, 0.0);
      const auto top = pd::eval_value(u_net_, tu, tape, xw, spec_.ly);
      const Var dbv = bot[1] - patch_v(xw, true);
      const Var dtv = top[1] - patch_v(xw, false);
      bc_loss = bc_loss + bot[0] * bot[0] + dbv * dbv + top[0] * top[0] +
                dtv * dtv;
      const double yo = side_y_[k];
      const auto ox =
          pd::eval_dual1(u_net_, tu, tape, spec_.lx, yo, 1.0, 0.0);
      bc_loss = bc_loss + ox[2].v * ox[2].v + ox[0].d * ox[0].d +
                ox[1].d * ox[1].d;
    }
    bc_loss = bc_loss * (1.0 / static_cast<double>(nb));

    Var cost = tape.constant(0.0);
    for (std::size_t i = 0; i < quad_y_.size(); ++i) {
      const auto out = pd::eval_value(u_net_, tu, tape, spec_.lx, quad_y_[i]);
      const Var du = out[0] - target_outflow(quad_y_[i]);
      const Var dv = out[1];
      cost = cost + 0.5 * quad_w_[i] * (du * du + dv * dv);
    }
    const Var total = pde_loss + bc_loss + config_.omega * cost;
    forward.reset();

    t_.backward(total, "channel.pinn");
    adam_updates(u_net_, c_net_, adam_u_, adam_c_, theta_u, theta_c, epoch,
                 config_, "channel.pinn");
    record_epoch(history_, total, pde_loss, bc_loss, cost);
  }

  control::PinnConfig config_;
  pc::ChannelSpec spec_;
  nn::Mlp u_net_;
  nn::Mlp c_net_;
  Rng rng_;
  std::vector<pc::Vec2> interior_;
  std::vector<double> side_y_, wall_x_;  // inlet/outlet y and wall x samples
  std::vector<double> quad_y_, quad_w_;
  std::shared_ptr<optim::PaperSchedule> schedule_;
  optim::Adam adam_u_, adam_c_;
  control::PinnHistory history_;
  ComposedTape t_;
};

/// The RBF problems that score each learnt control (built in set-up).
struct Scorers {
  rbf::PolyharmonicSpline kernel{3};
  std::unique_ptr<control::LaplaceControlProblem> laplace;
  std::unique_ptr<control::ChannelFlowControlProblem> channel;
};

std::unique_ptr<Scorers> build_scorers() {
  auto s = std::make_unique<Scorers>();
  s->laplace = std::make_unique<control::LaplaceControlProblem>(32, s->kernel);
  (void)s->laplace->solver().collocation().lu();  // force the lazy LU
  pde::ChannelFlowConfig config;
  config.reynolds = kReynolds;
  config.patch_velocity = kPatchVelocity;
  config.refinements = 3;
  config.steps_per_refinement = 150;
  s->channel = std::make_unique<control::ChannelFlowControlProblem>(
      channel_spec(), s->kernel, config);
  return s;
}

/// Output checks of one PINN row: a finite J, a training loss (over the
/// full collocation set) that falls from the initial to the trained
/// networks, and the recorded J for the default seed's first pass.
void check_row(Outcome& out, const std::string& op, double loss_before,
               double loss_after, double j, std::optional<double> reference) {
  if (!std::isfinite(j)) return out.fail(op, "non-finite J");
  if (!(loss_after < loss_before))
    return out.fail(op, "training loss did not fall (" +
                            std::to_string(loss_before) + " -> " +
                            std::to_string(loss_after) + ")");
  if (reference &&
      std::abs(j - *reference) > kReferenceTolerance * std::abs(*reference)) {
    char why[128];
    std::snprintf(why, sizeof why, "J %.17g differs from the reference %.17g",
                  j, *reference);
    out.fail(op, why);
  }
}

std::string pass_note(const char* row, double j, double before,
                      double after) {
  char line[160];
  std::snprintf(line, sizeof line, "%s J %.17g, full-batch loss %.6g -> %.6g",
                row, j, before, after);
  return line;
}

Outcome run_untraced(const Options& options) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Scorers> scorers;
  for (int r = 0; r < kScorerSetupRepeats; ++r) {
    scorers.reset();
    const CpuStopwatch watch;
    scorers = build_scorers();
    setups.push_back(watch.seconds());
  }
  const std::vector<double> control_x = scorers->laplace->solver().control_x();
  const std::vector<double> inlet_y = scorers->channel->solver().inlet_y();

  std::vector<double> laplace_s, channel_s;
  const std::size_t pass_count = passes_for(options, kPassSeconds);
  for (std::size_t pass = 0; pass < pass_count; ++pass) {
    const std::uint64_t seed = mix_seed(options.seed, pass);
    const bool reference = options.seed == kDefaultSeed && pass == 0;
    const std::string tag = " (pass " + std::to_string(pass) + ")";
    ++out.attempted;
    try {
      control::LaplacePinn pinn(laplace_config(seed));
      const CpuStopwatch watch;
      pinn.train();
      laplace_s.push_back(watch.seconds());
      const ComposedLaplacePinn initial(laplace_config(seed));
      const double j = scorers->laplace->cost(pinn.control_at(control_x));
      const double before = initial.full_loss(initial.u_net(), initial.c_net());
      const double after = initial.full_loss(pinn.u_net(), pinn.c_net());
      check_row(out, "laplace.pinn" + tag, before, after, j,
                reference ? std::optional(kLaplaceReferenceJ) : std::nullopt);
      if (pass == 0) out.note(pass_note("laplace.pinn", j, before, after));
    } catch (const std::exception& e) {
      out.fail("laplace.pinn" + tag, e.what());
    }
    ++out.attempted;
    try {
      control::ChannelPinn pinn(channel_config(seed), channel_spec(),
                                kReynolds, kPatchVelocity);
      const CpuStopwatch watch;
      pinn.train();
      channel_s.push_back(watch.seconds());
      const ComposedChannelPinn initial(channel_config(seed), channel_spec());
      const double j = scorers->channel->cost(pinn.control_at(inlet_y));
      const double before = initial.full_loss(initial.u_net(), initial.c_net());
      const double after = initial.full_loss(pinn.u_net(), pinn.c_net());
      check_row(out, "channel.pinn" + tag, before, after, j,
                reference ? std::optional(kChannelReferenceJ) : std::nullopt);
      if (pass == 0) out.note(pass_note("channel.pinn", j, before, after));
    } catch (const std::exception& e) {
      out.fail("channel.pinn" + tag, e.what());
    }
  }
  out.add_median("setup_s", setups, "s");
  out.note_samples("laplace.pinn_s", laplace_s);
  out.note_samples("channel.pinn_s", channel_s);
  out.detail("laplace.pinn_s", median(laplace_s), "s");
  out.detail("channel.pinn_s", median(channel_s), "s");
  out.add("pass_s", median(laplace_s) + median(channel_s), "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  return out;
}

double tape_mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// History equality down to the bit pattern of every recorded loss.
bool same_history(const control::PinnHistory& a,
                  const control::PinnHistory& b) {
  return a.total_loss == b.total_loss && a.pde_loss == b.pde_loss &&
         a.boundary_loss == b.boundary_loss && a.cost_term == b.cost_term;
}

void detail_row(Outcome& out, const std::map<std::string, Rollup>& rollups,
                const std::string& row, const ComposedTape& tape) {
  out.detail("nn.forward_s." + row,
             sum_prefix(rollups, "nn.forward." + row).total, "s");
  out.detail("autodiff.backward_s." + row,
             sum_prefix(rollups, "autodiff.backward." + row).total, "s");
  out.detail("optim.step_s." + row,
             sum_prefix(rollups, "optim.step." + row).total, "s");
  out.detail("autodiff.tape_nodes." + row, static_cast<double>(tape.nodes),
             "count");
  out.detail("autodiff.tape_mib." + row, tape_mib(tape.bytes), "MiB");
}

Outcome run_traced(const Options& options) {
  Outcome out;
  const std::uint64_t seed = mix_seed(options.seed, 0);
  std::unique_ptr<Scorers> scorers;
  recorder().set_enabled(true);
  {
    const Scope span("pde.build.scorers");
    scorers = build_scorers();
  }
  recorder().set_enabled(false);
  double untraced = 0.0;
  double traced = 0.0;
  std::size_t tape_nodes = 0;
  std::size_t tape_bytes = 0;

  // Laplace row: library trainer untraced, then the composed one traced.
  ++out.attempted;
  {
    control::LaplacePinn pinn(laplace_config(seed));
    const CpuStopwatch watch;
    pinn.train();
    untraced += watch.seconds();
    recorder().set_enabled(true);
    ComposedLaplacePinn composed(laplace_config(seed));
    const CpuStopwatch traced_watch;
    composed.train();
    traced += traced_watch.seconds();
    {
      const Scope span("pde.score.laplace.pinn");
      const double j = scorers->laplace->cost(
          pinn.control_at(scorers->laplace->solver().control_x()));
      if (!std::isfinite(j)) out.fail("laplace.pinn", "non-finite J");
    }
    recorder().set_enabled(false);
    if (!same_history(pinn.history(), composed.history()))
      out.fail("laplace.pinn", "composed epochs do not reproduce "
                               "LaplacePinn::history() bitwise");
    detail_row(out, rollup_by_name(recorder().spans()), "laplace.pinn",
               composed.tape());
    tape_nodes = std::max(tape_nodes, composed.tape().nodes);
    tape_bytes = std::max(tape_bytes, composed.tape().bytes);
  }

  ++out.attempted;
  {
    control::ChannelPinn pinn(channel_config(seed), channel_spec(), kReynolds,
                              kPatchVelocity);
    const CpuStopwatch watch;
    pinn.train();
    untraced += watch.seconds();
    recorder().set_enabled(true);
    ComposedChannelPinn composed(channel_config(seed), channel_spec());
    const CpuStopwatch traced_watch;
    composed.train();
    traced += traced_watch.seconds();
    {
      const Scope span("pde.score.channel.pinn");
      const double j = scorers->channel->cost(
          pinn.control_at(scorers->channel->solver().inlet_y()));
      if (!std::isfinite(j)) out.fail("channel.pinn", "non-finite J");
    }
    recorder().set_enabled(false);
    if (!same_history(pinn.history(), composed.history()))
      out.fail("channel.pinn", "composed epochs do not reproduce "
                               "ChannelPinn::history() bitwise");
    detail_row(out, rollup_by_name(recorder().spans()), "channel.pinn",
               composed.tape());
    tape_nodes = std::max(tape_nodes, composed.tape().nodes);
    tape_bytes = std::max(tape_bytes, composed.tape().bytes);
  }
  out.add("autodiff.tape_nodes", static_cast<double>(tape_nodes), "count");
  out.add("autodiff.tape_mib", tape_mib(tape_bytes), "MiB");
  out.add("trace.overhead", (traced - untraced) / untraced, "ratio");
  return out;
}

}  // namespace

Outcome run_pinn(const Options& options) {
  return options.trace ? run_traced(options) : run_untraced(options);
}

}  // namespace perfbench
