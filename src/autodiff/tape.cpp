#include "autodiff/tape.hpp"

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace updec::ad {

Var Tape::variable(double value) {
  val_.push_back(value);
  pa_.push_back(-1);
  pb_.push_back(-1);
  wa_.push_back(0.0);
  wb_.push_back(0.0);
  return {this, static_cast<std::int64_t>(val_.size()) - 1};
}

Var Tape::node1(double value, std::int64_t parent, double partial) {
  UPDEC_ASSERT(parent >= 0 &&
               static_cast<std::size_t>(parent) < val_.size());
  val_.push_back(value);
  pa_.push_back(parent);
  pb_.push_back(-1);
  wa_.push_back(partial);
  wb_.push_back(0.0);
  return {this, static_cast<std::int64_t>(val_.size()) - 1};
}

Var Tape::node2(double value, std::int64_t pa, double wa, std::int64_t pb,
                double wb) {
  UPDEC_ASSERT(pa >= 0 && static_cast<std::size_t>(pa) < val_.size());
  UPDEC_ASSERT(pb >= 0 && static_cast<std::size_t>(pb) < val_.size());
  val_.push_back(value);
  pa_.push_back(pa);
  pb_.push_back(pb);
  wa_.push_back(wa);
  wb_.push_back(wb);
  return {this, static_cast<std::int64_t>(val_.size()) - 1};
}

std::int64_t Tape::custom_op(const std::vector<double>& out_values,
                             std::size_t kept_bytes, CustomBackward backward) {
  const auto start = static_cast<std::int64_t>(val_.size());
  for (const double v : out_values) (void)variable(v);
  custom_.push_back({start, static_cast<std::int64_t>(out_values.size()),
                     kept_bytes, std::move(backward)});
  kept_bytes_ += kept_bytes;
  return start;
}

void Tape::backward(const Var& root) {
  UPDEC_TRACE_SCOPE("autodiff/backward");
  UPDEC_REQUIRE(root.tape() == this, "backward() root from another tape");
  const std::size_t n = val_.size();
  UPDEC_METRIC_ADD("autodiff/tape.backward_passes", 1);
  UPDEC_METRIC_ADD("autodiff/tape.nodes_swept", n);
  adj_.assign(n, 0.0);
  adj_[static_cast<std::size_t>(root.index())] = 1.0;

  // Reverse sweep. Custom ops fire exactly when the sweep reaches the first
  // node of their output block: every downstream consumer has then been
  // processed (larger indices), and all their inputs (smaller indices) are
  // still pending.
  std::int64_t next_custom = static_cast<std::int64_t>(custom_.size()) - 1;
  for (std::int64_t i = static_cast<std::int64_t>(n) - 1; i >= 0; --i) {
    const auto ui = static_cast<std::size_t>(i);
    const double a = adj_[ui];
    if (a != 0.0) {
      if (pa_[ui] >= 0) adj_[static_cast<std::size_t>(pa_[ui])] += wa_[ui] * a;
      if (pb_[ui] >= 0) adj_[static_cast<std::size_t>(pb_[ui])] += wb_[ui] * a;
    }
    while (next_custom >= 0 &&
           custom_[static_cast<std::size_t>(next_custom)].out_start == i) {
      const auto& op = custom_[static_cast<std::size_t>(next_custom)];
      op.backward(*this, op.out_start);
      --next_custom;
    }
  }
  // Peak accounting after the sweep, when the adjoint array is live too.
  UPDEC_METRIC_GAUGE_MAX("autodiff/tape.peak_nodes", static_cast<double>(n));
  UPDEC_METRIC_GAUGE_MAX("autodiff/tape.peak_bytes",
                         static_cast<double>(memory_bytes()));
}

std::size_t Tape::memory_bytes() const {
  return val_.size() * (3 * sizeof(double) + 2 * sizeof(std::int64_t)) +
         adj_.size() * sizeof(double) + custom_.size() * sizeof(CustomOp) +
         kept_bytes_;
}

void Tape::clear() {
  val_.clear();
  adj_.clear();
  pa_.clear();
  pb_.clear();
  wa_.clear();
  wb_.clear();
  custom_.clear();
  kept_bytes_ = 0;
}

void Tape::rewind(std::size_t mark) {
  UPDEC_REQUIRE(mark <= val_.size(), "rewind past end of tape");
  val_.resize(mark);
  pa_.resize(mark);
  pb_.resize(mark);
  wa_.resize(mark);
  wb_.resize(mark);
  adj_.clear();
  while (!custom_.empty() &&
         static_cast<std::size_t>(custom_.back().out_start) >= mark) {
    kept_bytes_ -= custom_.back().kept_bytes;
    custom_.pop_back();
  }
}

void Tape::reserve(std::size_t nodes) {
  val_.reserve(nodes);
  pa_.reserve(nodes);
  pb_.reserve(nodes);
  wa_.reserve(nodes);
  wb_.reserve(nodes);
}

}  // namespace updec::ad
