// Unit and property tests for the reverse-mode tape: every scalar op is
// checked against central finite differences, plus graph mechanics
// (fan-out accumulation, stop_gradient, rewind).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autodiff/var_math.hpp"
#include "util/rng.hpp"

namespace {

using updec::ad::Tape;
using updec::ad::Var;

/// Central finite difference of a scalar function at x.
double fd(const std::function<double(double)>& f, double x, double h = 1e-6) {
  return (f(x + h) - f(x - h)) / (2.0 * h);
}

/// Check d/dx of a Var-function against its double twin at several points.
void check_unary(const std::function<Var(Var)>& fv,
                 const std::function<double(double)>& fd_fn,
                 std::initializer_list<double> points, double tol = 1e-6) {
  for (const double x0 : points) {
    Tape tape;
    Var x = tape.variable(x0);
    Var y = fv(x);
    tape.backward(y);
    EXPECT_NEAR(x.adjoint(), fd(fd_fn, x0), tol)
        << "mismatch at x0 = " << x0;
  }
}

TEST(Tape, AdditionAndMultiplication) {
  Tape tape;
  Var a = tape.variable(2.0);
  Var b = tape.variable(3.0);
  Var y = a * b + a;  // y = ab + a, dy/da = b + 1 = 4, dy/db = a = 2
  EXPECT_DOUBLE_EQ(y.value(), 8.0);
  tape.backward(y);
  EXPECT_DOUBLE_EQ(a.adjoint(), 4.0);
  EXPECT_DOUBLE_EQ(b.adjoint(), 2.0);
}

TEST(Tape, DivisionQuotientRule) {
  Tape tape;
  Var a = tape.variable(1.0);
  Var b = tape.variable(4.0);
  Var y = a / b;
  tape.backward(y);
  EXPECT_DOUBLE_EQ(a.adjoint(), 0.25);
  EXPECT_DOUBLE_EQ(b.adjoint(), -1.0 / 16.0);
}

TEST(Tape, ConstantsOnBothSides) {
  Tape tape;
  Var x = tape.variable(3.0);
  Var y = 2.0 * x + (x - 1.0) * 4.0 + 5.0 / x - x / 2.0;
  tape.backward(y);
  // dy/dx = 2 + 4 - 5/x^2 - 0.5
  EXPECT_NEAR(x.adjoint(), 2.0 + 4.0 - 5.0 / 9.0 - 0.5, 1e-14);
}

TEST(Tape, FanOutAccumulatesAdjoints) {
  Tape tape;
  Var x = tape.variable(2.0);
  Var y = x * x + x * x * x;  // x used many times
  tape.backward(y);
  EXPECT_NEAR(x.adjoint(), 2.0 * 2.0 + 3.0 * 4.0, 1e-14);
}

TEST(Tape, DeepChainRule) {
  // y = tanh(exp(sin(x^2))) checked against finite differences.
  check_unary(
      [](Var x) { return tanh(exp(sin(x * x))); },
      [](double x) { return std::tanh(std::exp(std::sin(x * x))); },
      {0.3, -0.7, 1.1});
}

TEST(Tape, MathFunctionsMatchFiniteDifferences) {
  check_unary([](Var x) { return exp(x); },
              [](double x) { return std::exp(x); }, {-1.0, 0.0, 2.0});
  check_unary([](Var x) { return log(x); },
              [](double x) { return std::log(x); }, {0.5, 1.0, 3.0});
  check_unary([](Var x) { return sqrt(x); },
              [](double x) { return std::sqrt(x); }, {0.25, 1.0, 9.0});
  check_unary([](Var x) { return sin(x); },
              [](double x) { return std::sin(x); }, {-2.0, 0.1, 1.6});
  check_unary([](Var x) { return cos(x); },
              [](double x) { return std::cos(x); }, {-2.0, 0.1, 1.6});
  check_unary([](Var x) { return tan(x); },
              [](double x) { return std::tan(x); }, {-0.5, 0.2, 1.0});
  check_unary([](Var x) { return tanh(x); },
              [](double x) { return std::tanh(x); }, {-1.5, 0.0, 1.5});
  check_unary([](Var x) { return sinh(x); },
              [](double x) { return std::sinh(x); }, {-1.0, 0.5});
  check_unary([](Var x) { return cosh(x); },
              [](double x) { return std::cosh(x); }, {-1.0, 0.5});
  check_unary([](Var x) { return pow(x, 3.0); },
              [](double x) { return std::pow(x, 3.0); }, {0.5, 2.0});
  check_unary([](Var x) { return abs(x); },
              [](double x) { return std::abs(x); }, {-2.0, 3.0});
}

TEST(Tape, PowVarVar) {
  Tape tape;
  Var a = tape.variable(2.0);
  Var b = tape.variable(3.0);
  Var y = pow(a, b);
  tape.backward(y);
  EXPECT_NEAR(a.adjoint(), 3.0 * 4.0, 1e-12);              // b a^(b-1)
  EXPECT_NEAR(b.adjoint(), 8.0 * std::log(2.0), 1e-12);    // a^b ln a
}

TEST(Tape, MaxMinClampGradients) {
  Tape tape;
  Var x = tape.variable(2.0);
  Var y = max(x, 5.0);  // clamped: derivative 0
  tape.backward(y);
  EXPECT_DOUBLE_EQ(y.value(), 5.0);
  EXPECT_DOUBLE_EQ(x.adjoint(), 0.0);

  Tape tape2;
  Var x2 = tape2.variable(7.0);
  Var y2 = max(x2, 5.0);  // pass-through
  tape2.backward(y2);
  EXPECT_DOUBLE_EQ(x2.adjoint(), 1.0);
}

TEST(Tape, StopGradientBlocksFlow) {
  Tape tape;
  Var x = tape.variable(3.0);
  Var y = x * stop_gradient(x);  // treated as x * const(3)
  tape.backward(y);
  EXPECT_DOUBLE_EQ(y.value(), 9.0);
  EXPECT_DOUBLE_EQ(x.adjoint(), 3.0);  // not 6
}

TEST(Tape, ComparisonsUseForwardValues) {
  Tape tape;
  Var a = tape.variable(1.0);
  Var b = tape.variable(2.0);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > 1.5);
  EXPECT_TRUE(0.5 < a);
}

TEST(Tape, RewindDropsNodes) {
  Tape tape;
  Var x = tape.variable(1.0);
  const std::size_t mark = tape.mark();
  for (int i = 0; i < 10; ++i) (void)(x * x);
  EXPECT_GT(tape.size(), mark);
  tape.rewind(mark);
  EXPECT_EQ(tape.size(), mark);
  // Tape still usable after rewind.
  Var y = x * 2.0;
  tape.backward(y);
  EXPECT_DOUBLE_EQ(x.adjoint(), 2.0);
}

TEST(Tape, ClearResetsEverything) {
  Tape tape;
  Var x = tape.variable(1.0);
  tape.backward(x * x);
  tape.clear();
  EXPECT_EQ(tape.size(), 0u);
  Var y = tape.variable(4.0);
  Var z = sqrt(y);
  tape.backward(z);
  EXPECT_DOUBLE_EQ(y.adjoint(), 0.25);
}

TEST(Tape, MemoryBytesGrowsWithNodes) {
  Tape tape;
  Var x = tape.variable(1.0);
  const auto before = tape.memory_bytes();
  for (int i = 0; i < 1000; ++i) x = x * 1.0000001;
  EXPECT_GT(tape.memory_bytes(), before + 1000 * 3 * sizeof(double));
}

TEST(Tape, MemoryBytesCountsWhatCustomOpsDeclare) {
  Tape tape;
  const Var x = tape.variable(2.0);
  const auto triple = [&tape, x](std::size_t kept_bytes) {
    const std::int64_t out = tape.custom_op(
        {3.0 * x.value()}, kept_bytes, [x](Tape& t, std::int64_t o) {
          t.adjoint_ref(x.index()) += 3.0 * t.adjoint(o);
        });
    return Var(&tape, out);
  };
  const std::size_t m0 = tape.memory_bytes();
  const Var y = triple(0);
  const std::size_t m1 = tape.memory_bytes();
  const std::size_t mark = tape.mark();
  (void)triple(12345);
  const std::size_t m2 = tape.memory_bytes();
  // The same op again, plus exactly the bytes it declared.
  EXPECT_EQ(m2 - m1, (m1 - m0) + 12345u);
  tape.rewind(mark);
  EXPECT_EQ(tape.memory_bytes(), m1);
  tape.backward(y);
  EXPECT_DOUBLE_EQ(x.adjoint(), 3.0);
  tape.clear();
  EXPECT_EQ(tape.memory_bytes(), 0u);
}

TEST(Tape, MixedTapesThrow) {
  Tape t1, t2;
  Var a = t1.variable(1.0);
  Var b = t2.variable(2.0);
  EXPECT_THROW(a + b, updec::Error);
}

// Property sweep: gradient of a random rational-trig expression matches FD
// for many random inputs.
class RandomExpressionGradient : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpressionGradient, MatchesFiniteDifferences) {
  updec::Rng rng(GetParam());
  const double x0 = rng.uniform(0.2, 2.0);
  const double y0 = rng.uniform(0.2, 2.0);
  const auto f = [](auto x, auto y) {
    using std::cos;
    using std::exp;
    using std::sin;
    using std::sqrt;
    using std::tanh;
    return tanh(x * y) + sin(x) * cos(y) / (1.0 + x * x) +
           sqrt(x + y) * exp(-1.0 * x * y) + x / y;
  };
  Tape tape;
  Var x = tape.variable(x0);
  Var y = tape.variable(y0);
  Var z = f(x, y);
  tape.backward(z);
  const double gx_fd =
      fd([&](double t) { return f(t, y0); }, x0);
  const double gy_fd =
      fd([&](double t) { return f(x0, t); }, y0);
  EXPECT_NEAR(x.adjoint(), gx_fd, 2e-6);
  EXPECT_NEAR(y.adjoint(), gy_fd, 2e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpressionGradient,
                         ::testing::Range(1, 13));

}  // namespace
