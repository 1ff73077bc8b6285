// Tests for the observability layer (util/metrics + util/trace): counter
// and histogram correctness, span nesting with self-time accounting,
// disabled-mode no-ops, JSON export validity, and thread-safety of
// concurrent counter increments.

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

#if defined(UPDEC_DISABLE_METRICS)

// With -DUPDEC_METRICS=OFF every macro is compiled out and set_enabled()
// is a no-op; there is nothing meaningful to assert.
TEST(MetricsTest, CompiledOut) { GTEST_SKIP() << "metrics compiled out"; }

#else

namespace {

using namespace updec;

/// Each test starts from a clean, enabled registry.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::reset();
    metrics::set_enabled(true);
  }
  void TearDown() override {
    metrics::set_enabled(false);
    metrics::reset();
  }
};

// ---- minimal JSON validator (syntax only) --------------------------------
// The dump must be consumable by any standards-compliant parser; this
// checker walks the grammar and fails on trailing commas, bare NaN/Inf,
// unbalanced brackets and unterminated strings -- the bugs a hand-rolled
// serialiser is actually at risk of.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;  // skip the escaped char
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- counters ------------------------------------------------------------

TEST_F(MetricsTest, CounterAccumulates) {
  EXPECT_EQ(metrics::counter_value("t/c"), 0u);
  metrics::counter_add("t/c");
  metrics::counter_add("t/c", 41);
  EXPECT_EQ(metrics::counter_value("t/c"), 42u);
}

TEST_F(MetricsTest, CounterThreadSafety) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kIncrements; ++i)
        metrics::counter_add("t/concurrent");
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(metrics::counter_value("t/concurrent"), kThreads * kIncrements);
}

// ---- gauges --------------------------------------------------------------

TEST_F(MetricsTest, GaugeSetAndMax) {
  metrics::gauge_set("t/g", 3.0);
  metrics::gauge_set("t/g", 2.0);
  EXPECT_DOUBLE_EQ(metrics::gauge_value("t/g"), 2.0);

  metrics::gauge_max("t/peak", 10.0);
  metrics::gauge_max("t/peak", 4.0);
  metrics::gauge_max("t/peak", 25.0);
  EXPECT_DOUBLE_EQ(metrics::gauge_value("t/peak"), 25.0);
}

// ---- histograms ----------------------------------------------------------

TEST_F(MetricsTest, HistogramStatsOnKnownData) {
  // 1..100: exact count/sum/min/max, p50 ~ 50, p95 ~ 95.
  for (int i = 1; i <= 100; ++i)
    metrics::observe("t/h", static_cast<double>(i));
  const metrics::HistogramStats s = metrics::histogram_stats("t/h");
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p50, 50.0, 1.5);
  EXPECT_NEAR(s.p95, 95.0, 1.5);
}

TEST_F(MetricsTest, HistogramExactStatsSurviveThinning) {
  // Push past the internal percentile-sample cap (2^16): count, sum, min
  // and max must stay exact, and percentiles must stay plausible.
  constexpr std::size_t kN = (1 << 16) + 5000;
  double sum = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double v = static_cast<double>(i % 1000);
    sum += v;
    metrics::observe("t/big", v);
  }
  const metrics::HistogramStats s = metrics::histogram_stats("t/big");
  EXPECT_EQ(s.count, kN);
  EXPECT_DOUBLE_EQ(s.sum, sum);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 999.0);
  EXPECT_NEAR(s.p50, 500.0, 50.0);
  EXPECT_NEAR(s.p95, 950.0, 50.0);
}

// ---- spans ---------------------------------------------------------------

TEST_F(MetricsTest, SpanRecordsOccurrences) {
  for (int i = 0; i < 3; ++i) {
    UPDEC_TRACE_SCOPE("t/span");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const metrics::SpanStats s = metrics::span_stats("t/span");
  EXPECT_EQ(s.count, 3u);
  EXPECT_GT(s.total_seconds, 0.004);  // 3 x ~2ms, generous slack
  EXPECT_GT(s.min_seconds, 0.0);
  EXPECT_GE(s.max_seconds, s.min_seconds);
  // No nested spans: self time equals total time.
  EXPECT_NEAR(s.self_seconds, s.total_seconds, 1e-9);
}

TEST_F(MetricsTest, NestedSpanSelfTimeExcludesChildren) {
  {
    UPDEC_TRACE_SCOPE("t/outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      UPDEC_TRACE_SCOPE("t/inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(6));
    }
  }
  const metrics::SpanStats outer = metrics::span_stats("t/outer");
  const metrics::SpanStats inner = metrics::span_stats("t/inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  // Outer includes the inner span; its self time does not.
  EXPECT_GE(outer.total_seconds, inner.total_seconds);
  EXPECT_LT(outer.self_seconds, outer.total_seconds);
  EXPECT_NEAR(outer.self_seconds,
              outer.total_seconds - inner.total_seconds, 1e-3);
}

// ---- disabled mode -------------------------------------------------------

TEST_F(MetricsTest, DisabledModeIsNoOp) {
  metrics::set_enabled(false);
  UPDEC_METRIC_ADD("t/off.counter", 7);
  UPDEC_METRIC_GAUGE_SET("t/off.gauge", 1.0);
  UPDEC_METRIC_OBSERVE("t/off.hist", 1.0);
  {
    UPDEC_TRACE_SCOPE("t/off.span");
  }
  metrics::set_enabled(true);
  EXPECT_EQ(metrics::counter_value("t/off.counter"), 0u);
  EXPECT_DOUBLE_EQ(metrics::gauge_value("t/off.gauge"), 0.0);
  EXPECT_EQ(metrics::histogram_stats("t/off.hist").count, 0u);
  EXPECT_EQ(metrics::span_stats("t/off.span").count, 0u);
}

TEST_F(MetricsTest, SpanOpenedWhileDisabledStaysInert) {
  metrics::set_enabled(false);
  {
    UPDEC_TRACE_SCOPE("t/late.span");
    metrics::set_enabled(true);  // enabling mid-scope must not corrupt state
  }
  EXPECT_EQ(metrics::span_stats("t/late.span").count, 0u);
}

// ---- JSON export ---------------------------------------------------------

TEST_F(MetricsTest, DumpIsValidJsonWithAllSections) {
  metrics::set_label("bench", "unit\"test");  // quote must be escaped
  metrics::counter_add("t/json.counter", 3);
  metrics::gauge_set("t/json.gauge", 1.5);
  metrics::observe("t/json.hist", 2.0);
  {
    UPDEC_TRACE_SCOPE("t/json.span");
  }
  const std::string json = metrics::dump_json();

  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  for (const char* key :
       {"\"schema\"", "\"updec-metrics-v1\"", "\"labels\"", "\"process\"",
        "\"peak_rss_bytes\"", "\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"spans\"", "\"t/json.counter\"", "\"t/json.gauge\"",
        "\"t/json.hist\"", "\"t/json.span\"", "\"total_seconds\"",
        "\"self_seconds\"", "\"p95\"", "\\\""})
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
}

TEST_F(MetricsTest, EmptyRegistryDumpIsValidJson) {
  metrics::reset();
  const std::string json = metrics::dump_json();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
}

TEST_F(MetricsTest, DumpFileCreatesMissingParentDirectories) {
  // A bench's --out directory need not exist: the dump makes it rather
  // than dropping the JSON with a warning.
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "updec_metrics_out";
  std::filesystem::remove_all(root);
  const std::filesystem::path file = root / "nested" / "BENCH_t.json";
  metrics::counter_add("t/file.c", 5);
  ASSERT_TRUE(metrics::dump_json_file(file.string()));
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << file;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\"t/file.c\": 5"), std::string::npos) << json;
  std::filesystem::remove_all(root);
}

TEST_F(MetricsTest, RoundTripThroughRegistry) {
  // "Round trip": the values that went in are the values the accessors and
  // the dump report.
  metrics::counter_add("t/rt.c", 12);
  metrics::gauge_set("t/rt.g", 0.25);  // exactly representable
  const std::string json = metrics::dump_json();
  EXPECT_NE(json.find("\"t/rt.c\": 12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"t/rt.g\": 0.25"), std::string::npos) << json;
  EXPECT_EQ(metrics::counter_value("t/rt.c"), 12u);
  EXPECT_DOUBLE_EQ(metrics::gauge_value("t/rt.g"), 0.25);
}

TEST_F(MetricsTest, ResetClearsEverything) {
  metrics::counter_add("t/r.c");
  metrics::observe("t/r.h", 1.0);
  metrics::reset();
  EXPECT_EQ(metrics::counter_value("t/r.c"), 0u);
  EXPECT_EQ(metrics::histogram_stats("t/r.h").count, 0u);
}

}  // namespace

#endif  // UPDEC_DISABLE_METRICS
