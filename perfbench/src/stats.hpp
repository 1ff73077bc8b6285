#pragma once
/// \file stats.hpp
/// Order statistics of the benchmark's samples and the percentile rule:
/// a latency percentile is reported only when at least ten samples lie
/// beyond it.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie beyond a reported percentile.
inline constexpr std::size_t kSamplesBeyond = 10;

/// Median of `values` (mean of the two middle values for even counts).
/// Empty input gives 0.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least p % of the samples at or below it. Empty input gives 0.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank position of percentile `p`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// True when `n` samples leave at least kSamplesBeyond beyond percentile p.
[[nodiscard]] bool percentile_supported(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9 and 99.99 that `n` samples support;
/// 0 when not even the median is supported.
[[nodiscard]] double highest_supported_percentile(std::size_t n);

}  // namespace perfbench
