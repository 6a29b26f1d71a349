// Statistics the benchmark reports: percentiles under the tail-sample rule,
// call-failure accounting, and the trace-coverage ratio. Header-only so the
// self-test binary checks exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench::stats {

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kTailSamples = 10;

/// Samples ranked strictly above percentile `pct` (0..100) of `n` samples:
/// n - ceil(n * pct / 100), in integer arithmetic so 90 % of 100 is exactly
/// 90 samples at or below.
constexpr std::size_t samples_beyond(std::size_t n, std::size_t pct) {
  return n - (n * pct + 99) / 100;
}

/// True when percentile `pct` of `n` samples has kTailSamples beyond it.
constexpr bool tail_resolved(std::size_t n, std::size_t pct) {
  return pct < 100 && samples_beyond(n, pct) >= kTailSamples;
}

/// Smallest sample count for which percentile `pct` is resolved.
constexpr std::size_t min_samples_for(std::size_t pct) {
  std::size_t n = kTailSamples;
  while (!tail_resolved(n, pct)) ++n;
  return n;
}

/// Linearly interpolated percentile `pct` (0..100) of `samples`: rank
/// pct/100 * (n - 1) of the sorted samples, blending the two neighbours.
inline double percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Attempted and failed top-level calls. A call fails when it throws or
/// when any correctness check on it fails.
struct CallLedger {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// failed / attempted; 1 when nothing was attempted (nothing succeeded).
  double error_rate() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Share of a call's host time the layer spans explain: the summed span
/// time divided by the untraced call time times the number of PCUs that
/// served the call concurrently (`lanes`), so spans that ran side by side
/// on parallel PCUs are not counted twice.
inline double coverage(double span_s, double call_s, std::size_t lanes) {
  if (!(call_s > 0.0) || lanes == 0)
    throw std::invalid_argument("coverage needs a positive call time");
  return span_s / (call_s * static_cast<double>(lanes));
}

} // namespace perfbench::stats
