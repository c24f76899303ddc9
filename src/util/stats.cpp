#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace massf {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  MASSF_REQUIRE(count_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  MASSF_REQUIRE(count_ > 0, "max of empty accumulator");
  return max_;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double total = 0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  Accumulator acc;
  for (double x : xs) acc.add(x);
  return acc.stddev();
}

double normalized_imbalance(std::span<const double> loads) {
  const double m = mean(loads);
  if (m == 0.0) return 0.0;
  return stddev(loads) / m;
}

double max_over_mean(std::span<const double> loads) {
  const double m = mean(loads);
  if (m == 0.0) return 1.0;
  double mx = loads.empty() ? 0.0 : loads[0];
  for (double x : loads) mx = std::max(mx, x);
  return mx / m;
}

std::vector<double> moving_average(std::span<const double> xs,
                                   std::size_t half_window) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  const auto n = static_cast<std::ptrdiff_t>(xs.size());
  const auto h = static_cast<std::ptrdiff_t>(half_window);
  // O(n) sliding window: maintain the sum of [i-h, i+h] clipped to range.
  double window_sum = 0;
  std::ptrdiff_t lo = 0, hi = -1;  // current inclusive window bounds
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    const std::ptrdiff_t want_lo = std::max<std::ptrdiff_t>(0, i - h);
    const std::ptrdiff_t want_hi = std::min<std::ptrdiff_t>(n - 1, i + h);
    while (hi < want_hi) window_sum += xs[static_cast<std::size_t>(++hi)];
    while (lo < want_lo) window_sum -= xs[static_cast<std::size_t>(lo++)];
    out[static_cast<std::size_t>(i)] =
        window_sum / static_cast<double>(want_hi - want_lo + 1);
  }
  return out;
}

}  // namespace massf
