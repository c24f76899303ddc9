// Statistical helpers used by the load-balance metrics and the benches.
//
// The paper's central metric is the *normalized load imbalance*: the standard
// deviation of per-engine simulation-kernel event rates divided by their
// mean (§4.1.1). That quantity, plus general accumulators and time series
// smoothing for the PROFILE clustering algorithm, live here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace massf {

/// Streaming accumulator for count/mean/variance (Welford) plus min/max.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  /// Population variance (divides by n). Returns 0 for fewer than 2 samples.
  double variance() const;
  /// Population standard deviation.
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double sum_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Mean of a sample span (0 for an empty span).
double mean(std::span<const double> xs);

/// Population standard deviation of a sample span.
double stddev(std::span<const double> xs);

/// The paper's load-imbalance metric: stddev({k_i}) / mean({k_i}) for the
/// per-engine kernel event rates k_i. Returns 0 when the mean is 0 (an
/// entirely idle system is trivially balanced).
double normalized_imbalance(std::span<const double> loads);

/// max/mean of a sample span; an alternative imbalance measure reported by
/// some benches (1.0 == perfectly balanced). Returns 1 when the mean is 0.
double max_over_mean(std::span<const double> loads);

/// Centered moving average with the given half-window (window = 2*half+1,
/// truncated at the ends). Used by the PROFILE segment-clustering algorithm
/// to smooth per-engine load curves before locating dominating-node changes.
std::vector<double> moving_average(std::span<const double> xs,
                                   std::size_t half_window);

}  // namespace massf
