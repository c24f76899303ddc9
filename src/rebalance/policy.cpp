#include "rebalance/policy.hpp"

#include "util/error.hpp"

namespace massf::rebalance {

RebalancePolicy::RebalancePolicy(PolicyConfig config) : config_(config) {
  MASSF_REQUIRE(config_.trigger >= 0, "trigger must be non-negative");
  MASSF_REQUIRE(config_.hysteresis >= 1, "hysteresis must be >= 1");
  MASSF_REQUIRE(config_.cooldown_s >= 0, "cooldown must be non-negative");
}

bool RebalancePolicy::should_consider(double imbalance, SimTime now) {
  if (now - last_migration_ < config_.cooldown_s) {
    streak_ = 0;
    return false;
  }
  if (imbalance > 1.0 + config_.trigger)
    ++streak_;
  else
    streak_ = 0;
  return streak_ >= config_.hysteresis;
}

double RebalancePolicy::net_gain_s(const CostBenefit& cb) const {
  // Benefit: the imbalance drop is the fraction of the busiest engine's
  // work that stops bottlenecking the run — converted to modeled seconds
  // over the remaining horizon via the observed event rate.
  const double gain = cb.current_imbalance - cb.projected_imbalance;
  const double benefit_s = gain * cb.observed_event_rate * cb.remaining_s *
                           config_.per_event_s;

  // Cost: moving the serialized LP state, plus the extra synchronization
  // windows a tighter lookahead forces for the rest of the run (negative —
  // a credit — when the new cut *improves* lookahead).
  double cost_s = cb.migration_bytes * config_.cost_per_byte_s;
  if (cb.lookahead_before > 0 && cb.lookahead_after > 0) {
    cost_s += cb.remaining_s *
              (1.0 / cb.lookahead_after - 1.0 / cb.lookahead_before) *
              config_.per_window_sync_s;
  }
  return benefit_s - cost_s;
}

bool RebalancePolicy::accept(const CostBenefit& cb) const {
  if (cb.nodes_moved <= 0) return false;
  if (config_.max_nodes > 0 && cb.nodes_moved > config_.max_nodes)
    return false;
  if (cb.projected_imbalance >= cb.current_imbalance) return false;
  return net_gain_s(cb) > config_.min_gain_s;
}

void RebalancePolicy::on_migrated(SimTime now) {
  last_migration_ = now;
  streak_ = 0;
}

}  // namespace massf::rebalance
