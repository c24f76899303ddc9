// When is a live migration worth it? (system S16, DESIGN.md §10)
//
// Two gates, mirroring Kurve et al.'s observation that naive reactive
// migration thrashes:
//   1. should_consider() — cheap: the imbalance trigger with hysteresis
//      (several consecutive over-threshold windows) and a cooldown after
//      each migration. Only when this passes does the controller pay for
//      an incremental repartition.
//   2. accept() — the cost model on the concrete proposal: projected
//      imbalance win (converted to saved engine-seconds over the remaining
//      run) against migration volume and the synchronization cost of a
//      tighter post-migration lookahead.
#pragma once

#include <limits>

#include "des/kernel.hpp"

namespace massf::rebalance {

using des::SimTime;

struct PolicyConfig {
  /// Consider rebalancing when max/mean engine load exceeds 1 + trigger.
  double trigger = 0.25;
  /// Consecutive over-threshold samples required before acting (hysteresis
  /// against transient spikes).
  int hysteresis = 2;
  /// Sim-time to wait after a migration before considering another.
  double cooldown_s = 5.0;
  /// accept() requires benefit - cost > min_gain_s (modeled seconds).
  double min_gain_s = 0.0;
  /// Modeled wall seconds to move one byte of serialized LP state.
  double cost_per_byte_s = 1e-8;
  /// Modeled wall seconds to process one kernel event (converts saved
  /// events into saved time).
  double per_event_s = 1e-7;
  /// Modeled wall seconds per synchronization window (lookahead loss term).
  double per_window_sync_s = 5e-6;
  /// Reject proposals moving more than this many nodes (0 = unlimited): a
  /// cap on single-safepoint disruption.
  int max_nodes = 0;
};

/// Inputs to the accept() cost model. Imbalances are max/mean of the
/// per-engine load projected from *observed node rates* under the current
/// vs proposed assignment (same units on both sides of the comparison).
struct CostBenefit {
  double current_imbalance = 1.0;
  double projected_imbalance = 1.0;
  /// Total observed kernel event rate (events per sim second).
  double observed_event_rate = 0;
  /// Sim time left until the run's horizon.
  double remaining_s = 0;
  double migration_bytes = 0;
  double lookahead_before = 0;
  double lookahead_after = 0;
  int nodes_moved = 0;
};

class RebalancePolicy {
 public:
  explicit RebalancePolicy(PolicyConfig config = {});

  const PolicyConfig& config() const { return config_; }

  /// Gate 1: trigger threshold + hysteresis + cooldown. Stateful — call
  /// exactly once per monitoring sample.
  bool should_consider(double imbalance, SimTime now);

  /// Gate 2: the cost model (stateless; see CostBenefit).
  bool accept(const CostBenefit& cb) const;

  /// Benefit minus cost in modeled seconds (what accept() compares against
  /// min_gain_s); exposed for benches and tests.
  double net_gain_s(const CostBenefit& cb) const;

  /// Record an executed migration at sim time `now` (starts the cooldown,
  /// resets the hysteresis streak).
  void on_migrated(SimTime now);

  int streak() const { return streak_; }

  /// Checkpoint support: the hysteresis/cooldown state a restored run needs
  /// to reproduce the uninterrupted run's gate-1 decisions.
  double last_migration() const { return last_migration_; }
  void restore_state(int streak, double last_migration) {
    streak_ = streak;
    last_migration_ = last_migration;
  }

 private:
  PolicyConfig config_;
  int streak_ = 0;
  double last_migration_ = -std::numeric_limits<double>::infinity();
};

}  // namespace massf::rebalance
