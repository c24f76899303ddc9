// The adaptive-rebalance controller: monitor → policy → incremental
// repartition → live migration (system S16, DESIGN.md §10).
//
// The controller closes the loop the paper leaves open: the static
// TOP/PLACE/PROFILE mapping is only as good as its forecast, so at
// periodic global safepoints the controller samples *observed* load,
// asks the policy whether the imbalance is worth acting on, re-runs the
// partitioner incrementally from the live assignment (refine_from, so
// migration volume tracks the drift), and — if the cost model agrees —
// migrates nodes between engines mid-run.
//
// Determinism contract: every input to a rebalance decision (safepoint
// times, sampled counters, partitioner seed) is identical across
// Sequential and Threaded execution, so the decisions, the migrations, and
// therefore history_hash are bit-identical for a fixed configuration.
#pragma once

#include <vector>

#include "core/mapper.hpp"
#include "rebalance/monitor.hpp"
#include "rebalance/policy.hpp"

namespace massf::rebalance {

struct RebalanceConfig {
  /// First safepoint (sim seconds); needs one monitoring window of history
  /// before anything can trigger anyway.
  double start_s = 5.0;
  /// Safepoint spacing (also the monitor's sampling period).
  double period_s = 5.0;
  /// Monitor window (rates are computed over this much history).
  double window_s = 10.0;
  PolicyConfig policy{};
  /// Partitioner knobs for the incremental re-map (engines is overridden
  /// by the emulator's engine count).
  mapping::MappingOptions mapping{};
};

/// One safepoint's outcome (recorded whether or not anything migrated).
struct RebalanceDecision {
  SimTime t = 0;
  /// Trigger metric at this safepoint (max/mean engine event rates).
  double imbalance = 1.0;
  /// Node-rate-projected imbalance under the current / proposed
  /// assignment (0 when no proposal was computed).
  double projected_before = 0;
  double projected_after = 0;
  double migration_bytes = 0;
  int nodes_moved = 0;
  bool migrated = false;
};

class Controller {
 public:
  Controller(const topology::Network& network,
             const routing::RoutingView& routes,
             RebalanceConfig config = {});

  /// Wire this controller into an emulator run that will end at `horizon`:
  /// registers the periodic safepoints and installs the rebalance hook.
  /// Call after construction of the emulator and before run(). Resets all
  /// monitor/policy/decision state, so one controller is reusable across
  /// runs. The emulator must live at least as long as its run (the hook
  /// holds a reference).
  void install(emu::Emulator& emulator, SimTime horizon);

  const LoadMonitor& monitor() const { return monitor_; }
  const std::vector<RebalanceDecision>& decisions() const {
    return decisions_;
  }

  /// Checkpoint support: serialize / restore the controller's mutable state
  /// (monitor window, policy hysteresis/cooldown, decision log). Designed
  /// for CheckpointConfig::save_extra / Emulator::restore's load_extra, so
  /// a supervised run's rebalance decisions survive a crash bit-identically.
  void save_state(ckpt::Writer& w) const;
  void load_state(ckpt::Reader& r);

 private:
  /// The field list shared by save_state and load_state.
  template <class Io, class Self>
  static void serialize(Io& io, Self& self);

  void on_safepoint(emu::Emulator& emulator, SimTime t, SimTime horizon);

  /// Sum per-node rates into per-engine loads under an assignment.
  static std::vector<double> project_loads(
      const std::vector<double>& node_rates,
      const std::vector<int>& assignment, int engines);

  mapping::Mapper mapper_;
  RebalanceConfig config_;
  LoadMonitor monitor_;
  RebalancePolicy policy_;
  std::vector<RebalanceDecision> decisions_;
};

}  // namespace massf::rebalance
