// Online load monitoring for adaptive re-mapping (system S16, DESIGN.md
// §10).
//
// The LoadMonitor turns the emulator's cumulative counters — per-engine
// kernel event counts (the paper's load metric) and NetFlow's per-node /
// per-link packet counts — into *rates over a sliding window*. Sampling is
// O(nodes + links) reads of existing counters at each rebalance safepoint;
// no extra bookkeeping runs on the event hot path, so monitoring overhead
// is bounded by the safepoint frequency, not the event rate.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "des/kernel.hpp"

namespace massf::emu {
class Emulator;
}

namespace massf::rebalance {

using des::SimTime;

/// One snapshot of the emulator's cumulative counters.
struct LoadSample {
  SimTime t = 0;
  std::vector<double> engine_events;  ///< cumulative kernel events per LP
  std::vector<double> node_packets;   ///< cumulative NetFlow node packets
  std::vector<double> link_packets;   ///< cumulative NetFlow link packets
};

class LoadMonitor {
 public:
  /// `window_s` — how much history the rate computation looks back over.
  /// Rates are differences between the newest and the oldest *retained*
  /// sample; at least two samples are always kept so one slow period
  /// cannot blind the monitor.
  explicit LoadMonitor(double window_s = 10.0);

  /// Drop all history (reusing the monitor for a new run).
  void reset(double window_s);

  /// Snapshot the emulator's counters at sim time `t`. Must be called with
  /// the engines quiescent (i.e. from a rebalance safepoint hook) — the
  /// counters are per-engine slots that are not synchronized mid-window.
  void sample(const emu::Emulator& emulator, SimTime t);

  std::size_t samples() const { return history_.size(); }

  /// Per-engine kernel event rates (events/s) over the window; empty
  /// before two samples exist.
  std::vector<double> engine_rates() const;
  /// Per-node packet rates (packets/s); empty without NetFlow or before
  /// two samples.
  std::vector<double> node_rates() const;
  /// Per-link packet rates (packets/s); same availability as node_rates().
  std::vector<double> link_rates() const;

  /// max/mean of engine_rates() — the trigger metric (1.0 = balanced).
  double imbalance() const;

  /// Total kernel event rate (events/s) over the window.
  double observed_event_rate() const;

  /// Checkpoint support: serialize / restore the sliding sample window so a
  /// restored run's rebalance decisions match the uninterrupted run's.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  /// The field list shared by save and load.
  template <class Io, class Self>
  static void serialize(Io& io, Self& self);

  /// Element-wise (newest - oldest) / dt; empty when under two samples or
  /// the field was never collected.
  std::vector<double> window_rate(
      std::vector<double> LoadSample::* field) const;

  double window_s_;
  std::deque<LoadSample> history_;
};

}  // namespace massf::rebalance
