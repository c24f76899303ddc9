// The three network-mapping approaches (paper §3) — the core contribution.
//
//   TOP     — topology only: vertex weight = total incident bandwidth,
//             single objective = maximize cross-partition latency.
//   PLACE   — TOP + traffic prediction: background-generator predictions
//             plus the injection-point heuristic ("the application fully
//             utilizes the network link at each injection point and every
//             node talks to all other nodes with evenly distributed
//             bandwidth"), routed over paths discovered by emulated
//             traceroute; multi-objective (latency + traffic) partitioning.
//   PROFILE — NetFlow measurements from a profiling run; optional segment
//             clustering turns the run's phases into extra balance
//             constraints (multi-constraint partitioning).
#pragma once

#include <cstdint>
#include <memory>

#include "core/cluster.hpp"
#include "core/traffic_estimate.hpp"
#include "emu/netflow.hpp"
#include "partition/multiobjective.hpp"
#include "partition/partition.hpp"
#include "routing/routing.hpp"
#include "traffic/workload.hpp"

namespace massf::mapping {

enum class Approach { Top, Place, Profile, Adaptive };

const char* approach_name(Approach approach);

struct MappingOptions {
  /// Number of simulation engine nodes (partition blocks).
  int engines = 2;
  /// Latency-vs-traffic priority p (paper default 6:4 → 0.6).
  double latency_priority = 0.6;
  /// Scale of the memory constraint (0 disables it). The paper keeps the
  /// memory weight small unless memory is a bottleneck (§5).
  double memory_priority = 0.05;
  /// Partitioner tuning; `parts` is overridden by `engines`.
  partition::PartitionOptions partition{};
  /// Independent partitioning trials (different seeds); the best mapping
  /// wins, judged lexicographically by (lookahead bucket, balance, cut
  /// traffic) — objective 1 first, matching the paper's default priority.
  int trials = 4;
  /// PROFILE segment clustering (multi-constraint partitioning).
  bool use_segments = true;
  ClusterOptions cluster{};
  /// MTU used to convert predicted bandwidth to packets/s.
  double mtu_bytes = 1500;
  /// PLACE's injection-point heuristic assumes each foreground host drives
  /// its access link at this utilization (1.0 = the paper's literal "fully
  /// utilizes the network link"). Bursty applications average well below
  /// saturation; calibrating this down weighs the foreground estimate more
  /// realistically against the predicted background.
  double foreground_utilization = 1.0;
};

/// Minimum cut-link latency between one unordered engine pair (a < b): the
/// conservative lookahead of the kernel channels joining those engines
/// under SyncMode::ChannelLookahead. The spread of these values across
/// pairs is what per-channel synchronization exploits — and what the
/// paper's latency objective (maximize cross-partition latency) improves.
struct EnginePairLookahead {
  int a = 0;
  int b = 0;
  double lookahead = 0;
};

struct MappingResult {
  Approach approach = Approach::Top;
  partition::Assignment node_engine;
  int engines = 0;
  /// Structure edge cut (number of virtual links crossing engines).
  double links_cut = 0;
  /// Estimated traffic (pps) crossing engines under the approach's own
  /// estimate (0 for TOP, which has none).
  double traffic_cut = 0;
  /// Worst multi-constraint balance ratio reported by the partitioner.
  double worst_balance = 0;
  /// Conservative lookahead this mapping yields (min cross-engine link
  /// latency; the full min link latency if nothing crosses).
  double lookahead = 0;
  /// Per-engine-pair cut lookaheads, ascending (a, b); empty when no link
  /// crosses engines.
  std::vector<EnginePairLookahead> pair_lookaheads;
  /// PROFILE: number of time segments used as extra constraints.
  int segments_used = 0;
};

class Mapper {
 public:
  Mapper(const Network& network, const routing::RoutingView& routes);

  const Network& network() const { return network_; }

  MappingResult map_top(const MappingOptions& options) const;

  MappingResult map_place(const traffic::Workload& workload,
                          const MappingOptions& options) const;

  /// `profile` is the NetFlow collection of a profiling run and
  /// `engine_series` that run's per-engine load curves (for clustering).
  MappingResult map_profile(const emu::NetFlowCollector& profile,
                            const std::vector<std::vector<double>>&
                                engine_series,
                            const MappingOptions& options) const;

  /// ADAPTIVE — incremental re-mapping from a *live* partition using
  /// *observed* loads (packets per node / per link over the monitoring
  /// window). Unlike map_top/map_place/map_profile this does not partition
  /// from scratch: the current assignment seeds
  /// partition::refine_from(), so migration volume stays proportional to
  /// the load drift (Schloegel–Karypis adaptive repartitioning). Objectives
  /// are the same latency/traffic combination, but normalized by the
  /// current assignment's own cuts — mid-run there is no "single-objective
  /// optimum" to normalize by. When every node load is zero (nothing
  /// observed yet) the TOP bandwidth weights stand in so refinement still
  /// has a balance signal. `current` must have one entry per network node,
  /// `node_load` likewise, `link_load` one per link.
  MappingResult map_incremental(const partition::Assignment& current,
                                const std::vector<double>& node_load,
                                const std::vector<double>& link_load,
                                const MappingOptions& options) const;

  // -- building blocks (exposed for tests and ablations) -----------------

  /// PLACE's traffic estimate: predicted background + injection-point
  /// foreground, aggregated over routes discovered by emulated traceroute
  /// between subnet representatives (paper §3.2).
  TrafficEstimate estimate_place(const traffic::Workload& workload,
                                 const MappingOptions& options) const;

  /// PROFILE's traffic estimate (with segment weights if enabled).
  TrafficEstimate estimate_profile(const emu::NetFlowCollector& profile,
                                   const std::vector<std::vector<double>>&
                                       engine_series,
                                   const MappingOptions& options) const;

  /// The injection-point foreground heuristic by itself.
  std::vector<routing::Flow> foreground_flows(
      const std::vector<NodeId>& injection_points, double mtu_bytes,
      double utilization = 1.0) const;

 private:
  MappingResult finish(Approach approach, partition::PartitionResult result,
                       const MappingOptions& options,
                       const std::vector<double>* link_load,
                       int segments_used) const;

  /// PLACE and PROFILE after their estimates: partition the estimate's
  /// mapping graph (its segment loads as extra constraints) against the
  /// latency and traffic objectives, best of options.trials trials seeded
  /// from `salt`.
  MappingResult map_estimate(Approach approach,
                             const TrafficEstimate& estimate,
                             const MappingOptions& options,
                             std::uint64_t salt) const;

  /// Aggregate flows over routes discovered with emulated traceroute
  /// between subnet representatives.
  routing::AggregatedLoad aggregate_via_traceroute(
      const std::vector<routing::Flow>& flows) const;

  const Network& network_;
  const routing::RoutingView& routes_;
  graph::Graph structure_;
};

}  // namespace massf::mapping
