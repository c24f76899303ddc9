#include "core/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

#include "core/weights.hpp"
#include "emu/icmp.hpp"
#include "partition/refine.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace massf::mapping {

const char* approach_name(Approach approach) {
  switch (approach) {
    case Approach::Top: return "TOP";
    case Approach::Place: return "PLACE";
    case Approach::Profile: return "PROFILE";
    case Approach::Adaptive: return "ADAPTIVE";
  }
  return "?";
}

Mapper::Mapper(const Network& network, const routing::RoutingView& routes)
    : network_(network), routes_(routes), structure_(network.to_graph()) {}

namespace {

/// Lexicographic quality of a mapping: larger lookahead (bucketed to 0.1 ms
/// so ties are meaningful) beats better balance beats lower cut traffic.
/// This encodes the paper's default objective priority (latency first).
bool better_mapping(const MappingResult& a, const MappingResult& b) {
  // A grossly worse balance is never worth a lookahead win: load imbalance
  // is the quantity being optimized in the first place.
  if (std::abs(a.worst_balance - b.worst_balance) > 0.15)
    return a.worst_balance < b.worst_balance;
  const auto bucket = [](double lookahead) {
    return static_cast<long long>(lookahead / 1e-4);
  };
  if (bucket(a.lookahead) != bucket(b.lookahead))
    return bucket(a.lookahead) > bucket(b.lookahead);
  if (std::abs(a.worst_balance - b.worst_balance) > 1e-9)
    return a.worst_balance < b.worst_balance;
  return a.traffic_cut < b.traffic_cut;
}

/// Runs `trials` (at least one) seeded partitioning trials in parallel, each
/// into its own slot, and keeps the best in trial order: the mapping the
/// sequential loop would keep, whatever the worker count. Trial t partitions
/// with seed mix_seed(base.seed, salt + t).
template <typename Trial>
MappingResult best_of_trials(const partition::PartitionOptions& base,
                             int trials, std::uint64_t salt,
                             const Trial& trial) {
  std::vector<MappingResult> candidates(
      static_cast<std::size_t>(std::max(1, trials)));
  util::parallel_for(candidates.size(), [&](std::size_t, std::size_t t) {
    partition::PartitionOptions popts = base;
    popts.seed = mix_seed(base.seed, salt + t);
    candidates[t] = trial(popts);
  });
  std::size_t best = 0;
  for (std::size_t t = 1; t < candidates.size(); ++t)
    if (better_mapping(candidates[t], candidates[best])) best = t;
  return std::move(candidates[best]);
}

/// Per-constraint tolerances for a mapping graph with `segments` segment
/// constraints and (optionally) a trailing memory constraint.
///
/// * computation: the configured epsilon — the primary balance target;
/// * time segments: looser (they are refinement hints; over-constraining
///   them wrecks the primary balance);
/// * memory: epsilon / memory_priority, clamped — the paper's §5 knob:
///   small priority = plenty of RAM = loose memory balance, large priority
///   = memory bottleneck = tight.
std::vector<double> constraint_epsilons(const MappingOptions& options,
                                        int segments) {
  std::vector<double> epsilons;
  epsilons.push_back(options.partition.epsilon);
  const double segment_eps = std::max(0.25, 2.0 * options.partition.epsilon);
  for (int s = 0; s < segments; ++s) epsilons.push_back(segment_eps);
  if (options.memory_priority > 0) {
    const double memory_eps =
        std::clamp(options.partition.epsilon /
                       std::max(options.memory_priority, 1e-3),
                   0.02, 4.0);
    epsilons.push_back(memory_eps);
  }
  return epsilons;
}

}  // namespace

MappingResult Mapper::finish(Approach approach,
                             partition::PartitionResult result,
                             const MappingOptions& options,
                             const std::vector<double>* link_load,
                             int segments_used) const {
  MappingResult out;
  out.approach = approach;
  out.engines = options.engines;
  out.node_engine = std::move(result.assignment);
  out.worst_balance = result.worst_balance;
  out.segments_used = segments_used;

  // Structure cut (links crossing engines), achieved lookahead, and the
  // per-engine-pair cut minima that become channel lookaheads.
  const topology::CutLatency cut =
      topology::cut_latency(network_, out.node_engine, out.engines);
  out.links_cut = cut.links;
  out.lookahead = std::isfinite(cut.min) ? cut.min
                                         : network_.min_link_latency();
  for (int a = 0; a < out.engines; ++a)
    for (int b = a + 1; b < out.engines; ++b)
      if (std::isfinite(cut.between(a, b)))
        out.pair_lookaheads.push_back({a, b, cut.between(a, b)});
  if (link_load != nullptr)
    for (topology::LinkId l = 0; l < network_.link_count(); ++l) {
      const topology::Link& link = network_.link(l);
      if (out.node_engine[static_cast<std::size_t>(link.a)] !=
          out.node_engine[static_cast<std::size_t>(link.b)])
        out.traffic_cut += (*link_load)[static_cast<std::size_t>(l)];
    }
  return out;
}

MappingResult Mapper::map_top(const MappingOptions& options) const {
  MASSF_REQUIRE(options.engines >= 1, "need at least one engine");
  partition::PartitionOptions popts = options.partition;
  popts.parts = options.engines;

  const std::vector<double> compute = bandwidth_weights(network_);
  const std::vector<double> latency =
      latency_arc_weights(network_, structure_);
  const graph::Graph g = build_mapping_graph(
      network_, structure_, compute, {}, options.memory_priority, latency);
  popts.epsilon_per_constraint = constraint_epsilons(options, 0);

  return best_of_trials(
      popts, options.trials, 0x70AD,
      [&](const partition::PartitionOptions& trial_opts) {
        return finish(Approach::Top,
                      partition::partition_multilevel(g, trial_opts), options,
                      nullptr, 0);
      });
}

std::vector<routing::Flow> Mapper::foreground_flows(
    const std::vector<NodeId>& injection_points, double mtu_bytes,
    double utilization) const {
  MASSF_REQUIRE(utilization > 0 && utilization <= 1.0,
                "foreground utilization must be in (0, 1]");
  std::vector<routing::Flow> flows;
  if (injection_points.size() < 2) return flows;
  const double peers = static_cast<double>(injection_points.size() - 1);
  for (NodeId src : injection_points) {
    // "Fully utilizes the network link at each injection point" (scaled by
    // the configured utilization): the access link's bandwidth converted
    // to packets/s, split evenly across peers.
    const double access_pps = utilization *
        network_.total_incident_bandwidth(src) / 8.0 / mtu_bytes;
    for (NodeId dst : injection_points) {
      if (src == dst) continue;
      flows.push_back({src, dst, access_pps / peers});
    }
  }
  return flows;
}

routing::AggregatedLoad Mapper::aggregate_via_traceroute(
    const std::vector<routing::Flow>& flows) const {
  routing::AggregatedLoad out;
  out.link_load.assign(static_cast<std::size_t>(network_.link_count()), 0.0);
  out.node_load.assign(static_cast<std::size_t>(network_.node_count()), 0.0);

  // Representative endpoint per subnetwork (paper: "use one representative
  // endpoint for each sub-network and only discover the route paths between
  // those sub-network representatives"): a host is represented by its
  // access router; a router represents itself.
  auto representative = [&](NodeId node) -> NodeId {
    if (network_.node(node).kind == topology::NodeKind::Router) return node;
    const auto& links = network_.incident_links(node);
    MASSF_CHECK(!links.empty(), "host without access link");
    return network_.link_other_end(links.front(), node);
  };

  // Unique representative pairs to discover.
  std::map<std::pair<NodeId, NodeId>, std::size_t> pair_index;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const routing::Flow& flow : flows) {
    if (flow.src == flow.dst || flow.volume <= 0) continue;
    const NodeId a = representative(flow.src);
    const NodeId b = representative(flow.dst);
    if (a == b) continue;
    if (pair_index.emplace(std::make_pair(a, b), pairs.size()).second)
      pairs.emplace_back(a, b);
  }
  MASSF_LOG_DEBUG << "PLACE traceroute: discovering " << pairs.size()
                  << " representative routes";
  const std::vector<emu::DiscoveredRoute> discovered =
      emu::discover_routes(network_, routes_, pairs);

  // One path buffer reused across every flow: this loop routes O(flows)
  // times and a fresh vector per flow dominated its allocation profile.
  std::vector<NodeId> path;
  for (const routing::Flow& flow : flows) {
    if (flow.src == flow.dst || flow.volume <= 0) continue;
    const NodeId a = representative(flow.src);
    const NodeId b = representative(flow.dst);

    // Assemble the full node path: src [+ access hop] + router path [+
    // access hop] + dst.
    path.clear();
    path.push_back(flow.src);
    if (a != flow.src) path.push_back(a);
    if (a != b) {
      const emu::DiscoveredRoute& core = discovered[pair_index.at({a, b})];
      if (core.empty()) {
        // Traceroute failed (should not happen on connected networks);
        // fall back to the routing tables for this flow.
        routes_.route_into(flow.src, flow.dst, path);
      } else {
        for (std::size_t i = 1; i + 1 < core.size(); ++i)
          path.push_back(core[i]);
        path.push_back(b);
      }
    }
    if (path.back() != flow.dst) path.push_back(flow.dst);

    // Accumulate on nodes and links along the path.
    out.node_load[static_cast<std::size_t>(path.front())] += flow.volume;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto link = network_.find_link(path[i], path[i + 1]);
      MASSF_CHECK(link.has_value(), "discovered path uses a missing link");
      out.link_load[static_cast<std::size_t>(*link)] += flow.volume;
      out.node_load[static_cast<std::size_t>(path[i + 1])] += flow.volume;
    }
  }
  return out;
}

TrafficEstimate Mapper::estimate_place(const traffic::Workload& workload,
                                       const MappingOptions& options) const {
  std::vector<routing::Flow> flows = workload.predicted_background(network_);
  const std::vector<routing::Flow> foreground =
      foreground_flows(workload.injection_points(), options.mtu_bytes,
                       options.foreground_utilization);
  flows.insert(flows.end(), foreground.begin(), foreground.end());

  const routing::AggregatedLoad load = aggregate_via_traceroute(flows);
  TrafficEstimate estimate;
  estimate.link_load = load.link_load;
  estimate.node_load = load.node_load;
  return estimate;
}

TrafficEstimate Mapper::estimate_profile(
    const emu::NetFlowCollector& profile,
    const std::vector<std::vector<double>>& engine_series,
    const MappingOptions& options) const {
  TrafficEstimate estimate;
  estimate.link_load = profile.link_packets();
  estimate.node_load = profile.node_packets();
  MASSF_REQUIRE(estimate.node_load.size() ==
                    static_cast<std::size_t>(network_.node_count()),
                "profile does not match the network");

  if (options.use_segments && !engine_series.empty()) {
    const std::vector<Segment> segments =
        cluster_segments(engine_series, options.cluster);
    if (segments.size() > 1) {
      estimate.node_segment_load =
          segment_node_weights(profile.node_series(), segments);
    }
  }
  return estimate;
}

MappingResult Mapper::map_place(const traffic::Workload& workload,
                                const MappingOptions& options) const {
  MASSF_REQUIRE(options.engines >= 1, "need at least one engine");
  return map_estimate(Approach::Place, estimate_place(workload, options),
                      options, 0x97ACE);
}

MappingResult Mapper::map_profile(
    const emu::NetFlowCollector& profile,
    const std::vector<std::vector<double>>& engine_series,
    const MappingOptions& options) const {
  MASSF_REQUIRE(options.engines >= 1, "need at least one engine");
  return map_estimate(Approach::Profile,
                      estimate_profile(profile, engine_series, options),
                      options, 0x9120F17E);
}

MappingResult Mapper::map_estimate(Approach approach,
                                   const TrafficEstimate& estimate,
                                   const MappingOptions& options,
                                   std::uint64_t salt) const {
  partition::PartitionOptions popts = options.partition;
  popts.parts = options.engines;
  const int segments = static_cast<int>(estimate.node_segment_load.size());
  const graph::Graph g = build_mapping_graph(
      network_, structure_, estimate.node_load, estimate.node_segment_load,
      options.memory_priority, latency_arc_weights(network_, structure_));
  popts.epsilon_per_constraint = constraint_epsilons(options, segments);

  const partition::ObjectiveWeights objectives =
      make_objectives(network_, structure_, estimate.link_load);
  return best_of_trials(
      popts, options.trials, salt,
      [&](const partition::PartitionOptions& trial_opts) {
        return finish(approach,
                      partition::partition_multiobjective(
                          g, objectives, options.latency_priority, trial_opts)
                          .partition,
                      options, &estimate.link_load, segments);
      });
}

MappingResult Mapper::map_incremental(const partition::Assignment& current,
                                      const std::vector<double>& node_load,
                                      const std::vector<double>& link_load,
                                      const MappingOptions& options) const {
  MASSF_REQUIRE(options.engines >= 1, "need at least one engine");
  MASSF_REQUIRE(current.size() ==
                    static_cast<std::size_t>(network_.node_count()),
                "current assignment does not match the network");
  MASSF_REQUIRE(node_load.size() == current.size(),
                "node_load does not match the network");
  MASSF_REQUIRE(link_load.size() ==
                    static_cast<std::size_t>(network_.link_count()),
                "link_load does not match the network");

  // Observed per-node load is the computation weight. A window that saw no
  // traffic at all carries no balance signal — fall back to TOP's static
  // bandwidth weights rather than refining against all-zero constraints.
  const bool observed_any =
      std::any_of(node_load.begin(), node_load.end(),
                  [](double w) { return w > 0; });
  const std::vector<double> compute =
      observed_any ? node_load : bandwidth_weights(network_);

  const partition::ObjectiveWeights objectives =
      make_objectives(network_, structure_, link_load);
  // Normalize each objective by the current assignment's own cut: mid-run
  // there is no single-objective optimum to normalize by (computing one
  // would cost a full partition), and the live cuts keep both objectives
  // dimensionless relative to where refinement starts.
  const double latency_cut = partition::edge_cut(
      structure_.with_arc_weights(objectives.latency), current);
  const double traffic_cut = partition::edge_cut(
      structure_.with_arc_weights(objectives.traffic), current);
  const std::vector<double> combined = partition::combine_objectives(
      objectives, latency_cut, traffic_cut, options.latency_priority);

  const graph::Graph g = build_mapping_graph(
      network_, structure_, compute, {}, options.memory_priority, combined);
  partition::PartitionOptions popts = options.partition;
  popts.parts = options.engines;
  popts.epsilon_per_constraint = constraint_epsilons(options, 0);
  popts.seed = mix_seed(options.partition.seed, 0xADA7);

  partition::PartitionResult result = partition::refine_from(g, current, popts);
  return finish(Approach::Adaptive, std::move(result), options, &link_load, 0);
}

}  // namespace massf::mapping
