// Vertex and edge weight construction for the network-mapping problem
// (paper §2.2).
//
// Vertices (constraints):
//   * computation — packet-processing work. TOP approximates it by total
//     incident link bandwidth (§3.1); PLACE/PROFILE use the traffic
//     estimate's per-node processing rate.
//   * memory — routing-table footprint: m = 10 + x² for a router in an AS
//     with x routers (the paper's §5 formula), 1 for hosts.
//
// Edges (objectives):
//   * latency objective — cutting a low-latency link must be expensive
//     (small lookahead), so w_lat(e) = min_latency / latency(e), the
//     reciprocal normalization the DaSSF lineage uses. Weights are in
//     (0, 1] with 1 for the tightest link.
//   * traffic objective — estimated packet rate crossing the link.
#pragma once

#include <vector>

#include "core/traffic_estimate.hpp"
#include "graph/graph.hpp"
#include "partition/multiobjective.hpp"

namespace massf::mapping {

/// Memory constraint per node: 10 + x² for routers (x = routers in the
/// node's AS), 1 for hosts.
std::vector<double> memory_weights(const Network& network);

/// TOP's computation weight: total bandwidth in and out of the node,
/// expressed in Mb/s so magnitudes stay comparable with packet rates.
std::vector<double> bandwidth_weights(const Network& network);

/// Latency-objective weights for every arc of `structure` (which must be
/// network.to_graph(): vertex ids == node ids, one edge per link).
std::vector<double> latency_arc_weights(const Network& network,
                                        const graph::Graph& structure);

/// Traffic-objective weights per arc from per-link loads.
std::vector<double> traffic_arc_weights(const Network& network,
                                        const graph::Graph& structure,
                                        const std::vector<double>& link_load);

/// Assemble the partitioning graph for a mapping run:
///   constraint 0            = computation weight (caller-provided),
///   constraints 1..S        = per-segment loads (optional),
///   last constraint         = memory (present iff memory_priority > 0),
/// with the given arc weights installed.
///
/// memory_priority does not scale the memory weights (balance ratios are
/// scale-invariant); it controls whether the constraint exists at all. The
/// paper's computation-vs-memory tradeoff is realized as the memory
/// constraint's *tolerance*, set by the mapper (mapper.cpp).
graph::Graph build_mapping_graph(const Network& network,
                                 const graph::Graph& structure,
                                 const std::vector<double>& compute_weight,
                                 const std::vector<std::vector<double>>&
                                     segment_weights,
                                 double memory_priority,
                                 const std::vector<double>& arc_weights);

/// Both objective arrays for partition::partition_multiobjective.
partition::ObjectiveWeights make_objectives(
    const Network& network, const graph::Graph& structure,
    const std::vector<double>& link_load);

}  // namespace massf::mapping
