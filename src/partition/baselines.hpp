// Baseline partitioners the paper's related work relies on.
//
// These exist to quantify what the multilevel partitioner buys
// (bench_ablations section A3) and to model the "simple hierarchical" and
// Netbed-style approaches §1 and §5 mention:
//  * random        — uniform random block per vertex (with occupancy fix-up);
//  * bfs_hierarchical — BFS order from a pseudo-peripheral vertex chopped
//    into contiguous weight-balanced chunks (the "simple hierarchical graph
//    partitioner" used by several emulators);
//  * greedy_kcluster — Netbed/ModelNet-style: k random cluster seeds, links
//    greedily claimed round-robin from each cluster's frontier.
#pragma once

#include <cstdint>

#include "partition/partition.hpp"

namespace massf::partition {

/// Uniform random assignment; guarantees no block is empty when
/// graph.vertex_count() >= parts.
Assignment partition_random(const graph::Graph& graph, int parts,
                            std::uint64_t seed);

/// BFS from a pseudo-peripheral vertex; the order is cut into `parts`
/// contiguous chunks of roughly equal constraint-0 weight.
Assignment partition_bfs_hierarchical(const graph::Graph& graph, int parts,
                                      std::uint64_t seed);

/// Greedy k-cluster growth: k distinct random seeds, then in round-robin
/// fashion each cluster claims the heaviest frontier edge's far endpoint.
/// Unreached vertices (disconnected graphs) join the lightest cluster.
Assignment partition_greedy_kcluster(const graph::Graph& graph, int parts,
                                     std::uint64_t seed);

}  // namespace massf::partition
