// Public types for the graph-partitioning subsystem.
//
// The partitioner is a from-scratch multilevel k-way implementation in the
// style of METIS (coarsen by heavy-edge matching, partition the coarsest
// graph by recursive bisection with greedy growing, project back with
// boundary refinement). It supports the two capabilities the paper depends
// on: multiple balance constraints per vertex (computation + memory, or one
// constraint per PROFILE time segment) and — via
// partition::combine_objectives — the Schloegel–Karypis–Kumar
// multi-objective edge-weight combination.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace massf::partition {

/// part[v] = block id in [0, k) for every vertex v.
using Assignment = std::vector<int>;

/// Coarsening stops when the graph has at most max(kCoarsenTo, 20*parts)
/// vertices.
constexpr int kCoarsenTo = 120;
/// Maximum boundary-refinement passes per uncoarsening level.
constexpr int kRefinePasses = 8;
/// Independent initial-partitioning trials at the coarsest level; the best
/// cut wins.
constexpr int kInitialTrials = 8;

/// Tuning knobs for the multilevel partitioner. Defaults are sensible for
/// the network graphs in this repository (tens to thousands of vertices).
struct PartitionOptions {
  /// Number of blocks (simulation engine nodes). Must be >= 1.
  int parts = 2;
  /// Balance tolerance: max block weight may not exceed
  /// (1 + epsilon) * total/parts. METIS's default is ~3%; network graphs
  /// are lumpy, so we default a little looser.
  double epsilon = 0.05;
  /// Optional per-constraint tolerances overriding `epsilon` (size must be
  /// the graph's constraint count when non-empty). Lets soft constraints
  /// (memory when RAM is plentiful, PROFILE time segments) be balanced
  /// loosely without relaxing the computation constraint.
  std::vector<double> epsilon_per_constraint;
  /// Master seed; the partitioner is deterministic given the seed.
  std::uint64_t seed = 1;
};

/// Outcome of a partitioning run.
struct PartitionResult {
  Assignment assignment;
  /// Total weight of cut edges under the graph's arc weights.
  double edge_cut = 0;
  /// Worst balance ratio over all constraints:
  /// max_{c,p} W(p,c) / (total_c / parts). 1.0 is perfect.
  double worst_balance = 0;
};

/// Multilevel k-way partitioning (the main entry point).
/// Requires graph.vertex_count() >= options.parts.
PartitionResult partition_multilevel(const graph::Graph& graph,
                                     const PartitionOptions& options);

/// Coarsen-once partitioning for domain-tagged graphs (million-node scale):
/// collapse each domain (`domain_of[v]`, dense ids as produced by
/// topology::Network::domain_of_nodes) to one quotient vertex — splitting
/// oversized domains into bounded-weight connected chunks first — then run
/// the multilevel partitioner on the quotient and place whole chunks. The
/// multilevel machinery never sees more vertices than domains + split
/// chunks, so wall time and memory scale with the domain structure rather
/// than with n. Falls back to partition_multilevel when the graph carries
/// no usable domain structure (one domain, or fewer groups than parts).
/// Reported edge_cut / worst_balance are measured on the original graph.
PartitionResult partition_hierarchical(const graph::Graph& graph,
                                       const std::vector<int>& domain_of,
                                       const PartitionOptions& options);

// ---------------------------------------------------------------------------
// Quality metrics (shared by the partitioner, tests and benches).
// ---------------------------------------------------------------------------

/// Sum of arc weights crossing blocks (each undirected edge counted once).
double edge_cut(const graph::Graph& graph, const Assignment& assignment);

/// Block weights for one constraint: result[p] = sum of vertex weight c in p.
std::vector<double> block_weights(const graph::Graph& graph,
                                  const Assignment& assignment, int parts,
                                  int constraint);

/// max_p W(p,c) / (total_c/parts) for constraint c; 0 if total_c == 0.
double balance_ratio(const graph::Graph& graph, const Assignment& assignment,
                     int parts, int constraint);

/// Worst balance_ratio over all constraints.
double worst_balance_ratio(const graph::Graph& graph,
                           const Assignment& assignment, int parts);

/// Throw std::invalid_argument unless the assignment is complete (every
/// vertex has a block in [0, parts)).
void validate_assignment(const graph::Graph& graph,
                         const Assignment& assignment, int parts);

}  // namespace massf::partition
