// Boundary refinement and rebalancing for k-way partitions.
//
// Both routines support multi-constraint vertex weights and non-uniform
// block target fractions (needed by recursive bisection when the block count
// is odd). They are deterministic given the Rng state.
#pragma once

#include <vector>

#include "partition/partition.hpp"
#include "util/rng.hpp"

namespace massf::partition {

/// Greedy k-way boundary refinement (METIS-style hill climbing). Repeatedly
/// moves boundary vertices to the neighboring block with the best positive
/// cut gain, subject to every balance constraint:
///   W(b,c) + w(v,c) <= (1+eps_c) * fractions[b] * total_c,
/// where eps_c is epsilons[c] (or epsilons[0] broadcast to every
/// constraint when epsilons has a single entry). `fractions` has one entry
/// per block and should sum to ~1. Stops after `passes` sweeps or when a
/// sweep makes no move.
void greedy_refine(const graph::Graph& graph, Assignment& assignment,
                   const std::vector<double>& fractions,
                   const std::vector<double>& epsilons, int passes, Rng& rng);

/// Force balance feasibility (best effort): while a block exceeds its limit
/// for some constraint, move the boundary vertex with the least cut damage
/// out of it into the most underloaded feasible block. Never empties a
/// block. Bounded work (at most 4n moves) so it cannot loop forever.
void rebalance(const graph::Graph& graph, Assignment& assignment,
               const std::vector<double>& fractions,
               const std::vector<double>& epsilons, Rng& rng);

/// Uniform fractions vector (1/parts each).
std::vector<double> uniform_fractions(int parts);

/// Incremental repartition: refine an *existing* assignment under (possibly
/// drifted) vertex/arc weights instead of partitioning from scratch. The
/// current partition is the seed — Schloegel & Karypis' adaptive
/// repartitioning insight that when load drifts, a diffusion/boundary-
/// refinement step from the live partition costs a migration volume
/// proportional to the drift, while a fresh multilevel partition would
/// scatter vertices arbitrarily and migrate most of the graph. Runs
/// rebalance() (restore feasibility under the new weights) followed by
/// greedy_refine() (recover cut quality along the new boundary), both
/// seeded deterministically from options.seed. Only `parts`, `epsilon`/
/// `epsilon_per_constraint` and `seed` of the options are used. Returns
/// the refined assignment with its edge cut and worst balance.
PartitionResult refine_from(const graph::Graph& graph, Assignment assignment,
                            const PartitionOptions& options);

}  // namespace massf::partition
