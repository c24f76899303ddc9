// Multilevel k-way partitioning driver: coarsen → initial partition →
// project back with rebalance + greedy refinement at every level.
#include <algorithm>

#include "partition/coarsen.hpp"
#include "partition/initial.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"
#include "util/log.hpp"

namespace massf::partition {

using graph::Graph;
using graph::VertexId;

PartitionResult partition_multilevel(const Graph& graph,
                                     const PartitionOptions& options) {
  MASSF_REQUIRE(options.parts >= 1, "parts must be >= 1");
  MASSF_REQUIRE(graph.vertex_count() >= options.parts,
                "graph has fewer vertices (" << graph.vertex_count()
                                             << ") than blocks ("
                                             << options.parts << ")");
  MASSF_REQUIRE(options.epsilon >= 0, "epsilon must be non-negative");

  Rng rng(options.seed);
  PartitionResult result;

  if (options.parts == 1) {
    result.assignment.assign(static_cast<std::size_t>(graph.vertex_count()),
                             0);
    result.edge_cut = 0;
    result.worst_balance = 1.0;
    return result;
  }

  // --- Coarsening phase -----------------------------------------------
  const VertexId stop_at = std::max<VertexId>(
      kCoarsenTo, static_cast<VertexId>(20 * options.parts));
  std::vector<CoarseGraph> hierarchy;  // hierarchy[i] coarsens level i graph
  const Graph* current = &graph;
  constexpr int kMaxLevels = 48;
  while (current->vertex_count() > stop_at &&
         static_cast<int>(hierarchy.size()) < kMaxLevels) {
    CoarseGraph next = coarsen_once(*current, rng);
    // A matching that barely shrinks the graph means coarsening has stalled
    // (e.g. a star graph); stop rather than spin.
    if (next.graph.vertex_count() >
        static_cast<VertexId>(0.95 * current->vertex_count()))
      break;
    hierarchy.push_back(std::move(next));
    current = &hierarchy.back().graph;
  }
  MASSF_LOG_DEBUG << "multilevel: " << hierarchy.size()
                  << " coarsening levels, coarsest has "
                  << current->vertex_count() << " vertices";

  // --- Initial partitioning at the coarsest level ----------------------
  const std::vector<double> fractions = uniform_fractions(options.parts);
  std::vector<double> epsilons = options.epsilon_per_constraint;
  if (epsilons.empty()) epsilons.assign(1, options.epsilon);
  MASSF_REQUIRE(epsilons.size() == 1 ||
                    epsilons.size() ==
                        static_cast<std::size_t>(graph.constraint_count()),
                "epsilon_per_constraint must match the constraint count");
  std::vector<double> tight_epsilons = epsilons;
  for (double& e : tight_epsilons) e *= 0.5;
  Assignment assignment = initial_partition(*current, options, rng);
  rebalance(*current, assignment, fractions, epsilons, rng);
  greedy_refine(*current, assignment, fractions, epsilons, kRefinePasses,
                rng);

  // --- Uncoarsening with refinement ------------------------------------
  for (std::size_t level = hierarchy.size(); level-- > 0;) {
    const Graph& fine =
        level == 0 ? graph : hierarchy[level - 1].graph;
    const std::vector<VertexId>& map = hierarchy[level].fine_to_coarse;
    Assignment projected(static_cast<std::size_t>(fine.vertex_count()));
    for (VertexId v = 0; v < fine.vertex_count(); ++v)
      projected[static_cast<std::size_t>(v)] =
          assignment[static_cast<std::size_t>(map[static_cast<std::size_t>(v)])];
    assignment = std::move(projected);
    rebalance(fine, assignment, fractions, epsilons, rng);
    greedy_refine(fine, assignment, fractions, epsilons, kRefinePasses, rng);
  }

  // Final polish: push balance below the tolerance (lumpy weights often
  // stay above it after gain-only refinement) by rebalancing against a
  // tighter target, then run a short refinement sweep to recover any cut
  // lost to the balancing moves.
  rebalance(graph, assignment, fractions, tight_epsilons, rng);
  greedy_refine(graph, assignment, fractions, epsilons,
                std::max(2, kRefinePasses / 2), rng);

  validate_assignment(graph, assignment, options.parts);
  result.edge_cut = edge_cut(graph, assignment);
  result.worst_balance = worst_balance_ratio(graph, assignment, options.parts);
  result.assignment = std::move(assignment);
  return result;
}

}  // namespace massf::partition
