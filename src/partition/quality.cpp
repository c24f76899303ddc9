#include <algorithm>

#include "partition/partition.hpp"

namespace massf::partition {

double edge_cut(const graph::Graph& graph, const Assignment& assignment) {
  validate_assignment(graph, assignment,
                      assignment.empty()
                          ? 1
                          : *std::max_element(assignment.begin(),
                                              assignment.end()) +
                                1);
  double cut = 0;
  for (graph::VertexId u = 0; u < graph.vertex_count(); ++u) {
    for (graph::ArcIndex a = graph.arc_begin(u); a != graph.arc_end(u); ++a) {
      const graph::VertexId v = graph.arc_target(a);
      if (u < v && assignment[static_cast<std::size_t>(u)] !=
                       assignment[static_cast<std::size_t>(v)])
        cut += graph.arc_weight(a);
    }
  }
  return cut;
}

std::vector<double> block_weights(const graph::Graph& graph,
                                  const Assignment& assignment, int parts,
                                  int constraint) {
  validate_assignment(graph, assignment, parts);
  std::vector<double> weights(static_cast<std::size_t>(parts), 0.0);
  for (graph::VertexId v = 0; v < graph.vertex_count(); ++v)
    weights[static_cast<std::size_t>(
        assignment[static_cast<std::size_t>(v)])] +=
        graph.vertex_weight(v, constraint);
  return weights;
}

double balance_ratio(const graph::Graph& graph, const Assignment& assignment,
                     int parts, int constraint) {
  const std::vector<double> weights =
      block_weights(graph, assignment, parts, constraint);
  double total = 0, peak = 0;
  for (double w : weights) {
    total += w;
    peak = std::max(peak, w);
  }
  if (total <= 0) return 0;
  return peak / (total / parts);
}

double worst_balance_ratio(const graph::Graph& graph,
                           const Assignment& assignment, int parts) {
  double worst = 0;
  for (int c = 0; c < graph.constraint_count(); ++c)
    worst = std::max(worst, balance_ratio(graph, assignment, parts, c));
  return worst;
}

void validate_assignment(const graph::Graph& graph,
                         const Assignment& assignment, int parts) {
  MASSF_REQUIRE(parts >= 1, "parts must be >= 1");
  MASSF_REQUIRE(assignment.size() ==
                    static_cast<std::size_t>(graph.vertex_count()),
                "assignment size " << assignment.size()
                                   << " != vertex count "
                                   << graph.vertex_count());
  for (std::size_t v = 0; v < assignment.size(); ++v)
    MASSF_REQUIRE(assignment[v] >= 0 && assignment[v] < parts,
                  "vertex " << v << " assigned to invalid block "
                            << assignment[v]);
}

}  // namespace massf::partition
