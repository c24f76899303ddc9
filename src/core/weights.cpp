#include "core/weights.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace massf::mapping {

std::vector<double> memory_weights(const Network& network) {
  // Routers per AS come from sorting (as id, node) pairs, not from a table
  // indexed by AS id: a netdesc may use any id up to INT_MAX, so memory
  // must follow the router count, not the largest id.
  std::vector<std::pair<int, NodeId>> routers;
  for (NodeId v = 0; v < network.node_count(); ++v)
    if (network.node(v).kind == topology::NodeKind::Router)
      routers.emplace_back(network.node(v).as_id, v);
  std::sort(routers.begin(), routers.end());
  std::vector<double> weights(static_cast<std::size_t>(network.node_count()),
                              1.0);
  for (std::size_t lo = 0, hi = 0; lo < routers.size(); lo = hi) {
    while (hi < routers.size() && routers[hi].first == routers[lo].first) ++hi;
    const double x = static_cast<double>(hi - lo);
    for (std::size_t k = lo; k < hi; ++k)
      weights[static_cast<std::size_t>(routers[k].second)] = 10.0 + x * x;
  }
  return weights;
}

std::vector<double> bandwidth_weights(const Network& network) {
  std::vector<double> weights(static_cast<std::size_t>(network.node_count()));
  for (NodeId v = 0; v < network.node_count(); ++v)
    weights[static_cast<std::size_t>(v)] =
        network.total_incident_bandwidth(v) / 1e6;  // Mb/s
  return weights;
}

namespace {

/// Link id for the arc u—v of the structure graph. Parallel virtual links
/// between the same node pair are merged by GraphBuilder, so the first
/// matching link carries the arc's semantics.
topology::LinkId arc_link(const Network& network, graph::VertexId u,
                          graph::VertexId v) {
  const auto link = network.find_link(u, v);
  MASSF_CHECK(link.has_value(),
              "structure arc " << u << "—" << v << " has no network link");
  return *link;
}

}  // namespace

std::vector<double> latency_arc_weights(const Network& network,
                                        const graph::Graph& structure) {
  MASSF_REQUIRE(structure.vertex_count() == network.node_count(),
                "structure graph must mirror the network");
  const double min_latency = network.min_link_latency();
  std::vector<double> weights(
      static_cast<std::size_t>(structure.arc_count()));
  for (graph::VertexId u = 0; u < structure.vertex_count(); ++u) {
    for (graph::ArcIndex a = structure.arc_begin(u); a != structure.arc_end(u);
         ++a) {
      const graph::VertexId v = structure.arc_target(a);
      const topology::Link& link = network.link(arc_link(network, u, v));
      const double ratio = min_latency / link.latency_s;
      // Squared reciprocal: the lookahead is the *minimum* cut-link
      // latency, so a single low-latency cut edge is catastrophic. The
      // quadratic makes cutting one 0.1 ms access link as expensive as a
      // hundred 1 ms backbone links, steering cuts to high-latency links.
      weights[static_cast<std::size_t>(a)] = ratio * ratio;
    }
  }
  return weights;
}

std::vector<double> traffic_arc_weights(const Network& network,
                                        const graph::Graph& structure,
                                        const std::vector<double>& link_load) {
  MASSF_REQUIRE(structure.vertex_count() == network.node_count(),
                "structure graph must mirror the network");
  MASSF_REQUIRE(link_load.size() ==
                    static_cast<std::size_t>(network.link_count()),
                "link_load must have one entry per link");
  std::vector<double> weights(
      static_cast<std::size_t>(structure.arc_count()));
  for (graph::VertexId u = 0; u < structure.vertex_count(); ++u) {
    for (graph::ArcIndex a = structure.arc_begin(u); a != structure.arc_end(u);
         ++a) {
      const graph::VertexId v = structure.arc_target(a);
      weights[static_cast<std::size_t>(a)] =
          link_load[static_cast<std::size_t>(arc_link(network, u, v))];
    }
  }
  return weights;
}

graph::Graph build_mapping_graph(
    const Network& network, const graph::Graph& structure,
    const std::vector<double>& compute_weight,
    const std::vector<std::vector<double>>& segment_weights,
    double memory_priority, const std::vector<double>& arc_weights) {
  const auto n = static_cast<std::size_t>(network.node_count());
  MASSF_REQUIRE(compute_weight.size() == n,
                "compute weights must cover every node");
  MASSF_REQUIRE(memory_priority >= 0, "memory priority must be >= 0");
  for (const auto& segment : segment_weights)
    MASSF_REQUIRE(segment.size() == n,
                  "segment weights must cover every node");

  const int segments = static_cast<int>(segment_weights.size());
  const bool use_memory = memory_priority > 0;
  const int ncon = 1 + segments + (use_memory ? 1 : 0);

  const std::vector<double> memory = memory_weights(network);
  std::vector<double> vwgt(n * static_cast<std::size_t>(ncon));
  for (std::size_t v = 0; v < n; ++v) {
    double* row = &vwgt[v * static_cast<std::size_t>(ncon)];
    // A tiny floor keeps completely idle nodes movable without letting
    // them dominate any block.
    row[0] = compute_weight[v] + 1e-6;
    for (int s = 0; s < segments; ++s)
      row[1 + s] = segment_weights[static_cast<std::size_t>(s)][v] + 1e-6;
    if (use_memory) row[ncon - 1] = memory[v];
  }

  return structure.with_vertex_weights(std::move(vwgt), ncon)
      .with_arc_weights(arc_weights);
}

partition::ObjectiveWeights make_objectives(
    const Network& network, const graph::Graph& structure,
    const std::vector<double>& link_load) {
  partition::ObjectiveWeights objectives;
  objectives.latency = latency_arc_weights(network, structure);
  objectives.traffic = traffic_arc_weights(network, structure, link_load);
  return objectives;
}

}  // namespace massf::mapping
