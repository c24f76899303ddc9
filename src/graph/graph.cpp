#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>

namespace massf::graph {

Graph::Graph(std::vector<ArcIndex> xadj, std::vector<VertexId> adjncy,
             std::vector<double> adjwgt, std::vector<double> vwgt, int ncon)
    : xadj_(std::move(xadj)),
      adjncy_(std::move(adjncy)),
      adjwgt_(std::move(adjwgt)),
      vwgt_(std::move(vwgt)),
      ncon_(ncon) {
  MASSF_REQUIRE(ncon_ >= 1, "graph needs at least one vertex-weight component");
  MASSF_REQUIRE(!xadj_.empty() && xadj_.front() == 0,
                "xadj must start with 0");
  const std::size_t n = xadj_.size() - 1;
  MASSF_REQUIRE(static_cast<std::size_t>(xadj_.back()) == adjncy_.size(),
                "xadj/adjncy size mismatch");
  MASSF_REQUIRE(adjwgt_.size() == adjncy_.size(),
                "adjwgt/adjncy size mismatch");
  MASSF_REQUIRE(vwgt_.size() == n * static_cast<std::size_t>(ncon_),
                "vwgt size must be n*ncon");
  MASSF_REQUIRE(std::is_sorted(xadj_.begin(), xadj_.end()),
                "xadj must be nondecreasing");
  for (VertexId target : adjncy_)
    MASSF_REQUIRE(target >= 0 && static_cast<std::size_t>(target) < n,
                  "adjacency target out of range");
}

double Graph::total_vertex_weight(int c) const {
  MASSF_REQUIRE(c >= 0 && c < ncon_, "constraint index out of range");
  double total = 0;
  for (VertexId v = 0; v < vertex_count(); ++v) total += vertex_weight(v, c);
  return total;
}

double Graph::total_edge_weight() const {
  return std::accumulate(adjwgt_.begin(), adjwgt_.end(), 0.0) / 2.0;
}

Graph Graph::with_arc_weights(std::vector<double> new_adjwgt) const {
  MASSF_REQUIRE(new_adjwgt.size() == adjwgt_.size(),
                "replacement arc weights must match arc count");
  return Graph(xadj_, adjncy_, std::move(new_adjwgt), vwgt_, ncon_);
}

Graph Graph::with_vertex_weights(std::vector<double> new_vwgt,
                                 int new_ncon) const {
  MASSF_REQUIRE(new_ncon >= 1, "need at least one constraint");
  MASSF_REQUIRE(new_vwgt.size() == static_cast<std::size_t>(vertex_count()) *
                                       static_cast<std::size_t>(new_ncon),
                "replacement vertex weights must be n*ncon");
  return Graph(xadj_, adjncy_, adjwgt_, std::move(new_vwgt), new_ncon);
}

GraphBuilder::GraphBuilder(int ncon) : ncon_(ncon) {
  MASSF_REQUIRE(ncon_ >= 1, "builder needs at least one constraint");
}

VertexId GraphBuilder::add_vertex(std::span<const double> weights) {
  MASSF_REQUIRE(weights.empty() ||
                    weights.size() == static_cast<std::size_t>(ncon_),
                "vertex weight span must have ncon=" << ncon_ << " entries");
  std::vector<double> w(static_cast<std::size_t>(ncon_), 0.0);
  std::copy(weights.begin(), weights.end(), w.begin());
  vertex_weights_.push_back(std::move(w));
  return static_cast<VertexId>(vertex_weights_.size() - 1);
}

VertexId GraphBuilder::add_vertex(double weight) {
  return add_vertex(std::span<const double>(&weight, 1));
}

void GraphBuilder::add_edge(VertexId u, VertexId v, double weight) {
  MASSF_REQUIRE(u >= 0 && u < vertex_count(), "edge endpoint u out of range");
  MASSF_REQUIRE(v >= 0 && v < vertex_count(), "edge endpoint v out of range");
  MASSF_REQUIRE(u != v, "self-loops are not supported");
  MASSF_REQUIRE(weight >= 0, "edge weight must be non-negative");
  edges_.push_back({u, v, weight});
}

Graph GraphBuilder::build() const {
  const std::size_t n = vertex_weights_.size();

  // Merge parallel edges: sort arc records by (from, to), sum weights.
  struct Arc {
    VertexId from, to;
    double weight;
  };
  std::vector<Arc> arcs;
  arcs.reserve(edges_.size() * 2);
  for (const HalfEdge& e : edges_) {
    arcs.push_back({e.from, e.to, e.weight});
    arcs.push_back({e.to, e.from, e.weight});
  }
  std::sort(arcs.begin(), arcs.end(), [](const Arc& a, const Arc& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  std::vector<Arc> merged;
  merged.reserve(arcs.size());
  for (const Arc& a : arcs) {
    if (!merged.empty() && merged.back().from == a.from &&
        merged.back().to == a.to) {
      merged.back().weight += a.weight;
    } else {
      merged.push_back(a);
    }
  }

  std::vector<ArcIndex> xadj(n + 1, 0);
  std::vector<VertexId> adjncy(merged.size());
  std::vector<double> adjwgt(merged.size());
  for (const Arc& a : merged) ++xadj[static_cast<std::size_t>(a.from) + 1];
  for (std::size_t v = 0; v < n; ++v) xadj[v + 1] += xadj[v];
  // merged is already sorted by `from`, so a single pass fills CSR in order.
  for (std::size_t i = 0; i < merged.size(); ++i) {
    adjncy[i] = merged[i].to;
    adjwgt[i] = merged[i].weight;
  }

  std::vector<double> vwgt(n * static_cast<std::size_t>(ncon_));
  for (std::size_t v = 0; v < n; ++v)
    for (int c = 0; c < ncon_; ++c)
      vwgt[v * static_cast<std::size_t>(ncon_) + static_cast<std::size_t>(c)] =
          vertex_weights_[v][static_cast<std::size_t>(c)];

  return Graph(std::move(xadj), std::move(adjncy), std::move(adjwgt),
               std::move(vwgt), ncon_);
}

}  // namespace massf::graph
