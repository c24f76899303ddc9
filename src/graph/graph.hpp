// Core weighted-graph representation shared by the partitioner and the
// mapping framework.
//
// The graph is undirected and stored in compressed-sparse-row (CSR) form:
// each undirected edge appears as two directed arcs. Vertices carry a fixed
// number of weight components ("constraints" in multi-constraint
// partitioning terminology — e.g. computation and memory, or one component
// per PROFILE time segment). Arcs carry a single scalar weight; callers that
// need several edge metrics (latency objective vs. traffic objective) keep
// parallel arrays indexed by arc and combine them into the single weight via
// partition::combine_objectives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace massf::graph {

using VertexId = std::int32_t;
using ArcIndex = std::int64_t;

/// Immutable CSR graph with multi-component vertex weights.
class Graph {
 public:
  Graph() = default;

  /// Construct from raw CSR arrays. `xadj` has n+1 entries; `adjncy` and
  /// `adjwgt` have xadj[n] entries; `vwgt` has n*ncon entries. Every arc
  /// must have a twin (the structure must be symmetric) — GraphBuilder
  /// guarantees this; direct construction validates sizes only.
  Graph(std::vector<ArcIndex> xadj, std::vector<VertexId> adjncy,
        std::vector<double> adjwgt, std::vector<double> vwgt, int ncon);

  VertexId vertex_count() const {
    return static_cast<VertexId>(xadj_.empty() ? 0 : xadj_.size() - 1);
  }
  /// Number of undirected edges (arc count / 2).
  std::int64_t edge_count() const {
    return static_cast<std::int64_t>(adjncy_.size()) / 2;
  }
  ArcIndex arc_count() const { return static_cast<ArcIndex>(adjncy_.size()); }
  /// Number of vertex-weight components (constraints).
  int constraint_count() const { return ncon_; }

  /// Arc range [arc_begin(v), arc_end(v)) enumerates v's incident arcs.
  ArcIndex arc_begin(VertexId v) const { return xadj_[check_vertex(v)]; }
  ArcIndex arc_end(VertexId v) const { return xadj_[check_vertex(v) + 1]; }
  VertexId arc_target(ArcIndex a) const { return adjncy_[check_arc(a)]; }
  double arc_weight(ArcIndex a) const { return adjwgt_[check_arc(a)]; }

  VertexId degree(VertexId v) const {
    return static_cast<VertexId>(arc_end(v) - arc_begin(v));
  }

  /// Neighbor list of v as a span (arc order).
  std::span<const VertexId> neighbors(VertexId v) const {
    const ArcIndex b = arc_begin(v);
    return {adjncy_.data() + b, static_cast<std::size_t>(arc_end(v) - b)};
  }

  /// Weight component c of vertex v.
  double vertex_weight(VertexId v, int c = 0) const {
    MASSF_REQUIRE(c >= 0 && c < ncon_, "constraint index out of range");
    return vwgt_[static_cast<std::size_t>(check_vertex(v)) *
                     static_cast<std::size_t>(ncon_) +
                 static_cast<std::size_t>(c)];
  }

  /// All weight components of vertex v (length == constraint_count()).
  std::span<const double> vertex_weights(VertexId v) const {
    return {vwgt_.data() + static_cast<std::size_t>(check_vertex(v)) *
                               static_cast<std::size_t>(ncon_),
            static_cast<std::size_t>(ncon_)};
  }

  /// Sum of weight component c over all vertices.
  double total_vertex_weight(int c = 0) const;

  /// Sum of all arc weights / 2 (i.e. total undirected edge weight).
  double total_edge_weight() const;

  /// Raw CSR access for algorithms that iterate the whole structure.
  const std::vector<ArcIndex>& xadj() const { return xadj_; }
  const std::vector<VertexId>& adjncy() const { return adjncy_; }
  const std::vector<double>& adjwgt() const { return adjwgt_; }
  const std::vector<double>& vwgt() const { return vwgt_; }

  /// Return a copy of this graph with the arc weights replaced (same
  /// structure). `new_adjwgt` must have arc_count() entries.
  Graph with_arc_weights(std::vector<double> new_adjwgt) const;

  /// Return a copy with vertex weights replaced. `new_vwgt` must have
  /// vertex_count()*new_ncon entries.
  Graph with_vertex_weights(std::vector<double> new_vwgt, int new_ncon) const;

 private:
  VertexId check_vertex(VertexId v) const {
    MASSF_REQUIRE(v >= 0 && v < vertex_count(),
                  "vertex " << v << " out of range [0," << vertex_count()
                            << ")");
    return v;
  }
  ArcIndex check_arc(ArcIndex a) const {
    MASSF_REQUIRE(a >= 0 && a < arc_count(), "arc index out of range");
    return a;
  }

  std::vector<ArcIndex> xadj_{0};
  std::vector<VertexId> adjncy_;
  std::vector<double> adjwgt_;
  std::vector<double> vwgt_;
  int ncon_ = 1;
};

/// Incremental builder producing a symmetric CSR Graph. Parallel edges are
/// merged by summing their weights; self-loops are rejected (they carry no
/// information for partitioning or routing).
class GraphBuilder {
 public:
  /// ncon = number of vertex-weight components every vertex will carry.
  explicit GraphBuilder(int ncon = 1);

  /// Add a vertex with the given weight components (size must equal ncon;
  /// an empty span means all-zero weights). Returns its id (dense, 0-based).
  VertexId add_vertex(std::span<const double> weights = {});

  /// Convenience: single-constraint vertex.
  VertexId add_vertex(double weight);

  /// Add an undirected edge u—v with the given weight. Both endpoints must
  /// already exist and be distinct.
  void add_edge(VertexId u, VertexId v, double weight = 1.0);

  VertexId vertex_count() const {
    return static_cast<VertexId>(vertex_weights_.size());
  }

  /// Finalize into an immutable CSR graph. The builder can keep being used
  /// afterwards (build() is non-destructive).
  Graph build() const;

 private:
  struct HalfEdge {
    VertexId from;
    VertexId to;
    double weight;
  };

  int ncon_;
  std::vector<std::vector<double>> vertex_weights_;
  std::vector<HalfEdge> edges_;  // one record per undirected edge
};

}  // namespace massf::graph
