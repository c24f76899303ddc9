// Unit tests for the graph substrate: builder, CSR access, traversal,
// subgraphs.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"

namespace massf::graph {
namespace {

Graph path_graph(int n) {
  GraphBuilder b(1);
  for (int i = 0; i < n; ++i) b.add_vertex(1.0);
  for (int i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1, 1.0);
  return b.build();
}

TEST(GraphBuilder, BasicCsrShape) {
  GraphBuilder b(1);
  b.add_vertex(2.0);
  b.add_vertex(3.0);
  b.add_vertex(4.0);
  b.add_edge(0, 1, 1.5);
  b.add_edge(1, 2, 2.5);
  const Graph g = b.build();
  EXPECT_EQ(g.vertex_count(), 3);
  EXPECT_EQ(g.edge_count(), 2);
  EXPECT_EQ(g.arc_count(), 4);
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_DOUBLE_EQ(g.vertex_weight(1), 3.0);
  EXPECT_DOUBLE_EQ(g.total_vertex_weight(), 9.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 4.0);
}

TEST(GraphBuilder, MergesParallelEdges) {
  GraphBuilder b(1);
  b.add_vertex(1.0);
  b.add_vertex(1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 2.0);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_DOUBLE_EQ(g.arc_weight(g.arc_begin(0)), 3.0);
}

TEST(GraphBuilder, RejectsSelfLoopAndBadEndpoints) {
  GraphBuilder b(1);
  b.add_vertex(1.0);
  b.add_vertex(1.0);
  EXPECT_THROW(b.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 5), std::invalid_argument);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), std::invalid_argument);
}

TEST(GraphBuilder, MultiConstraintWeights) {
  GraphBuilder b(3);
  const std::vector<double> w{1.0, 2.0, 3.0};
  b.add_vertex(std::span<const double>(w));
  const Graph g = b.build();
  EXPECT_EQ(g.constraint_count(), 3);
  EXPECT_DOUBLE_EQ(g.vertex_weight(0, 2), 3.0);
  const auto span = g.vertex_weights(0);
  EXPECT_EQ(std::vector<double>(span.begin(), span.end()), w);
}

TEST(Graph, WithArcWeightsReplaces) {
  Graph g = path_graph(3);
  std::vector<double> w(static_cast<std::size_t>(g.arc_count()), 9.0);
  const Graph h = g.with_arc_weights(w);
  EXPECT_DOUBLE_EQ(h.total_edge_weight(), 18.0);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 2.0);  // original untouched
}

TEST(Graph, WithVertexWeightsChangesConstraintCount) {
  Graph g = path_graph(2);
  const Graph h = g.with_vertex_weights({1, 2, 3, 4}, 2);
  EXPECT_EQ(h.constraint_count(), 2);
  EXPECT_DOUBLE_EQ(h.vertex_weight(1, 1), 4.0);
}

TEST(Algorithms, BfsDistancesOnPath) {
  const Graph g = path_graph(5);
  const auto dist = bfs_distance(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dist[static_cast<std::size_t>(i)], i);
}

TEST(Algorithms, BfsOrderCoversComponent) {
  const Graph g = path_graph(6);
  EXPECT_EQ(bfs_order(g, 3).size(), 6u);
}

TEST(Algorithms, DijkstraWeightedPath) {
  GraphBuilder b(1);
  for (int i = 0; i < 4; ++i) b.add_vertex(1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 3, 1.0);
  b.add_edge(0, 2, 5.0);
  b.add_edge(2, 3, 1.0);
  const Graph g = b.build();
  const auto sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.distance[3], 2.0);
  EXPECT_EQ(sp.path_to(3), (std::vector<VertexId>{0, 1, 3}));
}

TEST(Algorithms, DijkstraUnreachable) {
  GraphBuilder b(1);
  b.add_vertex(1.0);
  b.add_vertex(1.0);
  const Graph g = b.build();
  const auto sp = dijkstra(g, 0);
  EXPECT_FALSE(sp.reachable(1));
  EXPECT_TRUE(sp.path_to(1).empty());
}

TEST(Algorithms, ConnectedComponents) {
  GraphBuilder b(1);
  for (int i = 0; i < 5; ++i) b.add_vertex(1.0);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  std::vector<int> comp;
  EXPECT_EQ(connected_components(g, comp), 3);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(path_graph(4)));
}

TEST(Algorithms, InducedSubgraph) {
  GraphBuilder b(1);
  for (int i = 0; i < 5; ++i) b.add_vertex(static_cast<double>(i));
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(2, 3, 3.0);
  b.add_edge(3, 4, 4.0);
  const Graph g = b.build();
  const Graph sub = induced_subgraph(g, {1, 2, 3});
  EXPECT_EQ(sub.vertex_count(), 3);
  EXPECT_EQ(sub.edge_count(), 2);  // 1-2 and 2-3 survive
  EXPECT_DOUBLE_EQ(sub.vertex_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(sub.total_edge_weight(), 5.0);
}

TEST(Algorithms, InducedSubgraphRejectsDuplicates) {
  const Graph g = path_graph(3);
  EXPECT_THROW(induced_subgraph(g, {0, 0}), std::invalid_argument);
}

}  // namespace
}  // namespace massf::graph
