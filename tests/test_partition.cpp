// Tests for the multilevel partitioner, its building blocks, the baseline
// partitioners and partition quality metrics. Includes parameterized
// property sweeps over random graphs.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "partition/baselines.hpp"
#include "partition/coarsen.hpp"
#include "partition/initial.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"
#include "topology/topologies.hpp"
#include "util/rng.hpp"

namespace massf::partition {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::VertexId;

/// Random connected graph: a spanning random tree plus extra edges.
Graph random_graph(int n, double extra_edge_factor, std::uint64_t seed,
                   int ncon = 1) {
  Rng rng(seed);
  GraphBuilder b(ncon);
  for (int i = 0; i < n; ++i) {
    std::vector<double> w(static_cast<std::size_t>(ncon));
    for (auto& x : w) x = rng.next_double(0.5, 2.0);
    b.add_vertex(w);
  }
  for (int i = 1; i < n; ++i)
    b.add_edge(static_cast<VertexId>(rng.next_below(
                   static_cast<std::uint64_t>(i))),
               i, rng.next_double(0.5, 3.0));
  const int extra = static_cast<int>(extra_edge_factor * n);
  for (int e = 0; e < extra; ++e) {
    const auto u = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<VertexId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (u != v) b.add_edge(u, v, rng.next_double(0.5, 3.0));
  }
  return b.build();
}

TEST(Quality, EdgeCutOnTriangle) {
  GraphBuilder b(1);
  for (int i = 0; i < 3; ++i) b.add_vertex(1.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 2, 2.0);
  b.add_edge(0, 2, 4.0);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(edge_cut(g, {0, 0, 1}), 6.0);
  EXPECT_DOUBLE_EQ(edge_cut(g, {0, 0, 0}), 0.0);
}

TEST(Quality, BlockWeightsAndBalance) {
  GraphBuilder b(1);
  b.add_vertex(1.0);
  b.add_vertex(1.0);
  b.add_vertex(2.0);
  const Graph g = b.build();
  const auto w = block_weights(g, {0, 0, 1}, 2, 0);
  EXPECT_DOUBLE_EQ(w[0], 2.0);
  EXPECT_DOUBLE_EQ(w[1], 2.0);
  EXPECT_DOUBLE_EQ(balance_ratio(g, {0, 0, 1}, 2, 0), 1.0);
  EXPECT_DOUBLE_EQ(balance_ratio(g, {0, 1, 1}, 2, 0), 1.5);
}

TEST(Quality, ValidateRejectsBadAssignments) {
  const Graph g = random_graph(5, 0, 1);
  EXPECT_THROW(validate_assignment(g, {0, 0, 0}, 2), std::invalid_argument);
  EXPECT_THROW(validate_assignment(g, {0, 0, 0, 0, 7}, 2),
               std::invalid_argument);
}

TEST(Coarsen, PreservesTotalWeightAndShrinks) {
  const Graph g = random_graph(200, 1.0, 3);
  Rng rng(1);
  const CoarseGraph c = coarsen_once(g, rng);
  EXPECT_LT(c.graph.vertex_count(), g.vertex_count());
  EXPECT_GE(c.graph.vertex_count(), g.vertex_count() / 2);
  EXPECT_NEAR(c.graph.total_vertex_weight(), g.total_vertex_weight(), 1e-9);
  // Total edge weight can only drop by intra-cluster (matched) edges.
  EXPECT_LE(c.graph.total_edge_weight(), g.total_edge_weight() + 1e-9);
  // Every fine vertex maps to a valid coarse vertex.
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const VertexId cv = c.fine_to_coarse[static_cast<std::size_t>(v)];
    EXPECT_GE(cv, 0);
    EXPECT_LT(cv, c.graph.vertex_count());
  }
}

TEST(Coarsen, CutIsInvariantUnderProjection) {
  const Graph g = random_graph(120, 1.5, 5);
  Rng rng(2);
  const CoarseGraph c = coarsen_once(g, rng);
  // Any coarse assignment, projected to the fine graph, has the same cut.
  Rng arng(3);
  Assignment coarse(static_cast<std::size_t>(c.graph.vertex_count()));
  for (auto& p : coarse) p = static_cast<int>(arng.next_below(3));
  Assignment fine(static_cast<std::size_t>(g.vertex_count()));
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    fine[static_cast<std::size_t>(v)] = coarse[static_cast<std::size_t>(
        c.fine_to_coarse[static_cast<std::size_t>(v)])];
  EXPECT_NEAR(edge_cut(g, fine), edge_cut(c.graph, coarse), 1e-9);
}

TEST(Refine, NeverWorsensCut) {
  const Graph g = random_graph(150, 1.2, 7);
  Assignment a = partition_random(g, 4, 99);
  const double before = edge_cut(g, a);
  Rng rng(4);
  greedy_refine(g, a, uniform_fractions(4), {0.10}, 8, rng);
  EXPECT_LE(edge_cut(g, a), before + 1e-9);
  validate_assignment(g, a, 4);
}

TEST(Refine, KeepsBalanceFeasible) {
  const Graph g = random_graph(150, 1.2, 9);
  Assignment a(static_cast<std::size_t>(g.vertex_count()), 0);
  // Start absurdly imbalanced: everything in block 0.
  for (int i = 0; i < 3; ++i) a[static_cast<std::size_t>(i)] = i + 1;
  Rng rng(5);
  rebalance(g, a, uniform_fractions(4), {0.10}, rng);
  EXPECT_LE(worst_balance_ratio(g, a, 4), 1.25);
}

TEST(Refine, NeverEmptiesABlock) {
  const Graph g = random_graph(30, 1.0, 11);
  Assignment a = partition_random(g, 5, 1);
  Rng rng(6);
  greedy_refine(g, a, uniform_fractions(5), {0.5}, 10, rng);
  std::vector<int> counts(5, 0);
  for (int p : a) ++counts[static_cast<std::size_t>(p)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Initial, ProducesValidBalancedPartition) {
  const Graph g = random_graph(80, 1.0, 13);
  PartitionOptions opts;
  opts.parts = 5;
  Rng rng(7);
  const Assignment a = initial_partition(g, opts, rng);
  validate_assignment(g, a, 5);
  EXPECT_LE(worst_balance_ratio(g, a, 5), 1.6);
}

TEST(Multilevel, TrivialCases) {
  const Graph g = random_graph(10, 0.5, 15);
  PartitionOptions one;
  one.parts = 1;
  const auto r = partition_multilevel(g, one);
  EXPECT_DOUBLE_EQ(r.edge_cut, 0.0);
  for (int p : r.assignment) EXPECT_EQ(p, 0);

  PartitionOptions ten;
  ten.parts = 10;  // == vertex count
  const auto r10 = partition_multilevel(g, ten);
  validate_assignment(g, r10.assignment, 10);
}

TEST(Multilevel, DeterministicGivenSeed) {
  const Graph g = random_graph(300, 1.5, 17);
  PartitionOptions opts;
  opts.parts = 6;
  opts.seed = 12345;
  const auto a = partition_multilevel(g, opts);
  const auto b = partition_multilevel(g, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.edge_cut, b.edge_cut);
}

TEST(Multilevel, RejectsTooManyParts) {
  const Graph g = random_graph(5, 0.5, 19);
  PartitionOptions opts;
  opts.parts = 6;
  EXPECT_THROW(partition_multilevel(g, opts), std::invalid_argument);
}

struct SweepCase {
  int vertices;
  double extra;
  int parts;
  std::uint64_t seed;
};

class MultilevelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MultilevelSweep, ValidBalancedAndBeatsRandom) {
  const SweepCase c = GetParam();
  const Graph g = random_graph(c.vertices, c.extra, c.seed);
  PartitionOptions opts;
  opts.parts = c.parts;
  opts.seed = c.seed * 31 + 1;
  const PartitionResult result = partition_multilevel(g, opts);
  validate_assignment(g, result.assignment, c.parts);

  // Metrics are self-consistent.
  EXPECT_NEAR(result.edge_cut, edge_cut(g, result.assignment), 1e-9);
  EXPECT_NEAR(result.worst_balance,
              worst_balance_ratio(g, result.assignment, c.parts), 1e-9);

  // Balance within a loose envelope (tolerance + lumpy-vertex slack).
  EXPECT_LE(result.worst_balance, 1.0 + opts.epsilon + 0.30);

  // Edge cut beats a random assignment by a wide margin.
  const double random_cut =
      edge_cut(g, partition_random(g, c.parts, c.seed + 5));
  EXPECT_LT(result.edge_cut, random_cut * 0.8);
}

// gtest names each case after the raw bytes of its SweepCase, padding
// included. Static storage zero-fills that padding, so the names are the
// same on every run; stack temporaries (::testing::Values) leave whatever
// the stack held there.
const SweepCase kSweepCases[] = {
    {60, 0.8, 2, 1},   {60, 0.8, 3, 2},  {120, 1.0, 4, 3},
    {250, 1.5, 5, 4},  {250, 1.5, 8, 5}, {500, 2.0, 8, 6},
    {500, 1.0, 16, 7}, {800, 1.2, 20, 8}};

INSTANTIATE_TEST_SUITE_P(Sizes, MultilevelSweep,
                         ::testing::ValuesIn(kSweepCases));

class MultiConstraintSweep : public ::testing::TestWithParam<int> {};

TEST_P(MultiConstraintSweep, BalancesEveryConstraint) {
  const int ncon = GetParam();
  const Graph g = random_graph(240, 1.2, 100 + ncon, ncon);
  PartitionOptions opts;
  opts.parts = 4;
  opts.epsilon = 0.10;
  const PartitionResult result = partition_multilevel(g, opts);
  validate_assignment(g, result.assignment, opts.parts);
  for (int c = 0; c < ncon; ++c)
    EXPECT_LE(balance_ratio(g, result.assignment, opts.parts, c), 1.45)
        << "constraint " << c;
}

INSTANTIATE_TEST_SUITE_P(Constraints, MultiConstraintSweep,
                         ::testing::Values(1, 2, 3, 5));

TEST(Baselines, RandomCoversAllBlocks) {
  const Graph g = random_graph(40, 1.0, 21);
  const Assignment a = partition_random(g, 8, 3);
  validate_assignment(g, a, 8);
  std::vector<int> counts(8, 0);
  for (int p : a) ++counts[static_cast<std::size_t>(p)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Baselines, BfsHierarchicalBalanced) {
  const Graph g = random_graph(200, 1.0, 23);
  const Assignment a = partition_bfs_hierarchical(g, 4, 3);
  validate_assignment(g, a, 4);
  EXPECT_LE(worst_balance_ratio(g, a, 4), 1.7);
}

TEST(Baselines, GreedyKClusterCoversAllBlocks) {
  const Graph g = random_graph(150, 1.2, 25);
  const Assignment a = partition_greedy_kcluster(g, 6, 9);
  validate_assignment(g, a, 6);
  std::vector<int> counts(6, 0);
  for (int p : a) ++counts[static_cast<std::size_t>(p)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Baselines, MultilevelBeatsBaselinesOnCut) {
  const Graph g = random_graph(400, 1.5, 27);
  PartitionOptions opts;
  opts.parts = 8;
  const double ml = partition_multilevel(g, opts).edge_cut;
  const double bfs = edge_cut(g, partition_bfs_hierarchical(g, 8, 1));
  const double kcl = edge_cut(g, partition_greedy_kcluster(g, 8, 1));
  EXPECT_LT(ml, bfs * 1.05);
  EXPECT_LT(ml, kcl * 1.05);
}

// ---- Coarsen-once partitioning over domain-tagged graphs ----

TEST(Hierarchical, ValidBalancedOnDomainTaggedTopology) {
  topology::HierarchyParams hp;
  hp.backbone_routers = 4;
  hp.pods = 12;
  hp.access_per_pod = 3;
  hp.hosts_per_access = 4;
  const topology::Network net = topology::make_hierarchy(hp);
  const Graph g = net.to_graph();
  PartitionOptions opts;
  opts.parts = 8;
  opts.seed = 11;
  const PartitionResult r =
      partition_hierarchical(g, net.domain_of_nodes(), opts);
  validate_assignment(g, r.assignment, opts.parts);
  EXPECT_GT(r.edge_cut, 0.0);
  EXPECT_LE(r.worst_balance, 2.0);
  std::vector<int> counts(static_cast<std::size_t>(opts.parts), 0);
  for (int p : r.assignment) ++counts[static_cast<std::size_t>(p)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Hierarchical, KeepsWholeSmallDomainsTogether) {
  topology::HierarchyParams hp;
  hp.backbone_routers = 3;
  hp.pods = 16;
  hp.access_per_pod = 2;
  hp.hosts_per_access = 3;
  const topology::Network net = topology::make_hierarchy(hp);
  const Graph g = net.to_graph();
  const std::vector<int> domain_of = net.domain_of_nodes();
  PartitionOptions opts;
  opts.parts = 4;
  const PartitionResult r = partition_hierarchical(g, domain_of, opts);
  validate_assignment(g, r.assignment, opts.parts);
  // With 16 pods across 4 parts every pod is well under half a part's
  // share, so no pod is split: all nodes of a pod land in one block.
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const std::size_t vi = static_cast<std::size_t>(v);
    if (domain_of[vi] < hp.backbone_routers) continue;  // backbone singleton
    for (VertexId u = v + 1; u < g.vertex_count(); ++u) {
      const std::size_t ui = static_cast<std::size_t>(u);
      if (domain_of[ui] != domain_of[vi]) continue;
      ASSERT_EQ(r.assignment[vi], r.assignment[ui])
          << "domain " << domain_of[vi] << " split across blocks";
    }
  }
}

TEST(Hierarchical, SplitsOversizedDomains) {
  // One giant domain holding everything: each chunk must stay under half a
  // part's share, so the domain is carved up and the result stays balanced.
  const Graph g = random_graph(600, 1.0, 5);
  const std::vector<int> domain_of(600, 0);
  PartitionOptions opts;
  opts.parts = 4;
  const PartitionResult r = partition_hierarchical(g, domain_of, opts);
  validate_assignment(g, r.assignment, opts.parts);
  EXPECT_LE(r.worst_balance, 2.0);
  std::vector<int> counts(static_cast<std::size_t>(opts.parts), 0);
  for (int p : r.assignment) ++counts[static_cast<std::size_t>(p)];
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Hierarchical, FallsBackToMultilevelWhenTooFewGroups) {
  // One vertex carries almost all the weight, so the single domain splits
  // into just a few chunks — fewer groups than parts. The quotient would
  // be infeasible, so the call must produce exactly the flat multilevel
  // answer.
  GraphBuilder b(1);
  b.add_vertex(100.0);
  for (int i = 1; i < 16; ++i) b.add_vertex(1.0);
  for (int i = 1; i < 16; ++i) b.add_edge(i - 1, i, 1.0);
  const Graph g = b.build();
  const std::vector<int> domain_of(16, 0);
  PartitionOptions opts;
  opts.parts = 4;
  opts.seed = 3;
  const PartitionResult hier = partition_hierarchical(g, domain_of, opts);
  const PartitionResult flat = partition_multilevel(g, opts);
  EXPECT_EQ(hier.assignment, flat.assignment);
  EXPECT_DOUBLE_EQ(hier.edge_cut, flat.edge_cut);
}

TEST(Hierarchical, DeterministicGivenSeedAndComparableToMultilevel) {
  topology::HierarchyParams hp;
  hp.backbone_routers = 4;
  hp.pods = 10;
  hp.access_per_pod = 2;
  hp.hosts_per_access = 4;
  const topology::Network net = topology::make_hierarchy(hp);
  const Graph g = net.to_graph();
  const std::vector<int> domain_of = net.domain_of_nodes();
  PartitionOptions opts;
  opts.parts = 5;
  opts.seed = 17;
  const PartitionResult a = partition_hierarchical(g, domain_of, opts);
  const PartitionResult b = partition_hierarchical(g, domain_of, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  // Coarsen-once must stay in the same quality ballpark as the full
  // multilevel pipeline on a topology that matches its assumptions.
  const PartitionResult ml = partition_multilevel(g, opts);
  EXPECT_LE(a.edge_cut, 2.0 * ml.edge_cut + 1e-9);
  EXPECT_LE(a.worst_balance, 2.0);
}

}  // namespace
}  // namespace massf::partition
