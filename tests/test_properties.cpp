// Cross-cutting property tests: DES time accounting, multi-objective
// partitioning behavior, per-constraint tolerances, and emulator timing
// math under parameter sweeps.
#include <gtest/gtest.h>

#include "des/kernel.hpp"
#include "emu/emulator.hpp"
#include "kernel_script.hpp"
#include "partition/multiobjective.hpp"
#include "partition/partition.hpp"
#include "routing/hierarchical.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "util/rng.hpp"

namespace massf {
namespace {

// ---------------------------------------------------------------------------
// DES coupled-time model.
// ---------------------------------------------------------------------------

TEST(KernelTime, CoupledTimeFloorsAtSimAdvance) {
  // Two sparse events 10 s apart: engine work is microscopic, so coupled
  // time ≈ the simulated span while modeled (engine-only) time stays tiny.
  des::Kernel kernel(1, 1.0);
  des::ScriptSink script(kernel);
  kernel.schedule_packet(0, 0.0, {});
  kernel.schedule_packet(0, 10.0, {});
  kernel.run_until(100.0);
  const auto& stats = kernel.stats();
  EXPECT_GE(stats.coupled_time, 10.0);
  EXPECT_LT(stats.modeled_time, 0.1);
}

TEST(KernelTime, CoupledTimeTracksEngineWorkWhenBottlenecked) {
  // Dense events in a short sim span: engine work dominates.
  des::CostModel cost;
  cost.per_event = 1e-2;  // 10 ms per event
  des::Kernel kernel(1, 1.0, cost);
  des::ScriptSink script(kernel);
  for (int i = 0; i < 100; ++i) kernel.schedule_packet(0, 0.001 * i, {});
  kernel.run_until(10.0);
  const auto& stats = kernel.stats();
  EXPECT_NEAR(stats.coupled_time, stats.modeled_time, 1e-9);
  EXPECT_GE(stats.modeled_time, 1.0);  // 100 × 10 ms
}

TEST(KernelTime, CoupledAlwaysAtLeastModeled) {
  Rng rng(5);
  des::Kernel kernel(3, 0.5);
  des::ScriptSink script(kernel);
  for (int i = 0; i < 500; ++i)
    kernel.schedule_packet(static_cast<int>(rng.next_below(3)),
                           rng.next_double(0, 50), {});
  kernel.run_until(100.0);
  EXPECT_GE(kernel.stats().coupled_time, kernel.stats().modeled_time - 1e-9);
}

// ---------------------------------------------------------------------------
// Multi-objective partitioning.
// ---------------------------------------------------------------------------

graph::Graph ring_graph(int n) {
  graph::GraphBuilder b(1);
  for (int i = 0; i < n; ++i) b.add_vertex(1.0);
  for (int i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n, 1.0);
  return b.build();
}

TEST(MultiObjectivePartition, PureObjectivesSteerTheCut) {
  // Ring of 16: latency weights make even edges expensive, traffic weights
  // make odd edges expensive. With p=1 the cut avoids even edges; with
  // p=0 it avoids odd edges.
  const graph::Graph g = ring_graph(16);
  partition::ObjectiveWeights weights;
  weights.latency.assign(static_cast<std::size_t>(g.arc_count()), 0.0);
  weights.traffic.assign(static_cast<std::size_t>(g.arc_count()), 0.0);
  for (graph::VertexId u = 0; u < g.vertex_count(); ++u) {
    for (auto a = g.arc_begin(u); a != g.arc_end(u); ++a) {
      const graph::VertexId v = g.arc_target(a);
      const int edge_index = (v == (u + 1) % 16) ? u : v;  // smaller endpoint
      const bool even = edge_index % 2 == 0;
      weights.latency[static_cast<std::size_t>(a)] = even ? 100.0 : 1.0;
      weights.traffic[static_cast<std::size_t>(a)] = even ? 1.0 : 100.0;
    }
  }
  partition::PartitionOptions opts;
  opts.parts = 2;
  opts.epsilon = 0.2;

  const auto latency_first =
      partition::partition_multiobjective(g, weights, 1.0, opts);
  const auto traffic_first =
      partition::partition_multiobjective(g, weights, 0.0, opts);

  auto cut_cost = [&](const partition::Assignment& a,
                      const std::vector<double>& w) {
    double cost = 0;
    for (graph::VertexId u = 0; u < g.vertex_count(); ++u)
      for (auto arc = g.arc_begin(u); arc != g.arc_end(u); ++arc) {
        const graph::VertexId v = g.arc_target(arc);
        if (u < v && a[static_cast<std::size_t>(u)] !=
                         a[static_cast<std::size_t>(v)])
          cost += w[static_cast<std::size_t>(arc)];
      }
    return cost;
  };
  // Each pure objective yields a strictly cheaper cut under its own metric
  // than the opposite extreme does.
  EXPECT_LT(cut_cost(latency_first.partition.assignment, weights.latency),
            cut_cost(traffic_first.partition.assignment, weights.latency));
  EXPECT_LT(cut_cost(traffic_first.partition.assignment, weights.traffic),
            cut_cost(latency_first.partition.assignment, weights.traffic));
}

TEST(MultiObjectivePartition, ReportsNormalizationCuts) {
  const graph::Graph g = ring_graph(12);
  partition::ObjectiveWeights weights;
  weights.latency.assign(static_cast<std::size_t>(g.arc_count()), 1.0);
  weights.traffic.assign(static_cast<std::size_t>(g.arc_count()), 2.0);
  partition::PartitionOptions opts;
  opts.parts = 2;
  const auto result = partition::partition_multiobjective(g, weights, 0.5,
                                                          opts);
  // A 2-cut of a uniform ring cuts exactly 2 edges under each metric.
  EXPECT_DOUBLE_EQ(result.latency_cut, 2.0);
  EXPECT_DOUBLE_EQ(result.traffic_cut, 4.0);
  partition::validate_assignment(g, result.partition.assignment, 2);
}

// ---------------------------------------------------------------------------
// Per-constraint tolerances.
// ---------------------------------------------------------------------------

TEST(PerConstraintTolerance, LooseConstraintDoesNotBind) {
  // Two constraints: c0 uniform (easy), c1 concentrated on a few vertices
  // (hard). With a tight c1 tolerance the partitioner must split the heavy
  // vertices; with a loose one it can optimize the cut instead.
  Rng rng(9);
  graph::GraphBuilder b(2);
  for (int i = 0; i < 60; ++i) {
    const double heavy = i < 6 ? 10.0 : 0.1;
    const std::vector<double> w{1.0, heavy};
    b.add_vertex(w);
  }
  for (int i = 1; i < 60; ++i)
    b.add_edge(static_cast<graph::VertexId>(
                   rng.next_below(static_cast<std::uint64_t>(i))),
               i, 1.0);
  // Clump the heavy vertices together so separating them costs cut.
  for (int i = 0; i < 6; ++i)
    for (int j = i + 1; j < 6; ++j) b.add_edge(i, j, 5.0);
  const graph::Graph g = b.build();

  partition::PartitionOptions tight;
  tight.parts = 3;
  tight.epsilon_per_constraint = {0.10, 0.10};
  const auto tight_result = partition::partition_multilevel(g, tight);

  partition::PartitionOptions loose = tight;
  loose.epsilon_per_constraint = {0.10, 3.0};
  const auto loose_result = partition::partition_multilevel(g, loose);

  // Tight c1 forces better c1 balance; loose c1 allows a cheaper cut.
  EXPECT_LE(partition::balance_ratio(g, tight_result.assignment, 3, 1),
            partition::balance_ratio(g, loose_result.assignment, 3, 1) + 0.2);
  EXPECT_LE(loose_result.edge_cut, tight_result.edge_cut + 1e-9);
}

TEST(PerConstraintTolerance, RejectsWrongArity) {
  const graph::Graph g = ring_graph(10);  // 1 constraint
  partition::PartitionOptions opts;
  opts.parts = 2;
  opts.epsilon_per_constraint = {0.1, 0.1, 0.1};
  EXPECT_THROW(partition::partition_multilevel(g, opts),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Emulator timing math under parameter sweeps.
// ---------------------------------------------------------------------------

class TrainSweep : public ::testing::TestWithParam<int> {};

TEST_P(TrainSweep, PacketAccountingInvariantUnderTrainSize) {
  // NetFlow packet totals are independent of the train abstraction knob.
  const int train = GetParam();
  topology::Network net;
  const auto a = net.add_host("a", 0);
  const auto r = net.add_router("r", 0);
  const auto b = net.add_host("b", 0);
  net.add_link(a, r, topology::Mbps(100), topology::milliseconds(1));
  net.add_link(r, b, topology::Mbps(100), topology::milliseconds(1));
  const auto tables = routing::RoutingTables::build(net);

  emu::EmulatorConfig config;
  config.train_packets = train;
  emu::Emulator emulator(net, tables, {0, 0, 0}, 1, config);
  emulator.send_message(a, b, 45000, 0, 0.0);  // 30 MTU packets
  emulator.run(10.0);
  EXPECT_DOUBLE_EQ(
      emulator.netflow().node_packets()[static_cast<std::size_t>(r)], 30.0);
  EXPECT_EQ(emulator.stats().messages_delivered, 1u);
}

INSTANTIATE_TEST_SUITE_P(TrainSizes, TrainSweep,
                         ::testing::Values(1, 2, 4, 8, 30, 64));

// ---------------------------------------------------------------------------
// Hierarchical vs dense routing under randomized topologies and masks.
// ---------------------------------------------------------------------------

TEST(HierarchicalRoutingProperty, AgreesWithDenseUnderRandomMasks) {
  // Randomized hierarchy shapes × random link/node outages: the two
  // backends must produce identical component labels and — shortest paths
  // being unique under the generator's jitter — identical next hops.
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 8; ++trial) {
    topology::HierarchyParams params;
    params.backbone_routers = static_cast<int>(rng.next_int(1, 6));
    params.pods = static_cast<int>(rng.next_int(2, 6));
    params.access_per_pod = static_cast<int>(rng.next_int(1, 3));
    params.hosts_per_access = static_cast<int>(rng.next_int(1, 3));
    params.seed = rng();
    const topology::Network net = topology::make_hierarchy(params);

    std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
    std::vector<char> nodes_up(static_cast<std::size_t>(net.node_count()), 1);
    // Take down ~8% of links and one router (never a host: hosts keep
    // their only access link semantics out of the comparison's way).
    for (auto& up : links_up)
      if (rng.next_bool(0.08)) up = 0;
    const auto routers = net.routers();
    nodes_up[static_cast<std::size_t>(rng.pick(routers))] = 0;

    routing::Reachability hier_reach;
    const auto hier = routing::HierarchicalRoutingTables::build_partial(
        net, &hier_reach, &links_up, &nodes_up);
    routing::Reachability dense_reach;
    const auto dense = routing::RoutingTables::build_partial(
        net, &dense_reach, &links_up, &nodes_up);

    ASSERT_EQ(hier_reach.component, dense_reach.component)
        << "trial " << trial;
    for (topology::NodeId s = 0; s < net.node_count(); ++s)
      for (topology::NodeId t = 0; t < net.node_count(); ++t) {
        ASSERT_EQ(hier.next_hop(s, t), dense.next_hop(s, t))
            << "trial " << trial << " pair (" << s << ", " << t << ")";
        ASSERT_EQ(hier.next_link(s, t), dense.next_link(s, t))
            << "trial " << trial << " pair (" << s << ", " << t << ")";
      }
  }
}

TEST(HierarchicalRoutingProperty, EqualLatencyUnderRandomMasksWithoutJitter) {
  // With jitter disabled equal-cost multipath is everywhere; hop choices
  // may differ but distances and reachability must still agree exactly.
  Rng rng(0xBEEF);
  for (int trial = 0; trial < 4; ++trial) {
    topology::HierarchyParams params;
    params.backbone_routers = static_cast<int>(rng.next_int(2, 5));
    params.pods = static_cast<int>(rng.next_int(2, 5));
    params.access_per_pod = 2;
    params.hosts_per_access = 1;
    params.latency_jitter = 0;
    params.seed = rng();
    const topology::Network net = topology::make_hierarchy(params);

    std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
    for (auto& up : links_up)
      if (rng.next_bool(0.05)) up = 0;

    routing::Reachability hier_reach;
    const auto hier = routing::HierarchicalRoutingTables::build_partial(
        net, &hier_reach, &links_up);
    routing::Reachability dense_reach;
    const auto dense = routing::RoutingTables::build_partial(
        net, &dense_reach, &links_up);
    ASSERT_EQ(hier_reach.component, dense_reach.component);

    for (topology::NodeId s = 0; s < net.node_count(); s += 2)
      for (topology::NodeId t = 0; t < net.node_count(); t += 3) {
        if (s == t || !hier_reach.pair_reachable(s, t)) {
          if (s != t) {
            ASSERT_EQ(hier.next_hop(s, t), -1);
          }
          continue;
        }
        const double expected = dense.path_latency(net, s, t);
        ASSERT_NEAR(hier.path_latency(net, s, t), expected,
                    1e-12 + expected * 1e-12)
            << "trial " << trial << " pair (" << s << ", " << t << ")";
      }
  }
}

}  // namespace
}  // namespace massf
