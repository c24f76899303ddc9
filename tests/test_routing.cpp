// Tests for static routing: next-hop table correctness, path properties,
// determinism, and flow aggregation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "graph/algorithms.hpp"
#include "routing/hierarchical.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace massf::routing {
namespace {

using topology::make_brite;
using topology::make_campus;
using topology::make_hierarchy;
using topology::make_teragrid;
using topology::Network;

topology::HierarchyParams small_hierarchy() {
  topology::HierarchyParams params;
  params.backbone_routers = 5;
  params.pods = 4;
  params.access_per_pod = 2;
  params.hosts_per_access = 2;
  return params;
}

TEST(Routing, DirectNeighborsRouteDirectly) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  for (topology::LinkId l = 0; l < net.link_count(); ++l) {
    const topology::Link& link = net.link(l);
    // Either the direct link or an equally-short alternative; in Campus all
    // direct links are strictly shortest.
    EXPECT_EQ(tables.next_hop(link.a, link.b), link.b);
    EXPECT_EQ(tables.next_hop(link.b, link.a), link.a);
  }
}

TEST(Routing, RoutesReachEveryPair) {
  const Network net = make_teragrid(2);
  const RoutingTables tables = RoutingTables::build(net);
  for (topology::NodeId s = 0; s < net.node_count(); s += 7) {
    for (topology::NodeId d = 0; d < net.node_count(); d += 5) {
      if (s == d) continue;
      const auto path = tables.route(s, d);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), s);
      EXPECT_EQ(path.back(), d);
      // Consecutive hops are adjacent.
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(net.find_link(path[i], path[i + 1]).has_value());
    }
  }
}

TEST(Routing, PathLatencyMatchesDijkstra) {
  const Network net = make_brite({.routers = 60, .hosts = 30, .seed = 3});
  const RoutingTables tables = RoutingTables::build(net);

  // Independent check: Dijkstra over an equivalent latency graph.
  graph::GraphBuilder b(1);
  for (topology::NodeId v = 0; v < net.node_count(); ++v) b.add_vertex(1.0);
  for (topology::LinkId l = 0; l < net.link_count(); ++l)
    b.add_edge(net.link(l).a, net.link(l).b, net.link(l).latency_s);
  const graph::Graph g = b.build();

  const topology::NodeId src = 0;
  const auto sp = graph::dijkstra(g, src);
  for (topology::NodeId d = 1; d < net.node_count(); d += 3)
    EXPECT_NEAR(tables.path_latency(net, src, d),
                sp.distance[static_cast<std::size_t>(d)], 1e-12)
        << "dest " << d;
}

TEST(Routing, PathsHaveNoLoops) {
  const Network net = make_brite({.routers = 80, .hosts = 40, .seed = 9});
  const RoutingTables tables = RoutingTables::build(net);
  for (topology::NodeId s = 0; s < net.node_count(); s += 11) {
    for (topology::NodeId d = 0; d < net.node_count(); d += 13) {
      if (s == d) continue;
      const auto path = tables.route(s, d);
      std::set<topology::NodeId> seen(path.begin(), path.end());
      EXPECT_EQ(seen.size(), path.size()) << "loop on " << s << "->" << d;
    }
  }
}

TEST(Routing, DeterministicAcrossBuilds) {
  const Network net = make_brite({.routers = 50, .hosts = 25, .seed = 5});
  const RoutingTables a = RoutingTables::build(net);
  const RoutingTables b = RoutingTables::build(net);
  for (topology::NodeId s = 0; s < net.node_count(); s += 3)
    for (topology::NodeId d = 0; d < net.node_count(); d += 3)
      EXPECT_EQ(a.next_hop(s, d), b.next_hop(s, d));
}

TEST(Routing, HopCountConsistentWithRouteLinks) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  const auto hosts = net.hosts();
  const auto s = hosts.front();
  const auto d = hosts.back();
  EXPECT_EQ(tables.hop_count(s, d),
            static_cast<int>(tables.route_links(s, d).size()));
  EXPECT_EQ(tables.route(s, d).size(),
            tables.route_links(s, d).size() + 1);
}

TEST(Routing, RejectsDisconnectedNetworks) {
  Network net;
  net.add_router("a", 0);
  net.add_router("b", 0);
  net.add_router("c", 0);
  net.add_link(0, 1, topology::Mbps(10), topology::milliseconds(1));
  EXPECT_THROW(RoutingTables::build(net), std::invalid_argument);
}

TEST(AggregateFlows, ConservationOnAPath) {
  // a - b - c: one flow a->c with volume 5 loads both links and all nodes.
  Network net;
  const auto a = net.add_host("a", 0);
  const auto b = net.add_router("b", 0);
  const auto c = net.add_host("c", 0);
  net.add_link(a, b, topology::Mbps(10), topology::milliseconds(1));
  net.add_link(b, c, topology::Mbps(10), topology::milliseconds(1));
  const RoutingTables tables = RoutingTables::build(net);

  const AggregatedLoad load = aggregate_flows(net, tables, {{a, c, 5.0}});
  EXPECT_DOUBLE_EQ(load.link_load[0], 5.0);
  EXPECT_DOUBLE_EQ(load.link_load[1], 5.0);
  EXPECT_DOUBLE_EQ(load.node_load[static_cast<std::size_t>(a)], 5.0);
  EXPECT_DOUBLE_EQ(load.node_load[static_cast<std::size_t>(b)], 5.0);
  EXPECT_DOUBLE_EQ(load.node_load[static_cast<std::size_t>(c)], 5.0);
}

TEST(AggregateFlows, SumsOverlappingFlows) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  const auto hosts = net.hosts();
  std::vector<Flow> flows{{hosts[0], hosts[39], 2.0},
                          {hosts[39], hosts[0], 3.0}};
  const AggregatedLoad load = aggregate_flows(net, tables, flows);
  // Total link volume = volume * hops, per flow.
  const double hops01 = tables.hop_count(hosts[0], hosts[39]);
  const double hops10 = tables.hop_count(hosts[39], hosts[0]);
  double total = 0;
  for (double x : load.link_load) total += x;
  EXPECT_NEAR(total, 2.0 * hops01 + 3.0 * hops10, 1e-9);
}

TEST(AggregateFlows, IgnoresSelfAndRejectsNegative) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  const auto hosts = net.hosts();
  const AggregatedLoad load =
      aggregate_flows(net, tables, {{hosts[0], hosts[0], 7.0}});
  for (double x : load.link_load) EXPECT_DOUBLE_EQ(x, 0.0);
  EXPECT_THROW(aggregate_flows(net, tables, {{hosts[0], hosts[1], -1.0}}),
               std::invalid_argument);
}

TEST(RoutingPartial, MatchesBuildOnConnectedNetworks) {
  for (const Network& net : {make_campus(), make_teragrid()}) {
    const RoutingTables full = RoutingTables::build(net);
    Reachability reach;
    const RoutingTables partial = RoutingTables::build_partial(net, &reach);
    EXPECT_TRUE(reach.fully_connected());
    EXPECT_EQ(reach.component_count, 1);
    EXPECT_EQ(reach.inactive_nodes, 0);
    for (NodeId s = 0; s < net.node_count(); ++s)
      for (NodeId d = 0; d < net.node_count(); ++d) {
        EXPECT_EQ(partial.next_hop(s, d), full.next_hop(s, d));
        EXPECT_EQ(partial.next_link(s, d), full.next_link(s, d));
      }
  }
}

TEST(RoutingPartial, LabelsComponentsOfDisconnectedInput) {
  // a - b    c - d : two components; build() refuses with an actionable
  // message, build_partial() routes within each component.
  Network net;
  const NodeId a = net.add_router("a", 0);
  const NodeId b = net.add_router("b", 0);
  const NodeId c = net.add_router("c", 0);
  const NodeId d = net.add_router("d", 0);
  net.add_link(a, b, topology::Mbps(10), topology::milliseconds(1));
  net.add_link(c, d, topology::Mbps(10), topology::milliseconds(1));

  try {
    RoutingTables::build(net);
    FAIL() << "expected build() to reject a disconnected network";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not connected"), std::string::npos) << what;
    EXPECT_NE(what.find("2 components"), std::string::npos) << what;
    EXPECT_NE(what.find("build_partial"), std::string::npos) << what;
  }

  Reachability reach;
  const RoutingTables tables = RoutingTables::build_partial(net, &reach);
  EXPECT_FALSE(reach.fully_connected());
  EXPECT_EQ(reach.component_count, 2);
  EXPECT_EQ(reach.component[a], reach.component[b]);
  EXPECT_EQ(reach.component[c], reach.component[d]);
  EXPECT_NE(reach.component[a], reach.component[c]);
  EXPECT_TRUE(reach.pair_reachable(a, b));
  EXPECT_FALSE(reach.pair_reachable(a, c));
  EXPECT_EQ(tables.next_hop(a, b), b);
  EXPECT_EQ(tables.next_hop(a, c), -1);
  EXPECT_EQ(tables.next_link(b, d), -1);
  EXPECT_TRUE(tables.reachable(a, b));
  EXPECT_FALSE(tables.reachable(b, c));
  EXPECT_TRUE(tables.reachable(c, c));  // self is always reachable
}

TEST(RoutingPartial, MasksRemoveLinksAndNodes) {
  // Campus with one dist router's first core uplink masked off: still
  // connected via the second uplink. Masking the dist router itself cuts
  // off its access subtree.
  const Network net = make_campus();
  const NodeId dist0 = net.find_node("dist0");
  const NodeId acc0 = net.find_node("acc0");
  ASSERT_GE(dist0, 0);
  ASSERT_GE(acc0, 0);

  std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
  for (topology::LinkId l : net.incident_links(dist0)) {
    const NodeId other = net.link_other_end(l, dist0);
    if (net.node(other).name.rfind("core", 0) == 0) {
      links_up[static_cast<std::size_t>(l)] = 0;  // first core uplink
      break;
    }
  }
  Reachability reach;
  RoutingTables::build_partial(net, &reach, &links_up);
  EXPECT_TRUE(reach.fully_connected());

  std::vector<char> nodes_up(static_cast<std::size_t>(net.node_count()), 1);
  nodes_up[static_cast<std::size_t>(dist0)] = 0;
  Reachability cut;
  const RoutingTables tables =
      RoutingTables::build_partial(net, &cut, nullptr, &nodes_up);
  EXPECT_FALSE(cut.fully_connected());
  EXPECT_FALSE(cut.node_active(dist0));
  EXPECT_EQ(cut.inactive_nodes, 1);
  // acc0 hangs off dist0 only, so it lost the rest of the campus.
  const NodeId core0 = net.find_node("core0");
  EXPECT_FALSE(cut.pair_reachable(acc0, core0));
  EXPECT_EQ(tables.next_hop(acc0, core0), -1);
}

// ---------------------------------------------------------------------------
// Hierarchical backend vs dense: the drop-in-replacement contract.
// ---------------------------------------------------------------------------

/// Every (s, t) of `view`, in order, against `dense`: hop and link.
void expect_all_pairs_match(const RoutingView& view, const RoutingView& dense,
                            const char* pass) {
  for (NodeId s = 0; s < dense.node_count(); ++s)
    for (NodeId t = 0; t < dense.node_count(); ++t) {
      ASSERT_EQ(view.next_hop(s, t), dense.next_hop(s, t))
          << pass << " next_hop mismatch at (" << s << ", " << t << ")";
      ASSERT_EQ(view.next_link(s, t), dense.next_link(s, t))
          << pass << " next_link mismatch at (" << s << ", " << t << ")";
    }
}

TEST(HierarchicalRouting, BitIdenticalToDenseOnJitteredHierarchy) {
  // The generator's latency jitter makes every shortest path unique, so
  // both backends must pick the same next hop AND the same link everywhere.
  const Network net = make_hierarchy(small_hierarchy());
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  ASSERT_EQ(hier.node_count(), dense.node_count());
  // A fresh view has no lookup-memo entries; the second pass answers from
  // them.
  expect_all_pairs_match(hier, dense, "cold");
  expect_all_pairs_match(hier, dense, "warm");
}

TEST(HierarchicalRouting, DistanceMatchesDensePathLatency) {
  const Network net = make_hierarchy(small_hierarchy());
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  for (NodeId s = 0; s < net.node_count(); s += 3)
    for (NodeId t = 0; t < net.node_count(); t += 2) {
      const double expected =
          s == t ? 0.0 : dense.path_latency(net, s, t);
      EXPECT_NEAR(hier.distance(s, t), expected, 1e-12 + expected * 1e-12)
          << "distance mismatch at (" << s << ", " << t << ")";
    }
}

TEST(HierarchicalRouting, EqualLatencyRoutesWithoutJitter) {
  // With jitter off the topology has massive equal-cost multipath; the
  // backends may pick different (equally short) hops, but every chosen
  // route must have the same total latency and the same reachability.
  topology::HierarchyParams params = small_hierarchy();
  params.latency_jitter = 0;
  const Network net = make_hierarchy(params);
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  for (NodeId s = 0; s < net.node_count(); s += 2)
    for (NodeId t = 0; t < net.node_count(); t += 3) {
      if (s == t) continue;
      // Walking the hierarchical next hops must terminate (loop-free) and
      // accumulate exactly the dense shortest-path latency.
      const double expected = dense.path_latency(net, s, t);
      EXPECT_NEAR(hier.path_latency(net, s, t), expected,
                  1e-12 + expected * 1e-12);
    }
}

TEST(HierarchicalRouting, BuildPartialSharesUntouchedDomains) {
  const Network net = make_hierarchy(small_hierarchy());
  const HierarchicalRoutingTables full =
      HierarchicalRoutingTables::build_partial(net);
  const int domains = full.domain_count();

  // Kill one intra-pod link (an access router's first uplink in pod 0):
  // only that pod's DomainTable changes; every other domain is donated.
  const NodeId acc = net.find_node("p0a0");
  ASSERT_GE(acc, 0);
  std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
  links_up[static_cast<std::size_t>(net.incident_links(acc).front())] = 0;

  Reachability reach;
  const HierarchicalRoutingTables degraded =
      HierarchicalRoutingTables::build_partial(net, &reach, &links_up,
                                               nullptr, &full);
  EXPECT_EQ(degraded.shared_domains(), domains - 1);
  EXPECT_TRUE(reach.fully_connected());  // acc is dual-homed

  // The degraded tables must agree with a dense partial build everywhere.
  Reachability dense_reach;
  const RoutingTables dense =
      RoutingTables::build_partial(net, &dense_reach, &links_up);
  EXPECT_EQ(reach.component, dense_reach.component);
  for (NodeId s = 0; s < net.node_count(); ++s)
    for (NodeId t = 0; t < net.node_count(); ++t)
      ASSERT_EQ(degraded.next_hop(s, t), dense.next_hop(s, t))
          << "degraded mismatch at (" << s << ", " << t << ")";
}

TEST(HierarchicalRouting, UplinkDownCutsThePodAndSharesAllDomains) {
  const Network net = make_hierarchy(small_hierarchy());
  const HierarchicalRoutingTables full =
      HierarchicalRoutingTables::build_partial(net);

  // The pod's single uplink is an inter-domain link: no domain's masks
  // change, so every DomainTable is donated — only the border graph and
  // reachability are recomputed.
  const NodeId gw = net.find_node("p0gw");
  ASSERT_GE(gw, 0);
  std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
  bool cut_one = false;
  for (topology::LinkId l : net.incident_links(gw)) {
    const NodeId other = net.link_other_end(l, gw);
    if (net.node(other).name.rfind("bb", 0) == 0) {
      links_up[static_cast<std::size_t>(l)] = 0;
      cut_one = true;
      break;
    }
  }
  ASSERT_TRUE(cut_one);

  Reachability reach;
  const HierarchicalRoutingTables degraded =
      HierarchicalRoutingTables::build_partial(net, &reach, &links_up,
                                               nullptr, &full);
  EXPECT_EQ(degraded.shared_domains(), degraded.domain_count());
  EXPECT_FALSE(reach.fully_connected());
  EXPECT_EQ(reach.component_count, 2);

  const NodeId far = net.find_node("p1gw");
  ASSERT_GE(far, 0);
  EXPECT_FALSE(reach.pair_reachable(gw, far));
  EXPECT_EQ(degraded.next_hop(gw, far), -1);
  EXPECT_EQ(degraded.next_link(gw, far), -1);
  // Intra-pod routing still works.
  const NodeId host = net.find_node("p0h0");
  ASSERT_GE(host, 0);
  EXPECT_TRUE(reach.pair_reachable(gw, host));
  EXPECT_GE(degraded.next_hop(gw, host), 0);

  Reachability dense_reach;
  RoutingTables::build_partial(net, &dense_reach, &links_up);
  EXPECT_EQ(reach.component, dense_reach.component);
}

TEST(HierarchicalRouting, RouterDownMatchesDensePartial) {
  const Network net = make_hierarchy(small_hierarchy());
  // Take down one distribution router; the pod reroutes via the other.
  const NodeId d0 = net.find_node("p2d0");
  ASSERT_GE(d0, 0);
  std::vector<char> nodes_up(static_cast<std::size_t>(net.node_count()), 1);
  nodes_up[static_cast<std::size_t>(d0)] = 0;

  Reachability reach;
  const HierarchicalRoutingTables hier =
      HierarchicalRoutingTables::build_partial(net, &reach, nullptr,
                                               &nodes_up);
  Reachability dense_reach;
  const RoutingTables dense =
      RoutingTables::build_partial(net, &dense_reach, nullptr, &nodes_up);
  EXPECT_EQ(reach.component, dense_reach.component);
  for (NodeId s = 0; s < net.node_count(); ++s)
    for (NodeId t = 0; t < net.node_count(); ++t)
      ASSERT_EQ(hier.next_hop(s, t), dense.next_hop(s, t))
          << "router-down mismatch at (" << s << ", " << t << ")";
}

TEST(HierarchicalRouting, MemoryIsFarBelowDense) {
  topology::HierarchyParams params = small_hierarchy();
  params.pods = 24;
  params.access_per_pod = 4;
  const Network net = make_hierarchy(params);
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  EXPECT_LT(hier.memory_bytes(), dense.memory_bytes() / 2);
  EXPECT_EQ(dense.memory_bytes(),
            RoutingTables::projected_bytes(net.node_count()));
}

TEST(HierarchicalRouting, FactoryPicksBackendBySizeAndStructure) {
  // Flat campus: no domain structure → dense regardless of size.
  const Network campus = make_campus();
  const auto flat = make_routing_view(campus);
  EXPECT_NE(dynamic_cast<const RoutingTables*>(flat.get()), nullptr);

  const Network net = make_hierarchy(small_hierarchy());
  // Below the threshold → dense.
  ASSERT_LT(net.node_count(), kDenseRoutingMaxNodes);
  const auto small = make_routing_view(net);
  EXPECT_NE(dynamic_cast<const RoutingTables*>(small.get()), nullptr);
  // The hierarchical backend answers identically.
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  for (NodeId s = 0; s < net.node_count(); s += 5)
    for (NodeId t = 0; t < net.node_count(); t += 3)
      EXPECT_EQ(hier.next_hop(s, t), small->next_hop(s, t));
}

TEST(HierarchicalRouting, RouteWalksMatchDenseAndScratchVariantAgrees) {
  const Network net = make_hierarchy(small_hierarchy());
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  std::vector<NodeId> scratch;
  std::vector<topology::LinkId> link_scratch;
  for (NodeId s = 0; s < net.node_count(); s += 7)
    for (NodeId t = 0; t < net.node_count(); t += 5) {
      EXPECT_EQ(hier.route(s, t), dense.route(s, t));
      hier.route_into(s, t, scratch);
      EXPECT_EQ(scratch, dense.route(s, t));
      hier.route_links_into(s, t, link_scratch);
      EXPECT_EQ(link_scratch, dense.route_links(s, t));
    }
}

// ---------------------------------------------------------------------------
// The hierarchical lookup memo: answers must not depend on what the memo
// holds (cold, warm, evicted, another view's, another thread's).
// ---------------------------------------------------------------------------

/// 365 nodes: 133,225 ordered pairs, eight times the memo's 2¹⁴ entries.
topology::HierarchyParams memo_overflow_hierarchy() {
  topology::HierarchyParams params = small_hierarchy();
  params.pods = 24;
  params.access_per_pod = 4;
  return params;
}

TEST(HierarchicalMemo, RejectedPairsThrowOnEveryCall) {
  // A pair slot() rejects must never leave an entry behind.
  const Network net = make_hierarchy(small_hierarchy());
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  const NodeId n = hier.node_count();
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW(hier.next_hop(0, n), std::invalid_argument);
    EXPECT_THROW(hier.next_link(n, 0), std::invalid_argument);
    EXPECT_THROW(hier.next_hop(-1, 0), std::invalid_argument);
  }
}

TEST(HierarchicalMemo, ViewsBuiltInTheSameStorageNeverShareAnswers) {
  const Network net = make_hierarchy(small_hierarchy());
  const NodeId gw = net.find_node("p0gw");
  const NodeId far = net.find_node("p1gw");
  ASSERT_GE(gw, 0);
  ASSERT_GE(far, 0);
  std::vector<char> links_up(static_cast<std::size_t>(net.link_count()), 1);
  for (topology::LinkId l : net.incident_links(gw))
    if (net.node(net.link_other_end(l, gw)).name.rfind("bb", 0) == 0)
      links_up[static_cast<std::size_t>(l)] = 0;  // cut pod 0's uplink

  std::optional<HierarchicalRoutingTables> view;
  view.emplace(HierarchicalRoutingTables::build_partial(net));
  // Fill the memo with pairs that cross the uplink (both directions).
  ASSERT_GE(view->next_hop(gw, far), 0);
  for (NodeId s = 0; s < net.node_count(); ++s)
    for (NodeId t = 0; t < net.node_count(); ++t) view->next_link(s, t);
  view.reset();

  Reachability reach;
  view.emplace(HierarchicalRoutingTables::build_partial(net, &reach,
                                                        &links_up));
  ASSERT_FALSE(reach.pair_reachable(gw, far));
  EXPECT_EQ(view->next_hop(gw, far), -1);
  EXPECT_EQ(view->next_link(gw, far), -1);
  const RoutingTables dense =
      RoutingTables::build_partial(net, nullptr, &links_up);
  expect_all_pairs_match(*view, dense, "degraded");
}

TEST(HierarchicalMemo, MorePairsThanEntriesStillMatchDense) {
  const Network net = make_hierarchy(memo_overflow_hierarchy());
  ASSERT_GT(static_cast<std::size_t>(net.node_count()) *
                static_cast<std::size_t>(net.node_count()),
            std::size_t{1} << 14);
  const RoutingTables dense = RoutingTables::build(net);
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  // The second pass finds most entries evicted by the first.
  expect_all_pairs_match(hier, dense, "first");
  expect_all_pairs_match(hier, dense, "second");
}

TEST(HierarchicalMemo, ThreadsSharingOneViewAgreeWithOneThread) {
  const Network net = make_hierarchy(memo_overflow_hierarchy());
  const HierarchicalRoutingTables hier = HierarchicalRoutingTables::build(net);
  const std::size_t n = static_cast<std::size_t>(hier.node_count());
  std::vector<topology::LinkId> reference(n * n);
  for (std::size_t p = 0; p < n * n; ++p)
    reference[p] = hier.next_link(static_cast<NodeId>(p / n),
                                  static_cast<NodeId>(p % n));

  // Each thread walks every pair twice from its own offset: a memo shared
  // between threads would be overwritten under the readers' feet.
  constexpr int kThreads = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w)
    threads.emplace_back([&, w] {
      const std::size_t offset = static_cast<std::size_t>(w) * n * n / kThreads;
      for (std::size_t i = 0; i < 2 * n * n; ++i) {
        const std::size_t p = (offset + i) % (n * n);
        if (hier.next_link(static_cast<NodeId>(p / n),
                           static_cast<NodeId>(p % n)) != reference[p])
          ++mismatches[static_cast<std::size_t>(w)];
      }
    });
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(w)], 0u) << "thread " << w;
}

}  // namespace
}  // namespace massf::routing
