// Tests for the core contribution: weight builders, segment clustering,
// the multi-objective combination, and the TOP/PLACE/PROFILE mappers.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/cluster.hpp"
#include "core/mapper.hpp"
#include "core/weights.hpp"
#include "partition/multiobjective.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/cbr.hpp"
#include "traffic/http.hpp"

namespace massf::mapping {
namespace {

using routing::RoutingTables;
using topology::make_campus;
using topology::make_teragrid;
using topology::Network;

struct Fixture {
  Network net = make_campus();
  RoutingTables tables = RoutingTables::build(net);
  Mapper mapper{net, tables};
};

TEST(Weights, MemoryFormulaMatchesPaper) {
  const Network net = make_teragrid();  // ASes of different sizes
  const auto weights = memory_weights(net);
  const auto is_router = [&](topology::NodeId v) {
    return net.node(v).kind == topology::NodeKind::Router;
  };
  for (topology::NodeId v = 0; v < net.node_count(); ++v) {
    const auto& node = net.node(v);
    if (is_router(v)) {
      double x = 0;  // routers in v's AS
      for (topology::NodeId u = 0; u < net.node_count(); ++u)
        if (is_router(u) && net.node(u).as_id == node.as_id) x += 1;
      EXPECT_DOUBLE_EQ(weights[static_cast<std::size_t>(v)], 10 + x * x);
    } else {
      EXPECT_DOUBLE_EQ(weights[static_cast<std::size_t>(v)], 1.0);
    }
  }
}

TEST(Weights, BandwidthWeightIsIncidentSum) {
  Fixture fx;
  const auto weights = bandwidth_weights(fx.net);
  for (topology::NodeId v = 0; v < fx.net.node_count(); ++v)
    EXPECT_DOUBLE_EQ(weights[static_cast<std::size_t>(v)],
                     fx.net.total_incident_bandwidth(v) / 1e6);
}

TEST(Weights, LatencyObjectiveFavorsSlowLinks) {
  Fixture fx;
  const auto structure = fx.net.to_graph();
  const auto weights = latency_arc_weights(fx.net, structure);
  // Every weight is in (0, 1]; the minimum-latency link gets exactly 1 and
  // the penalty decays quadratically with link latency.
  double max_weight = 0;
  for (double w : weights) {
    EXPECT_GT(w, 0);
    EXPECT_LE(w, 1.0 + 1e-12);
    max_weight = std::max(max_weight, w);
  }
  EXPECT_NEAR(max_weight, 1.0, 1e-12);
  // Spot check the quadratic: a 1 ms link vs the 0.1 ms minimum → 0.01.
  const auto& net = fx.net;
  const double min_lat = net.min_link_latency();
  for (graph::VertexId u = 0; u < structure.vertex_count(); ++u)
    for (auto a = structure.arc_begin(u); a != structure.arc_end(u); ++a) {
      const auto link = net.find_link(u, structure.arc_target(a));
      ASSERT_TRUE(link.has_value());
      const double ratio = min_lat / net.link(*link).latency_s;
      EXPECT_NEAR(weights[static_cast<std::size_t>(a)], ratio * ratio, 1e-12);
    }
}

TEST(Weights, TrafficObjectiveMirrorsLinkLoads) {
  Fixture fx;
  const auto structure = fx.net.to_graph();
  std::vector<double> loads(static_cast<std::size_t>(fx.net.link_count()),
                            0.0);
  loads[3] = 42.0;
  const auto weights = traffic_arc_weights(fx.net, structure, loads);
  const topology::Link& link = fx.net.link(3);
  // Find the arc link.a -> link.b and check its weight.
  bool found = false;
  for (auto a = structure.arc_begin(link.a); a != structure.arc_end(link.a);
       ++a) {
    if (structure.arc_target(a) == link.b) {
      EXPECT_DOUBLE_EQ(weights[static_cast<std::size_t>(a)], 42.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MultiObjective, ExtremePrioritiesReduceToSingleObjective) {
  Fixture fx;
  const auto structure = fx.net.to_graph();
  std::vector<double> loads(static_cast<std::size_t>(fx.net.link_count()),
                            1.0);
  const auto objectives = make_objectives(fx.net, structure, loads);

  const auto combined_latency =
      partition::combine_objectives(objectives, 10.0, 20.0, 1.0);
  for (std::size_t i = 0; i < combined_latency.size(); ++i)
    EXPECT_DOUBLE_EQ(combined_latency[i], objectives.latency[i] / 10.0);

  const auto combined_traffic =
      partition::combine_objectives(objectives, 10.0, 20.0, 0.0);
  for (std::size_t i = 0; i < combined_traffic.size(); ++i)
    EXPECT_DOUBLE_EQ(combined_traffic[i], objectives.traffic[i] / 20.0);
}

TEST(Cluster, SplitsAtDominanceChange) {
  // Engine 0 dominates buckets 0-9, engine 1 dominates 10-19.
  std::vector<std::vector<double>> curves(2, std::vector<double>(20, 1.0));
  for (int b = 0; b < 10; ++b) curves[0][static_cast<std::size_t>(b)] = 10;
  for (int b = 10; b < 20; ++b) curves[1][static_cast<std::size_t>(b)] = 10;
  const auto segments = cluster_segments(curves);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].dominating, 0);
  EXPECT_EQ(segments[1].dominating, 1);
  EXPECT_EQ(segments[0].begin, 0u);
  EXPECT_EQ(segments[1].end, 20u);
}

TEST(Cluster, DropsIdleBuckets) {
  // Load only in buckets 5..14; the rest is idle and must be excluded.
  std::vector<std::vector<double>> curves(1, std::vector<double>(30, 0.0));
  for (int b = 5; b < 15; ++b) curves[0][static_cast<std::size_t>(b)] = 100;
  const auto segments = cluster_segments(curves);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].begin, 5u);
  EXPECT_EQ(segments[0].end, 15u);
}

TEST(Cluster, IgnoresShortBlips) {
  std::vector<std::vector<double>> curves(2, std::vector<double>(20, 1.0));
  for (int b = 0; b < 20; ++b) curves[0][static_cast<std::size_t>(b)] = 10;
  curves[1][9] = 100;  // single-bucket blip of engine 1
  ClusterOptions options;
  options.smooth_half_window = 0;  // keep the blip visible to the splitter
  const auto segments = cluster_segments(curves, options);
  EXPECT_EQ(segments.size(), 1u);
}

TEST(Cluster, RespectsMaxSegments) {
  // Dominance alternates every 4 buckets → many candidate segments.
  std::vector<std::vector<double>> curves(2, std::vector<double>(32, 1.0));
  for (int b = 0; b < 32; ++b)
    curves[static_cast<std::size_t>((b / 4) % 2)][static_cast<std::size_t>(b)] =
        10;
  ClusterOptions options;
  options.max_segments = 3;
  options.smooth_half_window = 0;
  options.min_segment_buckets = 2;
  const auto segments = cluster_segments(curves, options);
  EXPECT_LE(segments.size(), 3u);
  EXPECT_GE(segments.size(), 2u);
}

TEST(Cluster, AllIdleYieldsNothing) {
  std::vector<std::vector<double>> curves(2, std::vector<double>(10, 0.0));
  EXPECT_TRUE(cluster_segments(curves).empty());
}

TEST(Cluster, SegmentNodeWeightsSumSeries) {
  std::vector<std::vector<double>> node_series{
      {1, 2, 3, 4}, {10, 20, 30, 40}};
  std::vector<Segment> segments{{0, 2, 0}, {2, 4, 1}};
  const auto weights = segment_node_weights(node_series, segments);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0][0], 3.0);
  EXPECT_DOUBLE_EQ(weights[0][1], 30.0);
  EXPECT_DOUBLE_EQ(weights[1][0], 7.0);
  EXPECT_DOUBLE_EQ(weights[1][1], 70.0);
}

TEST(Mapper, TopProducesValidBalancedMapping) {
  Fixture fx;
  MappingOptions options;
  options.engines = 3;
  const MappingResult result = fx.mapper.map_top(options);
  partition::validate_assignment(fx.net.to_graph(), result.node_engine, 3);
  EXPECT_EQ(result.approach, Approach::Top);
  EXPECT_GT(result.lookahead, 0);
  EXPECT_GT(result.links_cut, 0);
  EXPECT_DOUBLE_EQ(result.traffic_cut, 0);  // TOP has no traffic estimate
}

TEST(Mapper, ForegroundHeuristicIsEvenAllToAll) {
  Fixture fx;
  const auto hosts = fx.net.hosts();
  const std::vector<topology::NodeId> points{hosts[0], hosts[1], hosts[2]};
  const auto flows = fx.mapper.foreground_flows(points, 1500);
  EXPECT_EQ(flows.size(), 6u);  // ordered pairs
  // Every flow from the same source has equal volume = access_pps / 2.
  const double expected =
      fx.net.total_incident_bandwidth(hosts[0]) / 8.0 / 1500.0 / 2.0;
  for (const auto& flow : flows) {
    if (flow.src == hosts[0]) {
      EXPECT_NEAR(flow.volume, expected, 1e-9);
    }
  }
}

TEST(Mapper, PlaceEstimateLoadsUsedRoutesOnly) {
  Fixture fx;
  const auto hosts = fx.net.hosts();
  // Single heavy CBR flow between two hosts; estimate must load exactly the
  // links on its route.
  auto cbr = std::make_shared<traffic::CbrTraffic>(
      std::vector<traffic::CbrFlowSpec>{{hosts[0], hosts[39], 15000, 0.1, 0}},
      traffic::CbrParams{});
  MappingOptions options;
  options.engines = 3;
  const TrafficEstimate estimate = fx.mapper.estimate_place(*cbr, options);

  const auto route_links = fx.tables.route_links(hosts[0], hosts[39]);
  const std::set<topology::LinkId> on_route(route_links.begin(),
                                            route_links.end());
  for (topology::LinkId l = 0; l < fx.net.link_count(); ++l) {
    if (on_route.count(l))
      EXPECT_GT(estimate.link_load[static_cast<std::size_t>(l)], 0)
          << "link " << l;
    else
      EXPECT_DOUBLE_EQ(estimate.link_load[static_cast<std::size_t>(l)], 0);
  }
}

TEST(Mapper, TracerouteAndTableEstimatesAgree) {
  Fixture fx;
  traffic::HttpParams params;
  params.server_number = 6;
  params.clients_per_server = 2;
  const auto http = std::make_shared<traffic::HttpBackground>(fx.net, params);
  MappingOptions options;
  options.engines = 3;
  const TrafficEstimate a = fx.mapper.estimate_place(*http, options);
  // The same background and foreground flows over the routing tables.
  std::vector<routing::Flow> flows = http->predicted_background(fx.net);
  const std::vector<routing::Flow> foreground = fx.mapper.foreground_flows(
      http->injection_points(), options.mtu_bytes,
      options.foreground_utilization);
  flows.insert(flows.end(), foreground.begin(), foreground.end());
  const routing::AggregatedLoad b =
      routing::aggregate_flows(fx.net, fx.tables, flows);
  ASSERT_EQ(a.link_load.size(), b.link_load.size());
  for (std::size_t l = 0; l < a.link_load.size(); ++l)
    EXPECT_NEAR(a.link_load[l], b.link_load[l], 1e-6) << "link " << l;
}

TEST(Mapper, PlaceProducesValidMapping) {
  Fixture fx;
  traffic::HttpParams params;
  params.server_number = 6;
  params.clients_per_server = 2;
  const auto http = std::make_shared<traffic::HttpBackground>(fx.net, params);
  MappingOptions options;
  options.engines = 3;
  const MappingResult result = fx.mapper.map_place(*http, options);
  partition::validate_assignment(fx.net.to_graph(), result.node_engine, 3);
  EXPECT_EQ(result.approach, Approach::Place);
  EXPECT_GT(result.lookahead, 0);
}

}  // namespace
}  // namespace massf::mapping
