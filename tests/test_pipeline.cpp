// Tests for the experiment pipeline details not covered by the
// integration suite: imbalance series math, the profile-reuse hook, and
// HTTP dynamics-seed variation.
#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.hpp"
#include "topology/topologies.hpp"
#include "traffic/http.hpp"

namespace massf::mapping {
namespace {

TEST(RunMetrics, ImbalanceSeriesPerBucket) {
  RunMetrics metrics;
  metrics.engine_series = {{4, 0, 2}, {4, 8, 2}};
  const auto series = metrics.imbalance_series();
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 0.0);  // 4,4 balanced
  EXPECT_DOUBLE_EQ(series[1], 1.0);  // 0,8 → std 4 / mean 4
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

TEST(RunMetrics, ImbalanceSeriesEmpty) {
  RunMetrics metrics;
  EXPECT_TRUE(metrics.imbalance_series().empty());
}

struct Fixture {
  topology::Network network = topology::make_campus();
  routing::RoutingTables routes = routing::RoutingTables::build(network);

  std::shared_ptr<traffic::HttpBackground> http(std::uint64_t dynamics) {
    traffic::HttpParams params;
    params.server_number = 6;
    params.clients_per_server = 4;
    params.think_time_s = 2;
    params.duration_s = 40;
    params.seed = 99;  // identical placement across variants
    params.dynamics_seed = dynamics;
    return std::make_shared<traffic::HttpBackground>(network, params);
  }

  ExperimentSetup setup(std::shared_ptr<const traffic::Workload> workload) {
    ExperimentSetup s;
    s.network = &network;
    s.routes = &routes;
    s.workload = std::move(workload);
    s.engines = 3;
    s.mapping.partition.epsilon = 0.12;
    return s;
  }
};

TEST(DynamicsSeed, SamePlacementDifferentTraffic) {
  Fixture fx;
  const auto a = fx.http(1);
  const auto b = fx.http(2);
  // Placement identical...
  ASSERT_EQ(a->pairs(), b->pairs());
  // ...but the emulated traffic differs (different think times/sizes).
  emu::Emulator emu_a(fx.network, fx.routes,
                      std::vector<int>(static_cast<std::size_t>(
                                           fx.network.node_count()),
                                       0),
                      1);
  emu::Emulator emu_b(fx.network, fx.routes,
                      std::vector<int>(static_cast<std::size_t>(
                                           fx.network.node_count()),
                                       0),
                      1);
  a->install(emu_a);
  b->install(emu_b);
  emu_a.run(100);
  emu_b.run(100);
  EXPECT_NE(emu_a.kernel_stats().history_hash,
            emu_b.kernel_stats().history_hash);
  // Zero dynamics seed falls back to the placement seed (deterministic).
  const auto c = fx.http(0);
  emu::Emulator emu_c(fx.network, fx.routes,
                      std::vector<int>(static_cast<std::size_t>(
                                           fx.network.node_count()),
                                       0),
                      1);
  c->install(emu_c);
  emu_c.run(100);
  EXPECT_GT(emu_c.stats().messages_delivered, 0u);
}

TEST(ProfileReuse, StaleProfileStillMapsWell) {
  Fixture fx;
  // Measured run uses dynamics 1; the profiling run uses dynamics 2.
  ExperimentSetup setup = fx.setup(fx.http(1));
  setup.profile_workload = fx.http(2);
  Experiment experiment(std::move(setup));
  const MappingResult mapped = experiment.map(Approach::Profile);
  partition::validate_assignment(fx.network.to_graph(), mapped.node_engine,
                                 3);
  const RunMetrics metrics = experiment.run(mapped);
  EXPECT_GT(metrics.sim_time, 10);

  // The stale profile should still clearly beat TOP (placement dominates
  // which links are hot; dynamics only jitter the volumes).
  ExperimentSetup fresh_setup = fx.setup(fx.http(1));
  Experiment fresh(std::move(fresh_setup));
  const RunMetrics top = fresh.run(fresh.map(Approach::Top));
  EXPECT_LT(metrics.load_imbalance, top.load_imbalance * 0.9);
}

TEST(Experiment, RejectsDisconnectedNetworkWithActionableError) {
  topology::Network net;
  const topology::NodeId a = net.add_host("a", 0);
  const topology::NodeId b = net.add_host("b", 0);
  net.add_host("island", 0);  // never linked
  net.add_link(a, b, topology::Mbps(10), topology::milliseconds(1));
  // Routing tables for the connected part only, via the partial builder.
  const routing::RoutingTables routes =
      routing::RoutingTables::build_partial(net);

  Fixture fx;  // only for a workload object
  ExperimentSetup setup;
  setup.network = &net;
  setup.routes = &routes;
  setup.workload = fx.http(1);
  setup.engines = 2;
  try {
    Experiment experiment(std::move(setup));
    FAIL() << "expected the disconnected network to be rejected";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disconnected"), std::string::npos) << what;
    EXPECT_NE(what.find("2 components"), std::string::npos) << what;
    EXPECT_NE(what.find("fault::FaultPlan"), std::string::npos) << what;
  }
}

TEST(Experiment, FaultTimelineFlowsThroughRunMetrics) {
  Fixture fx;
  fault::FaultPlan plan;
  // Cut one dist-core uplink mid-run; the campus stays connected.
  const topology::NodeId dist0 = fx.network.find_node("dist0");
  ASSERT_GE(dist0, 0);
  topology::LinkId uplink = -1;
  for (topology::LinkId l : fx.network.incident_links(dist0)) {
    if (fx.network.node(fx.network.link_other_end(l, dist0))
            .name.rfind("core", 0) == 0) {
      uplink = l;
      break;
    }
  }
  ASSERT_GE(uplink, 0);
  plan.link_outage(uplink, 15.0, 30.0);
  const fault::FaultTimeline timeline(fx.network, plan);

  ExperimentSetup setup = fx.setup(fx.http(1));
  setup.faults = &timeline;
  Experiment experiment(std::move(setup));
  const RunMetrics metrics = experiment.run(experiment.map(Approach::Top));
  ASSERT_EQ(metrics.epochs.size(), timeline.epoch_count());
  EXPECT_DOUBLE_EQ(metrics.epochs[1].start, 15.0);
  EXPECT_DOUBLE_EQ(metrics.epochs[1].end, 30.0);
  EXPECT_EQ(metrics.epochs[1].links_down, 1);
  EXPECT_GT(metrics.emulator_stats.messages_delivered, 0u);
}

TEST(Experiment, HandoffDiagnosticsFlowThroughRunMetrics) {
  // handoff_runs and parks are copied from KernelStats as diagnostics:
  // a Sequential run never parks, and every remote message rides some
  // handoff run. Threaded values depend on timing, so only the history
  // hash is compared across modes.
  Fixture fx;
  Experiment sequential(fx.setup(fx.http(1)));
  const MappingResult mapped = sequential.map(Approach::Top);
  const RunMetrics seq = sequential.run(mapped);
  ASSERT_GT(seq.remote_messages, 0u);
  EXPECT_GT(seq.handoff_runs, 0u);
  EXPECT_LE(seq.handoff_runs, seq.remote_messages);
  EXPECT_EQ(seq.parks, 0u);

  ExperimentSetup threaded_setup = fx.setup(fx.http(1));
  threaded_setup.mode = des::ExecutionMode::Threaded;
  Experiment threaded(std::move(threaded_setup));
  const RunMetrics thr = threaded.run(mapped);
  EXPECT_EQ(thr.history_hash, seq.history_hash);
  EXPECT_GT(thr.handoff_runs, 0u);
}

}  // namespace
}  // namespace massf::mapping
