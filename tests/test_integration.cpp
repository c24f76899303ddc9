// End-to-end integration tests: the full map → emulate → measure pipeline
// on a real topology, checking the paper's qualitative claims hold and
// that the pieces compose (profiling, replay, threaded execution).
#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.hpp"
#include "emu/trace.hpp"
#include "topology/topologies.hpp"
#include "traffic/http.hpp"
#include "traffic/scalapack.hpp"
#include "util/rng.hpp"

namespace massf::mapping {
namespace {

/// Shared small-but-meaningful experiment: campus + skewed HTTP + a small
/// ScaLapack app, ~1 s of wall time per emulation.
struct Fixture {
  topology::Network network = topology::make_campus();
  routing::RoutingTables routes = routing::RoutingTables::build(network);
  std::shared_ptr<traffic::CompositeWorkload> workload;
  std::vector<topology::NodeId> app_hosts;

  Fixture() {
    Rng rng(5);
    auto hosts = network.hosts();
    rng.shuffle(hosts);
    app_hosts.assign(hosts.begin(), hosts.begin() + 6);

    workload = std::make_shared<traffic::CompositeWorkload>();
    traffic::ScalapackParams app;
    app.matrix_n = 1200;
    app.block_nb = 100;
    app.size_scale = 0.5;
    app.total_compute_s = 20;
    workload->add(std::make_shared<traffic::ScalapackApp>(app_hosts, app));

    traffic::HttpParams http;
    http.server_number = 8;
    http.clients_per_server = 8;
    http.think_time_s = 2;
    http.duration_s = 80;
    workload->add(std::make_shared<traffic::HttpBackground>(network, http,
                                                            app_hosts));
  }

  ExperimentSetup setup(int replica = 0) const {
    ExperimentSetup s;
    s.network = &network;
    s.routes = &routes;
    s.workload = workload;
    s.engines = 3;
    s.mapping.partition.epsilon = 0.12;
    s.mapping.partition.seed = 100 + static_cast<std::uint64_t>(replica);
    s.mapping.foreground_utilization = 0.1;
    return s;
  }
};

TEST(Integration, AllApproachesProduceValidRunnableMappings) {
  Fixture fx;
  Experiment experiment(fx.setup());
  for (auto approach :
       {Approach::Top, Approach::Place, Approach::Profile}) {
    const MappingResult mapped = experiment.map(approach);
    partition::validate_assignment(fx.network.to_graph(), mapped.node_engine,
                                   3);
    EXPECT_GT(mapped.lookahead, 0);
    const RunMetrics metrics = experiment.run(mapped);
    EXPECT_GT(metrics.sim_time, 50);  // the workload actually ran
    EXPECT_GT(metrics.emulation_time, 0);
    EXPECT_EQ(metrics.engine_events.size(), 3u);
    double total = 0;
    for (double e : metrics.engine_events) total += e;
    EXPECT_GT(total, 1000);
  }
}

TEST(Integration, ProfileBeatsTopOnImbalance) {
  Fixture fx;
  // Averaged over two partition seeds for robustness.
  double top = 0, profile = 0;
  for (int r = 0; r < 2; ++r) {
    Experiment experiment(fx.setup(r));
    top += experiment.run(experiment.map(Approach::Top)).load_imbalance;
    profile +=
        experiment.run(experiment.map(Approach::Profile)).load_imbalance;
  }
  EXPECT_LT(profile, top * 0.75)
      << "PROFILE=" << profile / 2 << " TOP=" << top / 2;
}

TEST(Integration, ProfilingRunIsCachedAndExposed) {
  Fixture fx;
  Experiment experiment(fx.setup());
  EXPECT_FALSE(experiment.profiling_metrics().has_value());
  const MappingResult first = experiment.map(Approach::Profile);
  ASSERT_TRUE(experiment.profiling_metrics().has_value());
  const double profiled_time = experiment.profiling_metrics()->emulation_time;
  EXPECT_GT(profiled_time, 0);
  // Second call reuses the cached profile (same mapping, no new run).
  const MappingResult second = experiment.map(Approach::Profile);
  EXPECT_EQ(first.node_engine, second.node_engine);
  EXPECT_DOUBLE_EQ(experiment.profiling_metrics()->emulation_time,
                   profiled_time);

  // The profiling run is the TOP-mapped run with NetFlow on, so its metrics
  // equal run(map(Top))'s; bench_ablations reads its TOP rows from it.
  const RunMetrics& profiled = *experiment.profiling_metrics();
  const RunMetrics top = experiment.run(experiment.map(Approach::Top));
  EXPECT_EQ(profiled.history_hash, top.history_hash);
  EXPECT_EQ(profiled.windows, top.windows);
  EXPECT_EQ(profiled.remote_messages, top.remote_messages);
  EXPECT_EQ(profiled.emulation_time, top.emulation_time);
  EXPECT_EQ(profiled.network_time, top.network_time);
  EXPECT_EQ(profiled.load_imbalance, top.load_imbalance);
  EXPECT_EQ(profiled.lookahead, top.lookahead);
}

TEST(Integration, TotalEventsAreMappingInvariant) {
  // The same workload produces the same total kernel events under any
  // mapping (drops aside — queue caps are generous in this fixture).
  Fixture fx;
  Experiment experiment(fx.setup());
  double first_total = -1;
  for (auto approach : {Approach::Top, Approach::Place}) {
    const RunMetrics metrics = experiment.run(experiment.map(approach));
    double total = 0;
    for (double e : metrics.engine_events) total += e;
    if (first_total < 0)
      first_total = total;
    else
      EXPECT_NEAR(total, first_total, first_total * 0.01);
  }
}

TEST(Integration, RecordedTraceReplaysCausallyAndFaster) {
  Fixture fx;
  Experiment experiment(fx.setup());
  const MappingResult top = experiment.map(Approach::Top);
  emu::Trace trace;
  const RunMetrics live = experiment.run(top, &trace);
  EXPECT_GT(trace.total_messages(), 100u);

  const RunMetrics replayed = experiment.replay(trace, top);
  // Replay has no application compute: it finishes in far less simulated
  // time and its engine-only cost is below the live coupled time.
  EXPECT_LT(replayed.sim_time, live.sim_time * 0.7);
  EXPECT_LT(replayed.network_time, live.emulation_time);
}

TEST(Integration, ThreadedExecutionMatchesSequential) {
  Fixture fx;
  ExperimentSetup sequential = fx.setup();
  ExperimentSetup threaded = fx.setup();
  threaded.mode = des::ExecutionMode::Threaded;

  Experiment seq_exp(std::move(sequential));
  Experiment thr_exp(std::move(threaded));
  const MappingResult seq_map = seq_exp.map(Approach::Top);
  const MappingResult thr_map = thr_exp.map(Approach::Top);
  ASSERT_EQ(seq_map.node_engine, thr_map.node_engine);

  const RunMetrics seq = seq_exp.run(seq_map);
  const RunMetrics thr = thr_exp.run(thr_map);
  EXPECT_EQ(seq.engine_events, thr.engine_events);
  EXPECT_EQ(seq.windows, thr.windows);
  EXPECT_EQ(seq.remote_messages, thr.remote_messages);
  EXPECT_NEAR(seq.emulation_time, thr.emulation_time, 1e-6);
}

TEST(Integration, MappingRejectsEngineMismatch) {
  Fixture fx;
  Experiment experiment(fx.setup());
  MappingResult mapped = experiment.map(Approach::Top);
  mapped.engines = 7;  // corrupt
  EXPECT_THROW(experiment.run(mapped), std::invalid_argument);
}

}  // namespace
}  // namespace massf::mapping
