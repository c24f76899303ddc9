// Adaptive-rebalance subsystem tests: kernel safepoints and keyed event
// rehoming, incremental repartitioning (refine_from / map_incremental),
// the emulator's live-migration path, the monitor/policy units, and the
// end-to-end determinism contract — history_hash bit-identical across
// Sequential × Threaded for both SyncModes with migrations executed
// mid-run, including under a random fault plan.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "des/kernel.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "graph/graph.hpp"
#include "kernel_script.hpp"
#include "partition/partition.hpp"
#include "partition/refine.hpp"
#include "rebalance/monitor.hpp"
#include "rebalance/policy.hpp"
#include "rebalance/rebalancer.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace massf {
namespace {

using emu::Emulator;
using emu::EmulatorConfig;
using fault::FaultPlan;
using fault::FaultTimeline;
using routing::RoutingTables;
using topology::Network;
using topology::NodeId;

constexpr std::array<des::ExecutionMode, 2> kModes = {
    des::ExecutionMode::Sequential, des::ExecutionMode::Threaded};
constexpr std::array<des::SyncMode, 2> kSyncs = {
    des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead};

// ---- Kernel: safepoints --------------------------------------------------

/// Two LPs bouncing a remote event chain; returns the kernel stats.
des::KernelStats run_pingpong(des::ExecutionMode mode, des::SyncMode sync,
                              const std::vector<double>& safepoints,
                              std::vector<double>* fired = nullptr) {
  des::Kernel kernel(2, 0.01);
  kernel.set_sync_mode(sync);
  class Bounce : public des::EventSink {
   public:
    explicit Bounce(des::Kernel& k) : kernel_(k) {}
    void on_packet_event(const des::PacketEvent&) override {
      const double t = kernel_.now();
      if (t > 0.9) return;
      kernel_.schedule_packet_remote(1 - kernel_.current_lp(), t + 0.02, {});
    }
    des::Kernel& kernel_;
  };
  Bounce bounce(kernel);
  kernel.set_event_sink(&bounce);
  kernel.schedule_packet(0, 0.005, {});
  kernel.schedule_packet(1, 0.007, {});
  for (const double sp : safepoints) kernel.add_safepoint(sp);
  if (fired != nullptr) {
    kernel.set_safepoint_hook([fired](des::SimTime t) {
      fired->push_back(t);
    });
  }
  kernel.run_until(1.0, mode);
  return kernel.stats();
}

TEST(KernelSafepoint, QuiescentHookPreservesHistoryAcrossAllCombos) {
  const des::KernelStats baseline =
      run_pingpong(des::ExecutionMode::Sequential,
                   des::SyncMode::GlobalWindow, {});
  ASSERT_GT(baseline.history_hash, 0u);
  EXPECT_EQ(baseline.safepoints, 0u);

  for (const auto mode : kModes) {
    for (const auto sync : kSyncs) {
      SCOPED_TRACE(::testing::Message()
                   << "mode " << static_cast<int>(mode) << " sync "
                   << static_cast<int>(sync));
      std::vector<double> fired;
      // 5.0 is past end_time and must never fire; 0.25 twice coalesces.
      const des::KernelStats stats = run_pingpong(
          mode, sync, {0.25, 0.25, 0.55, 5.0}, &fired);
      // A quiescent pause is invisible to the event history.
      EXPECT_EQ(stats.history_hash, baseline.history_hash);
      EXPECT_EQ(stats.events_per_lp, baseline.events_per_lp);
      EXPECT_EQ(stats.safepoints, 2u);
      ASSERT_EQ(fired.size(), 2u);
      EXPECT_DOUBLE_EQ(fired[0], 0.25);
      EXPECT_DOUBLE_EQ(fired[1], 0.55);
    }
  }
}

/// 40 keyed one-shot events on LP0 (key 7), a safepoint at t = 0.5 whose
/// hook rehomes key 7 to LP1, and pinned (-1) control events on LP1.
des::KernelStats run_rehome(des::ExecutionMode mode, des::SyncMode sync,
                            std::array<std::uint64_t, 2>* counts_out) {
  des::Kernel kernel(2, 0.05);
  kernel.set_sync_mode(sync);
  des::ScriptSink script(kernel);
  std::array<std::uint64_t, 2> counts{};
  for (int i = 0; i < 40; ++i) {
    script.at(0, 0.05 + 0.02 * i,
              [&kernel, &counts] {
                ++counts[static_cast<std::size_t>(kernel.current_lp())];
              },
              /*key=*/7);
  }
  for (int i = 0; i < 10; ++i) kernel.schedule_packet(1, 0.06 + 0.08 * i, {});
  kernel.add_safepoint(0.5);
  kernel.set_safepoint_hook([&kernel](des::SimTime) {
    kernel.rehome_events([](std::int32_t key) { return key == 7 ? 1 : 0; });
  });
  kernel.run_until(1.0, mode);
  if (counts_out != nullptr) *counts_out = counts;
  return kernel.stats();
}

TEST(KernelSafepoint, KeyedRehomeMovesPendingEventsDeterministically) {
  std::array<std::uint64_t, 2> baseline_counts{};
  const des::KernelStats baseline = run_rehome(
      des::ExecutionMode::Sequential, des::SyncMode::GlobalWindow,
      &baseline_counts);
  // Events at t = 0.05 + 0.02 i: i <= 22 executes before the safepoint on
  // LP0; the remaining 17 were rehomed and execute on LP1.
  EXPECT_EQ(baseline_counts[0], 23u);
  EXPECT_EQ(baseline_counts[1], 17u);
  EXPECT_EQ(baseline.events_rehomed, 17u);
  EXPECT_EQ(baseline.safepoints, 1u);

  for (const auto mode : kModes) {
    for (const auto sync : kSyncs) {
      SCOPED_TRACE(::testing::Message()
                   << "mode " << static_cast<int>(mode) << " sync "
                   << static_cast<int>(sync));
      std::array<std::uint64_t, 2> counts{};
      const des::KernelStats stats = run_rehome(mode, sync, &counts);
      EXPECT_EQ(stats.history_hash, baseline.history_hash);
      EXPECT_EQ(stats.events_per_lp, baseline.events_per_lp);
      EXPECT_EQ(stats.events_rehomed, baseline.events_rehomed);
      EXPECT_EQ(counts, baseline_counts);
    }
  }
}

// ---- Partition: incremental refinement -----------------------------------

graph::Graph ring_graph(int n) {
  graph::GraphBuilder b(1);
  for (int i = 0; i < n; ++i) b.add_vertex(1.0);
  for (int i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n, 1.0);
  return b.build();
}

TEST(RefineFrom, ImprovesBadSeedWithoutFullRepartition) {
  const graph::Graph g = ring_graph(8);
  const partition::Assignment seed = {0, 1, 0, 1, 0, 1, 0, 1};  // cut = 8
  partition::PartitionOptions options;
  options.parts = 2;
  options.epsilon = 0.3;
  options.seed = 11;
  const partition::PartitionResult result =
      partition::refine_from(g, seed, options);
  ASSERT_EQ(result.assignment.size(), 8u);
  for (int p : result.assignment) EXPECT_TRUE(p == 0 || p == 1);
  EXPECT_LT(result.edge_cut, partition::edge_cut(g, seed));
  EXPECT_LE(result.worst_balance, 1.0 + options.epsilon + 1e-9);
}

TEST(RefineFrom, OptimalSeedIsAFixedPoint) {
  const graph::Graph g = ring_graph(8);
  const partition::Assignment seed = {0, 0, 0, 0, 1, 1, 1, 1};  // cut = 2
  partition::PartitionOptions options;
  options.parts = 2;
  options.epsilon = 0.1;
  const partition::PartitionResult result =
      partition::refine_from(g, seed, options);
  // No drift, already optimal: migration volume must be zero (the
  // Schloegel–Karypis property a fresh multilevel run cannot give).
  EXPECT_EQ(result.assignment, seed);
  EXPECT_DOUBLE_EQ(result.edge_cut, 2.0);
}

// ---- Monitor and policy units --------------------------------------------

TEST(LoadMonitor, IdleEmulatorReadsAsBalanced) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % 2;
  Emulator emulator(net, tables, placement, 2);

  rebalance::LoadMonitor monitor(10.0);
  EXPECT_EQ(monitor.samples(), 0u);
  EXPECT_TRUE(monitor.engine_rates().empty());
  EXPECT_DOUBLE_EQ(monitor.imbalance(), 1.0);

  monitor.sample(emulator, 1.0);
  monitor.sample(emulator, 2.0);
  EXPECT_EQ(monitor.samples(), 2u);
  const std::vector<double> rates = monitor.engine_rates();
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_DOUBLE_EQ(monitor.imbalance(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.observed_event_rate(), 0.0);
  EXPECT_FALSE(monitor.node_rates().empty());

  // Samples must move forward in time.
  EXPECT_THROW(monitor.sample(emulator, 1.5), std::invalid_argument);

  monitor.reset(5.0);
  EXPECT_EQ(monitor.samples(), 0u);
}

TEST(RebalancePolicy, HysteresisAndCooldownGateTheTrigger) {
  rebalance::PolicyConfig config;
  config.trigger = 0.25;
  config.hysteresis = 2;
  config.cooldown_s = 10.0;
  rebalance::RebalancePolicy policy(config);

  EXPECT_FALSE(policy.should_consider(1.5, 100.0));  // streak 1 of 2
  EXPECT_TRUE(policy.should_consider(1.5, 105.0));   // streak 2 of 2
  EXPECT_FALSE(policy.should_consider(1.1, 110.0));  // below: streak resets
  EXPECT_FALSE(policy.should_consider(1.5, 115.0));
  EXPECT_TRUE(policy.should_consider(1.5, 120.0));

  policy.on_migrated(120.0);
  EXPECT_FALSE(policy.should_consider(2.0, 125.0));  // cooling down
  EXPECT_FALSE(policy.should_consider(2.0, 131.0));  // streak restarted
  EXPECT_TRUE(policy.should_consider(2.0, 136.0));
}

TEST(RebalancePolicy, CostModelWeighsMigrationAgainstImbalanceWin) {
  rebalance::PolicyConfig config;
  config.per_event_s = 1e-6;
  config.cost_per_byte_s = 1e-6;
  config.per_window_sync_s = 0;
  config.min_gain_s = 0;
  rebalance::RebalancePolicy policy(config);

  rebalance::CostBenefit cb;
  cb.current_imbalance = 1.8;
  cb.projected_imbalance = 1.1;
  cb.observed_event_rate = 1e5;  // events/s
  cb.remaining_s = 20.0;
  cb.migration_bytes = 1e5;
  cb.lookahead_before = 5e-3;
  cb.lookahead_after = 5e-3;
  cb.nodes_moved = 3;
  // benefit = 0.7 * 1e5 * 20 * 1e-6 = 1.4 s; cost = 0.1 s.
  EXPECT_NEAR(policy.net_gain_s(cb), 1.3, 1e-9);
  EXPECT_TRUE(policy.accept(cb));

  cb.migration_bytes = 2e6;  // cost 2 s > benefit
  EXPECT_FALSE(policy.accept(cb));

  cb.migration_bytes = 1e5;
  cb.projected_imbalance = 1.9;  // no win at all
  EXPECT_FALSE(policy.accept(cb));

  cb.projected_imbalance = 1.1;
  cb.nodes_moved = 0;  // nothing would move
  EXPECT_FALSE(policy.accept(cb));

  rebalance::PolicyConfig capped = config;
  capped.max_nodes = 2;
  rebalance::RebalancePolicy capped_policy(capped);
  cb.nodes_moved = 3;
  EXPECT_FALSE(capped_policy.accept(cb));
}

// ---- Emulator: migration bookkeeping -------------------------------------

TEST(Migration, SerializedStateIsDeterministicAndCountsTables) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()), 0);
  Emulator emulator(net, tables, placement, 2);

  const NodeId host = net.hosts().front();
  EXPECT_DOUBLE_EQ(emulator.serialize_host_state(host), 128.0);
  EXPECT_DOUBLE_EQ(emulator.serialize_host_state(host),
                   emulator.serialize_host_state(host));

  EXPECT_DOUBLE_EQ(emulator.estimate_migration_bytes(placement), 0.0);
  std::vector<int> moved = placement;
  moved[static_cast<std::size_t>(host)] = 1;
  EXPECT_DOUBLE_EQ(emulator.estimate_migration_bytes(moved),
                   emulator.serialize_host_state(host));

  // Migration is gated on safepoint quiescence.
  EXPECT_THROW(emulator.migrate_nodes(moved), std::invalid_argument);
}

TEST(Migration, IdenticalAssignmentInsideHookIsANoOp) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % 2;
  Emulator emulator(net, tables, placement, 2);
  const auto hosts = net.hosts();
  emulator.send_message(hosts[0], hosts[5], 3000, 1, 0.5);
  emulator.add_rebalance_safepoint(1.0);
  int moved = -1;
  emulator.set_rebalance_hook([&](des::SimTime) {
    moved = emulator.migrate_nodes(emulator.node_engine());
  });
  emulator.run(3.0, des::ExecutionMode::Sequential);
  EXPECT_EQ(moved, 0);
  EXPECT_EQ(emulator.rebalance_stats().rebalances, 0u);
  EXPECT_EQ(emulator.rebalance_stats().epoch, 0u);
  EXPECT_EQ(emulator.rebalance_stats().events_rehomed, 0u);
  EXPECT_EQ(emulator.kernel_stats().safepoints, 1u);
}

// ---- End-to-end determinism ----------------------------------------------

struct RebalRun {
  des::KernelStats kernel;
  emu::EmulatorStats stats;
  emu::RebalanceStats rb;
  std::vector<int> assignment;
};

/// Campus workload (the fault-suite pattern) with a *fixed* rebalance
/// schedule: at the t = 10 safepoint every 5th node hops one engine over;
/// the t = 20 safepoint verifies quiescence after migration (no-op).
RebalRun run_campus_fixed_migration(const Network& net,
                                    const RoutingTables& tables,
                                    const FaultTimeline* timeline, int engines,
                                    des::ExecutionMode mode,
                                    des::SyncMode sync) {
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % engines;
  std::vector<int> target = placement;
  for (std::size_t i = 0; i < target.size(); i += 5)
    target[i] = (target[i] + 1) % engines;

  EmulatorConfig config;
  config.reliable.base_timeout_s = 0.5;
  config.sync_mode = sync;
  Emulator emulator(net, tables, placement, engines, config);
  if (timeline != nullptr) emulator.set_fault_timeline(timeline);

  const auto hosts = net.hosts();
  const int n = static_cast<int>(hosts.size());
  for (int i = 0; i < n; ++i) {
    const NodeId src = hosts[static_cast<std::size_t>(i)];
    const NodeId dst = hosts[static_cast<std::size_t>((i * 7 + 3) % n)];
    if (src == dst) continue;
    emulator.send_message(src, dst, 9000.0 + 500.0 * (i % 5), i, 0.4 * i);
    if (i % 3 == 0)
      emulator.send_reliable(src, dst, 4000.0, 100 + i, 0.7 * i);
  }

  emulator.add_rebalance_safepoint(10.0);
  emulator.add_rebalance_safepoint(20.0);
  emulator.set_rebalance_hook([&emulator, target](des::SimTime t) {
    if (t < 15.0) emulator.migrate_nodes(target);
  });
  emulator.run(30.0, mode);
  return {emulator.kernel_stats(), emulator.stats(),
          emulator.rebalance_stats(), emulator.node_engine()};
}

TEST(RebalanceDeterminism, FixedScheduleMigrationIdenticalAcrossAllCombos) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);

  for (const int engines : {2, 4}) {
    const RebalRun baseline = run_campus_fixed_migration(
        net, tables, nullptr, engines, des::ExecutionMode::Sequential,
        des::SyncMode::GlobalWindow);
    // The migration really happened, mid-run.
    EXPECT_EQ(baseline.rb.rebalances, 1u);
    EXPECT_EQ(baseline.rb.epoch, 1u);
    EXPECT_GT(baseline.rb.nodes_migrated, 0u);
    EXPECT_GT(baseline.rb.migration_bytes, 0.0);
    EXPECT_EQ(baseline.kernel.safepoints, 2u);

    for (const auto mode : kModes) {
      for (const auto sync : kSyncs) {
        SCOPED_TRACE(::testing::Message()
                     << engines << " engines, mode " << static_cast<int>(mode)
                     << ", sync " << static_cast<int>(sync));
        const RebalRun run = run_campus_fixed_migration(net, tables, nullptr,
                                                        engines, mode, sync);
        EXPECT_EQ(run.kernel.history_hash, baseline.kernel.history_hash);
        EXPECT_EQ(run.kernel.events_per_lp, baseline.kernel.events_per_lp);
        EXPECT_EQ(run.rb.nodes_migrated, baseline.rb.nodes_migrated);
        EXPECT_EQ(run.rb.events_rehomed, baseline.rb.events_rehomed);
        EXPECT_DOUBLE_EQ(run.rb.migration_bytes, baseline.rb.migration_bytes);
        EXPECT_EQ(run.assignment, baseline.assignment);
        EXPECT_EQ(run.stats.trains_delivered, baseline.stats.trains_delivered);
        EXPECT_EQ(run.stats.reliable_messages_acked,
                  baseline.stats.reliable_messages_acked);
        if (sync == des::SyncMode::GlobalWindow) {
          EXPECT_NEAR(run.kernel.modeled_time, baseline.kernel.modeled_time,
                      1e-9);
        }
      }
    }
  }
}

TEST(RebalanceDeterminism, MigrationUnderRandomFaultPlanIdentical) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  fault::RandomFaultParams params;
  params.seed = 515151;
  params.horizon_s = 25.0;
  params.link_faults = 3;
  params.router_faults = 1;
  params.mttr_s = 4.0;
  const FaultPlan plan = FaultPlan::random(net, params);
  ASSERT_GT(plan.size(), 0u);
  const FaultTimeline timeline(net, plan);
  ASSERT_GT(timeline.epoch_count(), 1u);

  const RebalRun baseline = run_campus_fixed_migration(
      net, tables, &timeline, 4, des::ExecutionMode::Sequential,
      des::SyncMode::GlobalWindow);
  EXPECT_EQ(baseline.rb.rebalances, 1u);
  EXPECT_GT(baseline.rb.nodes_migrated, 0u);

  for (const auto mode : kModes) {
    for (const auto sync : kSyncs) {
      SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode)
                                        << ", sync "
                                        << static_cast<int>(sync));
      const RebalRun run =
          run_campus_fixed_migration(net, tables, &timeline, 4, mode, sync);
      EXPECT_EQ(run.kernel.history_hash, baseline.kernel.history_hash);
      EXPECT_EQ(run.kernel.events_per_lp, baseline.kernel.events_per_lp);
      EXPECT_EQ(run.rb.events_rehomed, baseline.rb.events_rehomed);
      EXPECT_EQ(run.stats.trains_dropped_fault,
                baseline.stats.trains_dropped_fault);
      EXPECT_EQ(run.stats.retransmissions, baseline.stats.retransmissions);
    }
  }
}

// ---- Controller-driven (closed loop) -------------------------------------

struct ControllerRun {
  des::KernelStats kernel;
  emu::RebalanceStats rb;
  std::vector<rebalance::RebalanceDecision> decisions;
  std::vector<int> assignment;
};

/// Heavily skewed start (every node on engine 0 except the last host), so
/// the monitor sees real imbalance and the closed loop must act.
ControllerRun run_campus_controller(const Network& net,
                                    const RoutingTables& tables,
                                    const rebalance::RebalanceConfig& rcfg,
                                    des::ExecutionMode mode,
                                    des::SyncMode sync) {
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()), 0);
  placement[static_cast<std::size_t>(net.hosts().back())] = 1;

  EmulatorConfig config;
  config.sync_mode = sync;
  Emulator emulator(net, tables, placement, 2, config);

  const auto hosts = net.hosts();
  const int n = static_cast<int>(hosts.size());
  for (int i = 0; i < n; ++i) {
    const NodeId src = hosts[static_cast<std::size_t>(i)];
    const NodeId dst = hosts[static_cast<std::size_t>((i * 5 + 1) % n)];
    if (src == dst) continue;
    emulator.send_message(src, dst, 12000.0, i, 0.2 * i);
    emulator.send_message(src, dst, 8000.0, i, 12.0 + 0.2 * i);
  }

  rebalance::Controller controller(net, tables, rcfg);
  controller.install(emulator, 30.0);
  emulator.run(30.0, mode);
  return {emulator.kernel_stats(), emulator.rebalance_stats(),
          controller.decisions(), emulator.node_engine()};
}

TEST(RebalanceController, ClosedLoopMigratesAndStaysDeterministic) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);

  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 5.0;
  rcfg.period_s = 5.0;
  rcfg.window_s = 30.0;
  rcfg.policy.trigger = 0.05;
  rcfg.policy.hysteresis = 1;
  rcfg.policy.cooldown_s = 0.0;
  rcfg.policy.min_gain_s = -1e9;  // accept any genuine imbalance win

  const ControllerRun baseline =
      run_campus_controller(net, tables, rcfg, des::ExecutionMode::Sequential,
                            des::SyncMode::GlobalWindow);
  EXPECT_GE(baseline.rb.rebalances, 1u);
  EXPECT_GT(baseline.rb.nodes_migrated, 0u);
  EXPECT_GE(baseline.decisions.size(), 2u);

  for (const auto mode : kModes) {
    for (const auto sync : kSyncs) {
      SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode)
                                        << ", sync "
                                        << static_cast<int>(sync));
      const ControllerRun run =
          run_campus_controller(net, tables, rcfg, mode, sync);
      EXPECT_EQ(run.kernel.history_hash, baseline.kernel.history_hash);
      EXPECT_EQ(run.kernel.events_per_lp, baseline.kernel.events_per_lp);
      EXPECT_EQ(run.rb.rebalances, baseline.rb.rebalances);
      EXPECT_EQ(run.rb.nodes_migrated, baseline.rb.nodes_migrated);
      EXPECT_EQ(run.assignment, baseline.assignment);
      ASSERT_EQ(run.decisions.size(), baseline.decisions.size());
      for (std::size_t d = 0; d < run.decisions.size(); ++d) {
        EXPECT_DOUBLE_EQ(run.decisions[d].imbalance,
                         baseline.decisions[d].imbalance)
            << "decision " << d;
        EXPECT_EQ(run.decisions[d].migrated, baseline.decisions[d].migrated)
            << "decision " << d;
        EXPECT_EQ(run.decisions[d].nodes_moved,
                  baseline.decisions[d].nodes_moved)
            << "decision " << d;
      }
    }
  }
}

// ---- Degenerate mappings: guaranteed no-ops ------------------------------

TEST(RebalanceDegenerate, SingleEngineNeverMigrates) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()), 0);
  Emulator emulator(net, tables, placement, 1);
  const double lookahead_before = emulator.lookahead();

  const auto hosts = net.hosts();
  for (std::size_t i = 0; i + 1 < hosts.size(); i += 2)
    emulator.send_message(hosts[i], hosts[i + 1], 9000, 1,
                          0.3 * static_cast<double>(i));

  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 5.0;
  rcfg.period_s = 5.0;
  rcfg.policy.trigger = 0.0;  // as twitchy as the policy can be
  rcfg.policy.hysteresis = 1;
  rcfg.policy.cooldown_s = 0.0;
  rcfg.policy.min_gain_s = -1e9;
  rebalance::Controller controller(net, tables, rcfg);
  controller.install(emulator, 30.0);
  emulator.run(30.0, des::ExecutionMode::Sequential);

  EXPECT_GT(emulator.kernel_stats().safepoints, 0u);
  EXPECT_EQ(emulator.rebalance_stats().rebalances, 0u);
  EXPECT_EQ(emulator.rebalance_stats().nodes_migrated, 0u);
  EXPECT_EQ(emulator.rebalance_stats().epoch, 0u);
  EXPECT_EQ(emulator.node_engine(), placement);
  EXPECT_DOUBLE_EQ(emulator.lookahead(), lookahead_before);
  for (const rebalance::RebalanceDecision& d : controller.decisions())
    EXPECT_FALSE(d.migrated);
}

TEST(RebalanceDegenerate, BalancedTwoEngineRunIsANoOpAndKeepsLookaheads) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);

  mapping::Mapper mapper(net, tables);
  mapping::MappingOptions options;
  options.engines = 2;
  const mapping::MappingResult mapped = mapper.map_top(options);
  ASSERT_FALSE(mapped.pair_lookaheads.empty());

  Emulator emulator(net, tables, mapped.node_engine, 2);
  // The emulator's registered channels mirror the mapping's pair minima.
  for (const mapping::EnginePairLookahead& pair : mapped.pair_lookaheads) {
    EXPECT_DOUBLE_EQ(emulator.kernel().channel_lookahead(pair.a, pair.b),
                     pair.lookahead);
    EXPECT_DOUBLE_EQ(emulator.kernel().channel_lookahead(pair.b, pair.a),
                     pair.lookahead);
  }

  const auto hosts = net.hosts();
  const int n = static_cast<int>(hosts.size());
  for (int i = 0; i < n; ++i) {
    const NodeId dst = hosts[static_cast<std::size_t>((i + n / 2) % n)];
    if (hosts[static_cast<std::size_t>(i)] == dst) continue;
    emulator.send_message(hosts[static_cast<std::size_t>(i)], dst, 9000, 1,
                          0.3 * i);
  }

  rebalance::RebalanceConfig rcfg;  // default policy: 25% trigger
  rcfg.start_s = 5.0;
  rcfg.period_s = 5.0;
  rcfg.window_s = 30.0;
  rebalance::Controller controller(net, tables, rcfg);
  controller.install(emulator, 30.0);
  emulator.run(30.0, des::ExecutionMode::Sequential);

  // A mapping the partitioner already balanced must not churn.
  EXPECT_EQ(emulator.rebalance_stats().rebalances, 0u);
  EXPECT_EQ(emulator.rebalance_stats().epoch, 0u);
  EXPECT_EQ(emulator.node_engine(), mapped.node_engine);
  EXPECT_DOUBLE_EQ(emulator.lookahead(), mapped.lookahead);
  for (const mapping::EnginePairLookahead& pair : mapped.pair_lookaheads) {
    EXPECT_DOUBLE_EQ(emulator.kernel().channel_lookahead(pair.a, pair.b),
                     pair.lookahead);
    EXPECT_DOUBLE_EQ(emulator.kernel().channel_lookahead(pair.b, pair.a),
                     pair.lookahead);
  }
}

// ---- Mapper::map_incremental ---------------------------------------------

TEST(MapIncremental, RefinesFromLiveAssignmentUnderObservedLoad) {
  const Network net = topology::make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  mapping::Mapper mapper(net, tables);

  // Live assignment: everything on engine 0 but one node — maximally
  // drifted relative to a uniform observed load.
  std::vector<int> current(static_cast<std::size_t>(net.node_count()), 0);
  current[static_cast<std::size_t>(net.hosts().back())] = 1;
  std::vector<double> node_load(current.size(), 1.0);
  std::vector<double> link_load(static_cast<std::size_t>(net.link_count()),
                                1.0);

  mapping::MappingOptions options;
  options.engines = 2;
  const mapping::MappingResult result =
      mapper.map_incremental(current, node_load, link_load, options);

  EXPECT_EQ(result.approach, mapping::Approach::Adaptive);
  std::array<int, 2> sizes{};
  for (int e : result.node_engine) {
    ASSERT_TRUE(e == 0 || e == 1);
    ++sizes[static_cast<std::size_t>(e)];
  }
  // The overload was actually spread out.
  EXPECT_GT(sizes[1], 1);
  EXPECT_GT(result.lookahead, 0.0);
  EXPECT_FALSE(result.pair_lookaheads.empty());

  // Deterministic: same inputs, same mapping.
  const mapping::MappingResult again =
      mapper.map_incremental(current, node_load, link_load, options);
  EXPECT_EQ(again.node_engine, result.node_engine);
}

}  // namespace
}  // namespace massf
