// src/app tests: latency histogram, the five LB policies (including the
// consistent-hashing distribution/disruption properties), the RPC
// request/response path end to end, retry-exhaustion surfacing via
// on_send_failed, ACK-vs-epoch-boundary races, and bit-identical
// history/latency accounting across Sequential/Threaded ×
// GlobalWindow/ChannelLookahead under a random fault plan, and the kernel
// queue shape reliable timeouts leave behind, live and after a restore.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "app/lb_policy.hpp"
#include "app/rpc.hpp"
#include "app/scenario.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "kernel_script.hpp"
#include "routing/routing.hpp"
#include "topology/network.hpp"
#include "util/histogram.hpp"

namespace massf::app {
namespace {

using emu::AppApi;
using emu::AppEndpoint;
using emu::AppMessage;
using emu::Emulator;
using emu::EmulatorConfig;
using emu::EmulatorStats;
using fault::FaultPlan;
using fault::FaultTimeline;
using fault::RandomFaultParams;
using routing::RoutingTables;
using topology::Gbps;
using topology::LinkId;
using topology::Mbps;
using topology::milliseconds;
using topology::Network;
using topology::NodeId;

// ---- LatencyHistogram ------------------------------------------------------

TEST(Histogram, BucketEdges) {
  EXPECT_EQ(LatencyHistogram::bucket_of(0.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(-1.0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(0.5e-6), 0);
  EXPECT_EQ(LatencyHistogram::bucket_of(1.0e-6), 1);  // [1, 2) µs
  EXPECT_EQ(LatencyHistogram::bucket_of(1.9e-6), 1);
  EXPECT_EQ(LatencyHistogram::bucket_of(2.0e-6), 2);  // [2, 4) µs
  EXPECT_EQ(LatencyHistogram::bucket_of(1e16), LatencyHistogram::kBuckets - 1);
  // Monotone in the sample value.
  int prev = 0;
  for (double s = 1e-7; s < 10.0; s *= 1.7) {
    const int b = LatencyHistogram::bucket_of(s);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(Histogram, QuantilesAndMerge) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);

  // 90 fast samples (~1 ms) + 10 slow (~100 ms): p50 in the 1 ms bucket,
  // p99 in the 100 ms bucket.
  for (int i = 0; i < 90; ++i) h.record(1e-3);
  for (int i = 0; i < 10; ++i) h.record(0.1);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(LatencyHistogram::bucket_of(h.quantile(0.5)),
            LatencyHistogram::bucket_of(1e-3));
  EXPECT_EQ(LatencyHistogram::bucket_of(h.quantile(0.99)),
            LatencyHistogram::bucket_of(0.1));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(0.99));

  // merge == recording the union, regardless of split/merge order.
  LatencyHistogram a, b, whole;
  for (int i = 0; i < 500; ++i) {
    const double s = 1e-5 * (1 + (i * 37) % 1000);
    (i % 3 == 0 ? a : b).record(s);
    whole.record(s);
  }
  LatencyHistogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_TRUE(ab == whole);
  EXPECT_TRUE(ba == whole);
}

// ---- Policies --------------------------------------------------------------

std::vector<std::uint64_t> ids_n(std::size_t n, std::uint64_t stride = 10) {
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back((i + 1) * stride);
  return ids;
}

TEST(LbPolicy, RoundRobinCycles) {
  auto p = make_policy(PolicyKind::RoundRobin, ids_n(3));
  EXPECT_STREQ(p->name(), "round-robin");
  for (int round = 0; round < 3; ++round)
    for (std::size_t want = 0; want < 3; ++want)
      EXPECT_EQ(p->pick(99, 0.0), want);
}

TEST(LbPolicy, RoundRobinSaveLoadResumes) {
  auto p = make_policy(PolicyKind::RoundRobin, ids_n(5));
  p->pick(0, 0);
  p->pick(0, 0);
  std::vector<std::uint64_t> words;
  p->save_state(words);
  auto q = make_policy(PolicyKind::RoundRobin, ids_n(5));
  q->load_state(words);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(q->pick(0, 0), p->pick(0, 0));
}

TEST(LbPolicy, LeastRequestTracksOutstanding) {
  auto p = make_policy(PolicyKind::LeastRequest, ids_n(3));
  // All zero: lowest index wins.
  EXPECT_EQ(p->pick(0, 0.0), 0u);
  p->on_start(0, 0.0);
  EXPECT_EQ(p->pick(0, 0.0), 1u);
  p->on_start(1, 0.0);
  EXPECT_EQ(p->pick(0, 0.0), 2u);
  p->on_start(2, 0.0);
  // 1 each: ties break to 0 again.
  EXPECT_EQ(p->pick(0, 0.0), 0u);
  // Backend 1 finishes: it is now least loaded.
  p->on_finish(1, 1.0, 0.5);
  EXPECT_EQ(p->pick(0, 1.0), 1u);
  // Errors release the slot too.
  p->on_error(2, 1.0);
  p->on_finish(0, 1.0, 0.5);
  EXPECT_EQ(p->pick(0, 1.0), 0u);
}

TEST(LbPolicy, PeakEwmaAvoidsSlowBackendAndDecays) {
  PolicyConfig config;
  config.ewma_tau_s = 1.0;
  auto p = make_policy(PolicyKind::PeakEwma, ids_n(2), config);
  // Observations: backend 0 slow, backend 1 fast.
  p->on_finish(0, 1.0, 0.5);
  p->on_finish(1, 1.0, 0.001);
  EXPECT_EQ(p->pick(0, 1.0), 1u);
  // A slower sample on 1 flips the preference.
  p->on_finish(1, 1.1, 2.0);
  EXPECT_EQ(p->pick(0, 1.1), 0u);
  // After many time constants both estimates decay to ~0 and the tie
  // breaks back to index 0.
  EXPECT_EQ(p->pick(0, 60.0), 0u);
  // Outstanding load multiplies the cost: equal estimates, loaded loses.
  auto q = make_policy(PolicyKind::PeakEwma, ids_n(2), config);
  q->on_finish(0, 1.0, 0.01);
  q->on_finish(1, 1.0, 0.01);
  q->on_start(0, 1.0);
  EXPECT_EQ(q->pick(0, 1.0), 1u);
}

TEST(LbPolicy, PeakEwmaErrorRepelsTraffic) {
  auto p = make_policy(PolicyKind::PeakEwma, ids_n(2));
  p->on_finish(0, 1.0, 0.001);
  p->on_finish(1, 1.0, 0.002);
  EXPECT_EQ(p->pick(0, 1.0), 0u);
  p->on_error(0, 1.0);
  EXPECT_EQ(p->pick(0, 1.0), 1u);
}

TEST(LbPolicy, RingHashDeterministicAndBalanced) {
  const std::size_t n = 8;
  auto p = make_policy(PolicyKind::RingHash, ids_n(n));
  auto q = make_policy(PolicyKind::RingHash, ids_n(n));
  std::vector<std::uint64_t> hits(n, 0);
  for (std::uint64_t key = 0; key < 100000; ++key) {
    const std::size_t b = p->pick(key, 0.0);
    ASSERT_LT(b, n);
    ASSERT_EQ(q->pick(key, 0.0), b);  // same seed → same ring
    // Affinity: repeated picks of one key are stable over time.
    ASSERT_EQ(p->pick(key, 1.0), b);
    ++hits[b];
  }
  for (std::size_t b = 0; b < n; ++b)
    EXPECT_GT(hits[b], 100000u / (n * 4)) << "backend " << b << " starved";
}

TEST(LbPolicy, RingHashMinimalDisruptionOnRemoval) {
  const std::vector<std::uint64_t> full = ids_n(8);
  std::vector<std::uint64_t> reduced = full;
  const std::uint64_t removed = full[3];
  reduced.erase(reduced.begin() + 3);

  auto before = make_policy(PolicyKind::RingHash, full);
  auto after = make_policy(PolicyKind::RingHash, reduced);
  std::uint64_t moved = 0, kept_on_survivor = 0;
  for (std::uint64_t key = 0; key < 20000; ++key) {
    const std::uint64_t id_before = full[before->pick(key, 0.0)];
    const std::uint64_t id_after = reduced[after->pick(key, 0.0)];
    if (id_before == removed) continue;  // must remap somewhere
    ++kept_on_survivor;
    if (id_after != id_before) ++moved;
  }
  // Ring property: vnodes of survivors do not move, so keys owned by a
  // survivor keep their backend exactly.
  EXPECT_EQ(moved, 0u);
  EXPECT_GT(kept_on_survivor, 20000u * 3 / 4);
}

TEST(LbPolicy, MaglevBalancedAndMostlyStable) {
  const std::size_t n = 8;
  auto p = make_policy(PolicyKind::Maglev, ids_n(n));
  std::vector<std::uint64_t> hits(n, 0);
  const std::uint64_t keys = 100000;
  for (std::uint64_t key = 0; key < keys; ++key) {
    const std::size_t b = p->pick(key, 0.0);
    ASSERT_LT(b, n);
    ASSERT_EQ(p->pick(key, 5.0), b);  // stateless: time-invariant
    ++hits[b];
  }
  // Maglev's table is balanced to within one slot; key hashing adds
  // sampling noise only.
  for (std::size_t b = 0; b < n; ++b) {
    EXPECT_GT(hits[b], keys / n * 9 / 10) << "backend " << b;
    EXPECT_LT(hits[b], keys / n * 11 / 10) << "backend " << b;
  }

  // Removal disruption: keys on survivors mostly stay put (bounded churn,
  // unlike mod-N hashing which would move ~(n-1)/n of them).
  const std::vector<std::uint64_t> full = ids_n(n);
  std::vector<std::uint64_t> reduced = full;
  const std::uint64_t removed = full[5];
  reduced.erase(reduced.begin() + 5);
  auto after = make_policy(PolicyKind::Maglev, reduced);
  std::uint64_t moved = 0, survivors = 0;
  for (std::uint64_t key = 0; key < 20000; ++key) {
    const std::uint64_t id_before = full[p->pick(key, 0.0)];
    if (id_before == removed) continue;
    ++survivors;
    if (reduced[after->pick(key, 0.0)] != id_before) ++moved;
  }
  EXPECT_LT(static_cast<double>(moved) / static_cast<double>(survivors), 0.15);
}

TEST(LbPolicy, DistinctSeedsGiveDistinctAssignments) {
  PolicyConfig other;
  other.seed = 0x5eed;
  auto a = make_policy(PolicyKind::RingHash, ids_n(8));
  auto b = make_policy(PolicyKind::RingHash, ids_n(8), other);
  std::uint64_t differing = 0;
  for (std::uint64_t key = 0; key < 1000; ++key)
    if (a->pick(key, 0.0) != b->pick(key, 0.0)) ++differing;
  EXPECT_GT(differing, 100u);
}

// ---- RPC path end to end ---------------------------------------------------

LbScenarioParams small_params(PolicyKind policy) {
  LbScenarioParams params;
  params.backends = 4;
  params.client_hosts = 2;
  params.users_per_host = 50;
  params.rate_per_user = 2.0;
  params.duration_s = 5.0;
  params.policy = policy;
  params.server.mean_s = 2e-3;
  params.server.workers = 2;
  return params;
}

TEST(RpcScenario, RequestsFlowAndLatencyIsAccounted) {
  const LbScenarioParams params = small_params(PolicyKind::LeastRequest);
  const LbScenario scenario = make_lb_scenario(params);
  const RoutingTables tables = RoutingTables::build(scenario.net);
  const LbRunResult run = run_lb_scenario(scenario, params, tables, 2,
                                          des::ExecutionMode::Sequential,
                                          des::SyncMode::GlobalWindow);

  EXPECT_GT(run.clients.requests_sent, 100u);
  EXPECT_EQ(run.clients.send_failures, 0u);
  EXPECT_EQ(run.clients.responses_received, run.clients.requests_sent);
  EXPECT_EQ(run.lb.requests_forwarded, run.clients.requests_sent);
  EXPECT_EQ(run.lb.responses_relayed, run.clients.requests_sent);
  EXPECT_EQ(run.lb.backend_errors, 0u);

  ASSERT_EQ(run.latency.size(), 1u);
  EXPECT_EQ(run.latency[0].name, std::string("least-request"));
  EXPECT_EQ(run.latency[0].total.count(), run.clients.responses_received);
  EXPECT_TRUE(run.latency[0].per_epoch.empty());  // no fault timeline
  // End-to-end latency is at least the ~1.2 ms round-trip propagation.
  EXPECT_GT(run.latency[0].total.quantile(0.5), 1e-3);
}

TEST(RpcScenario, EpochSplitsPartitionTheTotalHistogram) {
  const LbScenarioParams params = small_params(PolicyKind::RoundRobin);
  const LbScenario scenario = make_lb_scenario(params);
  const RoutingTables tables = RoutingTables::build(scenario.net);

  FaultPlan plan;
  plan.link_outage(scenario.degraded_uplink, 2.0, 4.0);
  const FaultTimeline timeline(scenario.net, plan);
  ASSERT_EQ(timeline.epoch_count(), 3u);

  const LbRunResult run = run_lb_scenario(
      scenario, params, tables, 2, des::ExecutionMode::Sequential,
      des::SyncMode::GlobalWindow, &timeline);

  ASSERT_EQ(run.latency.size(), 1u);
  ASSERT_EQ(run.latency[0].per_epoch.size(), 3u);
  LatencyHistogram refolded;
  std::uint64_t per_epoch_total = 0;
  for (const LatencyHistogram& h : run.latency[0].per_epoch) {
    per_epoch_total += h.count();
    refolded.merge(h);
  }
  EXPECT_EQ(per_epoch_total, run.latency[0].total.count());
  EXPECT_TRUE(refolded == run.latency[0].total);
  EXPECT_GT(run.latency[0].total.count(), 0u);
}

// ---- Satellite: retry exhaustion is an app-visible failure -----------------

/// Sender endpoint that fires one reliable message and records failures.
/// The log is shared via shared_ptr but touched only on host a's engine.
struct FailureLog {
  std::vector<AppMessage> failed;
};

class OneShotSender : public AppEndpoint {
 public:
  OneShotSender(NodeId dst, std::shared_ptr<FailureLog> log)
      : dst_(dst), log_(std::move(log)) {}

  void start(AppApi& api) override { api.set_timer(1.0, 0); }
  void on_timer(AppApi& api, std::int64_t tag) override {
    (void)tag;
    api.send_reliable(dst_, 2000.0, 77, 0xABCu);
  }
  void on_send_failed(AppApi& api, const AppMessage& message) override {
    (void)api;
    log_->failed.push_back(message);
  }

 private:
  NodeId dst_;
  std::shared_ptr<FailureLog> log_;
};

struct ExhaustionRun {
  std::uint64_t history_hash = 0;
  EmulatorStats stats{};
  std::vector<AppMessage> failed;
};

ExhaustionRun run_exhaustion(const Network& net, const RoutingTables& tables,
                             const FaultTimeline& timeline, NodeId a, NodeId b,
                             des::ExecutionMode mode, des::SyncMode sync) {
  EmulatorConfig config;
  config.reliable.base_timeout_s = 0.2;
  config.reliable.max_retries = 4;
  config.sync_mode = sync;
  Emulator emu(net, tables, {0, 0, 1, 1}, 2, config);
  emu.set_fault_timeline(&timeline);
  auto log = std::make_shared<FailureLog>();
  emu.install_endpoint(a, std::make_unique<OneShotSender>(b, log));
  emu.run(30.0, mode);
  return {emu.kernel_stats().history_hash, emu.stats(), log->failed};
}

TEST(ReliableExhaustion, SurfacesOnSendFailedDeterministically) {
  Network net;
  const NodeId a = net.add_host("a");
  const NodeId r0 = net.add_router("r0");
  const NodeId r1 = net.add_router("r1");
  const NodeId b = net.add_host("b");
  net.add_link(a, r0, Mbps(100), milliseconds(1));
  const LinkId mid = net.add_link(r0, r1, Gbps(1), milliseconds(5));
  net.add_link(r1, b, Mbps(100), milliseconds(1));
  const RoutingTables tables = RoutingTables::build(net);

  FaultPlan plan;
  plan.link_down(mid, 0.5);  // never repaired: the send at t=1 cannot win
  const FaultTimeline timeline(net, plan);

  ExhaustionRun baseline;
  bool first = true;
  for (const des::ExecutionMode mode :
       {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
    for (const des::SyncMode sync :
         {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
      const ExhaustionRun run =
          run_exhaustion(net, tables, timeline, a, b, mode, sync);
      ASSERT_EQ(run.failed.size(), 1u);
      const AppMessage& failure = run.failed[0];
      EXPECT_EQ(failure.src, a);
      EXPECT_EQ(failure.dst, b);
      EXPECT_EQ(failure.tag, 77);
      EXPECT_EQ(failure.corr, 0xABCu);
      EXPECT_TRUE(failure.reliable);
      EXPECT_DOUBLE_EQ(failure.sent_at, 1.0);
      EXPECT_EQ(run.stats.reliable_messages_failed, 1u);
      EXPECT_EQ(run.stats.reliable_messages_acked, 0u);
      // 1 first attempt + max_retries retransmissions, all dropped.
      EXPECT_EQ(run.stats.retransmissions, 4u);
      if (first) {
        baseline = run;
        first = false;
      } else {
        EXPECT_EQ(run.history_hash, baseline.history_hash);
        EXPECT_EQ(run.stats.trains_dropped_fault,
                  baseline.stats.trains_dropped_fault);
      }
    }
  }
}

// ---- Satellite: ACK racing a link-outage epoch boundary --------------------

TEST(ReliableAckRace, EpochBoundaryMidAckIsDeterministic) {
  Network net;
  const NodeId a = net.add_host("a");
  const NodeId r0 = net.add_router("r0");
  const NodeId r1 = net.add_router("r1");
  const NodeId b = net.add_host("b");
  net.add_link(a, r0, Mbps(100), milliseconds(1));
  const LinkId mid = net.add_link(r0, r1, Mbps(100), milliseconds(50));
  net.add_link(r1, b, Mbps(100), milliseconds(1));
  const RoutingTables tables = RoutingTables::build(net);

  // Request delivered ~t=1.053; its ACK re-crosses the 50 ms middle link
  // ~[1.054, 1.104] — the outage boundary at 1.08 cuts the ACK mid-flight
  // after the data delivery already committed on the far side.
  FaultPlan plan;
  plan.link_outage(mid, 1.08, 1.6);
  const FaultTimeline timeline(net, plan);
  ASSERT_EQ(timeline.epoch_count(), 3u);

  std::uint64_t baseline_hash = 0;
  EmulatorStats baseline{};
  bool first = true;
  for (const des::ExecutionMode mode :
       {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
    for (const des::SyncMode sync :
         {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
      EmulatorConfig config;
      config.reliable.base_timeout_s = 0.3;
      config.sync_mode = sync;
      Emulator emu(net, tables, {0, 0, 1, 1}, 2, config);
      emu.set_fault_timeline(&timeline);
      emu.send_reliable(a, b, 2000.0, 7, 1.0, 0x5ecULL);
      emu.run(10.0, mode);
      const EmulatorStats stats = emu.stats();
      // Delivered once, duplicate suppressed, eventually ACKed.
      EXPECT_EQ(stats.reliable_messages_delivered, 1u);
      EXPECT_EQ(stats.reliable_messages_acked, 1u);
      EXPECT_EQ(stats.reliable_messages_failed, 0u);
      EXPECT_GE(stats.retransmissions, 1u);
      EXPECT_GE(stats.duplicate_deliveries, 1u);
      EXPECT_GE(stats.trains_dropped_fault, 1u);
      if (first) {
        baseline_hash = emu.kernel_stats().history_hash;
        baseline = stats;
        first = false;
      } else {
        EXPECT_EQ(emu.kernel_stats().history_hash, baseline_hash);
        EXPECT_EQ(stats.retransmissions, baseline.retransmissions);
        EXPECT_EQ(stats.duplicate_deliveries, baseline.duplicate_deliveries);
        EXPECT_EQ(stats.trains_dropped_fault, baseline.trains_dropped_fault);
      }
    }
  }
}

// ---- Tentpole acceptance: 4-combo identity under a random fault plan -------

void expect_same_latency(const std::vector<emu::LatencySummary>& a,
                         const std::vector<emu::LatencySummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].name, b[s].name);
    EXPECT_TRUE(a[s].total == b[s].total) << "series " << a[s].name;
    ASSERT_EQ(a[s].per_epoch.size(), b[s].per_epoch.size());
    for (std::size_t e = 0; e < a[s].per_epoch.size(); ++e)
      EXPECT_TRUE(a[s].per_epoch[e] == b[s].per_epoch[e])
          << "series " << a[s].name << " epoch " << e;
  }
}

TEST(LbDeterminism, HistoryAndHistogramsIdenticalAcrossAllFourCombos) {
  for (const PolicyKind policy :
       {PolicyKind::RoundRobin, PolicyKind::PeakEwma}) {
    LbScenarioParams params = small_params(policy);
    const LbScenario scenario = make_lb_scenario(params);
    const RoutingTables tables = RoutingTables::build(scenario.net);

    RandomFaultParams fault_params;
    fault_params.seed = 777;
    fault_params.horizon_s = 8.0;
    fault_params.link_faults = 3;
    fault_params.router_faults = 1;
    fault_params.mttr_s = 2.0;
    const FaultPlan plan = FaultPlan::random(scenario.net, fault_params);
    ASSERT_GT(plan.size(), 0u);
    const FaultTimeline timeline(scenario.net, plan);
    ASSERT_GT(timeline.epoch_count(), 1u);

    const LbRunResult baseline = run_lb_scenario(
        scenario, params, tables, 3, des::ExecutionMode::Sequential,
        des::SyncMode::GlobalWindow, &timeline);
    EXPECT_GT(baseline.clients.requests_sent, 0u);
    ASSERT_EQ(baseline.latency.size(), 1u);
    EXPECT_GT(baseline.latency[0].total.count(), 0u);

    for (const des::ExecutionMode mode :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      for (const des::SyncMode sync : {des::SyncMode::GlobalWindow,
                                       des::SyncMode::ChannelLookahead}) {
        if (mode == des::ExecutionMode::Sequential &&
            sync == des::SyncMode::GlobalWindow)
          continue;
        const LbRunResult run = run_lb_scenario(scenario, params, tables, 3,
                                                mode, sync, &timeline);
        EXPECT_EQ(run.kernel.history_hash, baseline.kernel.history_hash)
            << policy_name(policy);
        EXPECT_EQ(run.kernel.events_per_lp, baseline.kernel.events_per_lp)
            << policy_name(policy);
        EXPECT_EQ(run.stats.messages_delivered,
                  baseline.stats.messages_delivered);
        EXPECT_EQ(run.stats.retransmissions, baseline.stats.retransmissions);
        EXPECT_EQ(run.stats.reliable_messages_failed,
                  baseline.stats.reliable_messages_failed);
        EXPECT_EQ(run.clients.requests_sent, baseline.clients.requests_sent);
        EXPECT_EQ(run.clients.responses_received,
                  baseline.clients.responses_received);
        EXPECT_EQ(run.lb.requests_forwarded, baseline.lb.requests_forwarded);
        EXPECT_EQ(run.lb.backend_errors, baseline.lb.backend_errors);
        expect_same_latency(run.latency, baseline.latency);
      }
    }
  }
}

// ---- Queue shape: reliable timeouts ride their host's kernel lane ----------

/// `lb_fault` in small: ~5,000 users at 1 req/s, reliable delivery on, and
/// rack 0's core uplink down for the middle third of the load.
struct LaneShapeNet {
  static constexpr int kEngines = 4;
  static constexpr double kSafepoint = 0.5;  // mid-load, mid-outage

  LbScenarioParams params = make_params();
  LbScenario scenario = make_lb_scenario(params);
  RoutingTables tables = RoutingTables::build(scenario.net);
  FaultTimeline timeline{scenario.net, outage(scenario, params)};
  LbWorkload workload{scenario, params};

  static LbScenarioParams make_params() {
    LbScenarioParams p;
    p.backends = 8;
    p.client_hosts = 20;
    p.users_per_host = 250;
    p.rate_per_user = 1.0;
    p.duration_s = 1.0;
    p.server.workers = 4;
    p.server.mean_s = 2e-3;
    p.policy = PolicyKind::PeakEwma;
    return p;
  }

  static FaultPlan outage(const LbScenario& s, const LbScenarioParams& p) {
    FaultPlan plan;
    plan.link_outage(s.degraded_uplink, p.duration_s / 3,
                     2 * p.duration_s / 3);
    return plan;
  }

  double horizon() const { return 2.0 * params.duration_s + 10.0; }

  std::unique_ptr<Emulator> make(des::SyncMode sync) const {
    std::vector<int> placement(
        static_cast<std::size_t>(scenario.net.node_count()));
    for (std::size_t i = 0; i < placement.size(); ++i)
      placement[i] = static_cast<int>(i % kEngines);
    EmulatorConfig config;
    config.reliable.base_timeout_s = params.reliable_timeout_s;
    config.sync_mode = sync;
    auto emulator = std::make_unique<Emulator>(
        scenario.net, tables, std::move(placement), kEngines, config);
    emulator->set_fault_timeline(&timeline);
    workload.install(*emulator);
    return emulator;
  }

  /// Most events the LP heaps may hold together while every lane is
  /// hinted: one head per lane (two per link, one per host), the app
  /// timers (one arrival timer per client host, one per busy server
  /// worker) and the pending fault-epoch boundaries of every engine.
  std::uint64_t heap_bound() const {
    const auto& net = scenario.net;
    return static_cast<std::uint64_t>(
        2 * net.link_count() + net.node_count() + params.client_hosts +
        params.backends * params.server.workers +
        static_cast<int>(timeline.epoch_count()) * kEngines);
  }
};

/// The kernel queue at one instant: pending events and how many of them
/// wait in lane chains rather than in the LP heaps.
struct QueueShape {
  std::uint64_t pending = 0;
  std::uint64_t chained = 0;
};

QueueShape queue_shape(des::Kernel& kernel) {
  return {kernel.pending_events(), des::KernelTestPeer::chained_events(kernel)};
}

TEST(ReliableTimeoutLanes, MidRunHeapsHoldOnlyLaneHeadsAndTimers) {
  // Each host's first-attempt timeouts come in FIFO order on its own LP,
  // so at a mid-run safepoint nearly every pending event waits in a lane
  // chain: what is left in the heaps is bounded by the lane count plus the
  // app timers and epoch events, far below the thousands of pending
  // timeouts. The hints leave the history unchanged: the hash is equal in
  // all four combos and to the one the unhinted queue produced.
  constexpr std::uint64_t kUnhintedHistoryHash = 13184222770018966684ULL;
  const LaneShapeNet fx;
  for (const des::ExecutionMode mode :
       {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
    for (const des::SyncMode sync :
         {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
      SCOPED_TRACE(std::string(des::to_string(sync)) +
                   (mode == des::ExecutionMode::Threaded ? " threaded"
                                                         : " sequential"));
      const std::unique_ptr<Emulator> emulator = fx.make(sync);
      QueueShape shape;
      emulator->add_rebalance_safepoint(LaneShapeNet::kSafepoint);
      emulator->set_pre_safepoint_hook(
          [&](des::SimTime) { shape = queue_shape(emulator->kernel()); });
      emulator->run(fx.horizon(), mode);

      const std::uint64_t in_heaps = shape.pending - shape.chained;
      EXPECT_GT(shape.pending, 10 * fx.heap_bound());
      EXPECT_LT(in_heaps, fx.heap_bound());
      EXPECT_EQ(emulator->kernel_stats().history_hash, kUnhintedHistoryHash);
    }
  }
}

TEST(ReliableTimeoutLanes, RestoredRunRechainsTimeoutsAndKeepsTheHistory) {
  // A snapshot does not carry lane hints; restore re-derives them, link
  // hops and host timeouts alike, and reloads each LP in ascending order,
  // so the resumed queue is as chained as the uninterrupted one and the
  // resumed run replays the same history.
  const LaneShapeNet fx;
  for (const des::SyncMode sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    SCOPED_TRACE(des::to_string(sync));
    const std::string dir = ::testing::TempDir() + "massf_timeout_lanes_" +
                            des::to_string(sync);
    std::filesystem::remove_all(dir);
    const std::unique_ptr<Emulator> base = fx.make(sync);
    emu::CheckpointConfig cfg;
    cfg.dir = dir;
    cfg.first_s = LaneShapeNet::kSafepoint;
    cfg.period_s = 2 * fx.horizon();
    QueueShape at_snapshot;
    cfg.on_checkpoint = [&](std::uint64_t, const std::string&) {
      at_snapshot = queue_shape(base->kernel());
    };
    base->set_checkpoint_schedule(cfg, fx.horizon());
    base->run(fx.horizon());
    const auto snaps = ckpt::list_checkpoints(dir);
    ASSERT_EQ(snaps.size(), 1u);

    const std::unique_ptr<Emulator> resumed = fx.make(sync);
    ckpt::Reader reader = ckpt::Reader::from_file(snaps[0].second);
    resumed->restore(reader);
    const QueueShape restored = queue_shape(resumed->kernel());
    EXPECT_EQ(restored.pending, at_snapshot.pending);
    EXPECT_GT(restored.chained, 0u);
    EXPECT_GE(restored.chained, at_snapshot.chained);
    EXPECT_LT(restored.pending - restored.chained, fx.heap_bound());
    resumed->run(fx.horizon());
    EXPECT_EQ(resumed->kernel_stats().history_hash,
              base->kernel_stats().history_hash);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace massf::app
