// Tests for the packet-level emulator: delivery semantics, timing, packet
// conservation, NetFlow accounting, FIFO ordering, drops, ICMP traceroute,
// and engine-placement effects (lookahead, remote messages).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "emu/emulator.hpp"
#include "emu/icmp.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace massf::emu {
namespace {

using routing::RoutingTables;
using topology::Gbps;
using topology::make_campus;
using topology::Mbps;
using topology::milliseconds;
using topology::Network;

/// a --- r0 --- r1 --- b  (line network, two hosts, two routers)
struct LineFixture {
  Network net;
  NodeId a, r0, r1, b;
  std::unique_ptr<RoutingTables> tables;

  LineFixture() {
    a = net.add_host("a", 0);
    r0 = net.add_router("r0", 0);
    r1 = net.add_router("r1", 0);
    b = net.add_host("b", 0);
    net.add_link(a, r0, Mbps(100), milliseconds(1));
    net.add_link(r0, r1, Gbps(1), milliseconds(5));
    net.add_link(r1, b, Mbps(100), milliseconds(1));
    tables = std::make_unique<RoutingTables>(RoutingTables::build(net));
  }

  Emulator make(std::vector<int> engines, int count,
                EmulatorConfig config = {}) {
    return Emulator(net, *tables, std::move(engines), count, config);
  }
};

/// Endpoint recording everything it receives.
class Sink : public AppEndpoint {
 public:
  void receive(AppApi& api, const AppMessage& message) override {
    (void)api;
    messages.push_back(message);
  }
  std::vector<AppMessage> messages;
};

TEST(Emulator, DeliversAMessage) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  auto sink = std::make_unique<Sink>();
  Sink* sink_ptr = sink.get();
  emu.install_endpoint(fx.b, std::move(sink));
  emu.send_message(fx.a, fx.b, 3000, 42, 0.0);
  emu.run(10.0);
  ASSERT_EQ(sink_ptr->messages.size(), 1u);
  EXPECT_EQ(sink_ptr->messages[0].src, fx.a);
  EXPECT_EQ(sink_ptr->messages[0].tag, 42);
  EXPECT_DOUBLE_EQ(sink_ptr->messages[0].bytes, 3000);
}

TEST(Emulator, DeliveryTimeIncludesSerializationAndLatency) {
  LineFixture fx;
  EmulatorConfig config;
  config.train_packets = 1;
  Emulator emu = fx.make({0, 0, 0, 0}, 1, config);
  auto sink = std::make_unique<Sink>();
  Sink* sink_ptr = sink.get();
  emu.install_endpoint(fx.b, std::move(sink));
  emu.send_message(fx.a, fx.b, 1000, 0, 0.0);  // single 1000-byte packet
  emu.run(10.0);
  ASSERT_EQ(sink_ptr->messages.size(), 1u);
  const double tx100 = 1000 * 8.0 / Mbps(100);
  const double tx1g = 1000 * 8.0 / Gbps(1);
  const double expected = (tx100 + 1e-3) + (tx1g + 5e-3) + (tx100 + 1e-3);
  EXPECT_NEAR(sink_ptr->messages[0].delivered_at, expected, 1e-9);
}

TEST(Emulator, PacketConservation) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  for (int i = 0; i < 20; ++i)
    emu.send_message(fx.a, fx.b, 9000, 0, 0.01 * i);
  emu.run(30.0);
  const EmulatorStats stats = emu.stats();
  EXPECT_EQ(stats.trains_injected,
            stats.trains_delivered + stats.trains_dropped);
  EXPECT_EQ(stats.messages_sent, 20u);
  EXPECT_EQ(stats.messages_delivered, 20u);
  EXPECT_EQ(stats.trains_dropped, 0u);
}

TEST(Emulator, PerFlowFifoDelivery) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  auto sink = std::make_unique<Sink>();
  Sink* sink_ptr = sink.get();
  emu.install_endpoint(fx.b, std::move(sink));
  for (int i = 0; i < 10; ++i)
    emu.send_message(fx.a, fx.b, 20000, i, 0.0);  // same instant, same route
  emu.run(30.0);
  ASSERT_EQ(sink_ptr->messages.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sink_ptr->messages[i].tag, i);
}

TEST(Emulator, NetFlowCountsMatchInjectedPackets) {
  LineFixture fx;
  EmulatorConfig config;
  config.train_packets = 1;
  Emulator emu = fx.make({0, 0, 0, 0}, 1, config);
  // 1 message of 4500 bytes = 3 MTU packets; path has 4 nodes and 3 links.
  emu.send_message(fx.a, fx.b, 4500, 0, 0.0);
  emu.run(10.0);
  const NetFlowCollector& nf = emu.netflow();
  EXPECT_DOUBLE_EQ(nf.node_packets()[static_cast<std::size_t>(fx.a)], 3.0);
  EXPECT_DOUBLE_EQ(nf.node_packets()[static_cast<std::size_t>(fx.r0)], 3.0);
  EXPECT_DOUBLE_EQ(nf.node_packets()[static_cast<std::size_t>(fx.r1)], 3.0);
  EXPECT_DOUBLE_EQ(nf.node_packets()[static_cast<std::size_t>(fx.b)], 3.0);
  for (double link : nf.link_packets()) EXPECT_DOUBLE_EQ(link, 3.0);
  EXPECT_DOUBLE_EQ(nf.total_node_packets(), 12.0);
}

TEST(Emulator, NetFlowRecordsFlowDetails) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  emu.send_message(fx.a, fx.b, 30000, 1, 0.0);
  emu.send_message(fx.b, fx.a, 15000, 2, 0.0);
  emu.run(10.0);
  const auto flows_r0 = emu.netflow().node_flows(fx.r0);
  EXPECT_EQ(flows_r0.size(), 2u);  // two distinct (src,dst,tag) flows
  for (const FlowRecord& record : flows_r0) {
    EXPECT_GT(record.packets, 0);
    EXPECT_GE(record.last_seen, record.first_seen);
  }
}

/// `n` reliable 3000-byte messages (2 MTU packets, one train each) from a
/// to b, one every 20 ms.
void send_reliable_stream(Emulator& emu, const LineFixture& fx, int n) {
  for (int i = 0; i < n; ++i) emu.send_reliable(fx.a, fx.b, 3000, 7, 0.02 * i);
}

void expect_same_records(const std::vector<FlowRecord>& got,
                         const std::vector<FlowRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].flow, want[i].flow);
    EXPECT_EQ(got[i].packets, want[i].packets);
    EXPECT_EQ(got[i].bytes, want[i].bytes);
    EXPECT_EQ(got[i].first_seen, want[i].first_seen);
    EXPECT_EQ(got[i].last_seen, want[i].last_seen);
  }
}

TEST(Emulator, NetFlowRecordsPerFlowNotPerMessage) {
  // A reliable stream is two flows at every node it crosses: its data and
  // its ACKs, however many messages it carries. The ACK leaves b by a
  // direct transmit, not an injected arrival, so b records the data only.
  constexpr double kHorizon = 3.0;
  LineFixture fx;
  for (const int n : {1, 8, 64}) {
    SCOPED_TRACE(n);
    Emulator plain = fx.make({0, 0, 0, 0}, 1);
    send_reliable_stream(plain, fx, n);
    plain.run(kHorizon);
    ASSERT_EQ(plain.stats().reliable_messages_acked,
              static_cast<std::uint64_t>(n));
    ASSERT_EQ(plain.stats().retransmissions, 0u);
    const NetFlowCollector& nf = plain.netflow();
    for (const NodeId node : {fx.a, fx.r0, fx.r1, fx.b}) {
      SCOPED_TRACE(node);
      const std::vector<FlowRecord> records = nf.node_flows(node);
      ASSERT_EQ(records.size(), node == fx.b ? 1u : 2u);
      double total = 0;
      int data = 0;
      int acks = 0;
      for (const FlowRecord& record : records) {
        total += record.packets;
        if (record.packets == 2.0 * n && record.bytes == 3000.0 * n) ++data;
        if (record.packets == n && record.bytes < 3000.0 * n) ++acks;
      }
      EXPECT_EQ(data, 1);
      EXPECT_EQ(acks, node == fx.b ? 0 : 1);
      EXPECT_EQ(total, nf.node_packets()[static_cast<std::size_t>(node)]);
    }

    // A snapshot taken while message n/2's ACK is in flight, restored into
    // a rebuilt emulator, finishes with the uninterrupted run's records.
    const std::string dir = ::testing::TempDir() +
                            "massf_emu_netflow_" + std::to_string(n);
    std::filesystem::remove_all(dir);
    CheckpointConfig cfg;
    cfg.dir = dir;
    cfg.first_s = 0.02 * (n / 2) + 0.011;
    cfg.period_s = 2 * kHorizon;
    Emulator base = fx.make({0, 0, 0, 0}, 1);
    send_reliable_stream(base, fx, n);
    base.set_checkpoint_schedule(cfg, kHorizon);
    base.run(kHorizon);
    const auto snapshots = ckpt::list_checkpoints(dir);
    ASSERT_EQ(snapshots.size(), 1u);

    Emulator revived = fx.make({0, 0, 0, 0}, 1);
    send_reliable_stream(revived, fx, n);
    ckpt::Reader reader = ckpt::Reader::from_file(snapshots[0].second);
    revived.restore(reader);
    revived.run(kHorizon);
    for (NodeId node = 0; node < fx.net.node_count(); ++node) {
      SCOPED_TRACE(node);
      expect_same_records(revived.netflow().node_flows(node),
                          nf.node_flows(node));
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(Emulator, StatsAfterRunCountLaterSends) {
  // stats() after run() returns the run-end fold; a send after the run
  // changes a host's counters, so the next stats() folds them again.
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  emu.send_message(fx.a, fx.b, 3000, 0, 0.0);
  emu.run(1.0);
  const EmulatorStats ran = emu.stats();
  EXPECT_EQ(ran.trains_injected, 1u);
  EXPECT_EQ(ran.trains_delivered, 1u);
  emu.send_message(fx.a, fx.b, 3000, 0, 2.0);
  const EmulatorStats later = emu.stats();
  EXPECT_EQ(later.trains_injected, ran.trains_injected + 1);
  EXPECT_EQ(later.trains_delivered, ran.trains_delivered);
}

TEST(Emulator, DropTailUnderOverload) {
  LineFixture fx;
  EmulatorConfig config;
  config.max_queue_delay = 0.005;  // very shallow queues
  Emulator emu = fx.make({0, 0, 0, 0}, 1, config);
  // 100 Mb/s access link; offer ~10x capacity instantly.
  for (int i = 0; i < 100; ++i)
    emu.send_message(fx.a, fx.b, 15000, 0, 0.0);
  emu.run(10.0);
  const EmulatorStats stats = emu.stats();
  EXPECT_GT(stats.trains_dropped, 0u);
  EXPECT_EQ(stats.trains_injected,
            stats.trains_delivered + stats.trains_dropped);
}

TEST(Emulator, LookaheadIsMinCrossEngineLatency) {
  LineFixture fx;
  // Engines split across the middle 5 ms link.
  Emulator emu = fx.make({0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(emu.lookahead(), 5e-3);
  // Split across a 1 ms access link instead.
  Emulator emu2 = fx.make({0, 1, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(emu2.lookahead(), 1e-3);
}

TEST(Emulator, CrossEngineTrafficCountsRemoteMessages) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 1, 1}, 2);
  emu.send_message(fx.a, fx.b, 3000, 0, 0.0);
  emu.run(10.0);
  EXPECT_GT(emu.kernel_stats().remote_messages, 0u);
  // Same-engine mapping has none.
  Emulator emu2 = fx.make({0, 0, 0, 0}, 1);
  emu2.send_message(fx.a, fx.b, 3000, 0, 0.0);
  emu2.run(10.0);
  EXPECT_EQ(emu2.kernel_stats().remote_messages, 0u);
}

TEST(Emulator, IdenticalResultsAcrossEngineCounts) {
  // Delivery outcomes (message count, delivered bytes) are placement-
  // independent; only load distribution changes.
  LineFixture fx;
  Emulator one = fx.make({0, 0, 0, 0}, 1);
  Emulator two = fx.make({0, 1, 0, 1}, 2);
  for (Emulator* emu : {&one, &two}) {
    for (int i = 0; i < 7; ++i)
      emu->send_message(fx.a, fx.b, 12000, i, 0.05 * i);
    emu->run(20.0);
  }
  EXPECT_EQ(one.stats().messages_delivered, two.stats().messages_delivered);
  EXPECT_DOUBLE_EQ(one.stats().bytes_delivered, two.stats().bytes_delivered);
  // Total kernel events identical too: same packets, same hops.
  std::uint64_t e1 = 0, e2 = 0;
  for (auto c : one.kernel_stats().events_per_lp) e1 += c;
  for (auto c : two.kernel_stats().events_per_lp) e2 += c;
  EXPECT_EQ(e1, e2);
}

TEST(Emulator, ComputeDelaysViaAppApi) {
  LineFixture fx;
  Emulator emu = fx.make({0, 0, 0, 0}, 1);

  class Delayer : public AppEndpoint {
   public:
    void start(AppApi& api) override { api.set_timer(2.5, 7); }
    void on_timer(AppApi& api, std::int64_t tag) override {
      fired_at = api.now();
      fired_tag = tag;
    }
    double fired_at = -1;
    std::int64_t fired_tag = 0;
  };
  auto ep = std::make_unique<Delayer>();
  Delayer* raw = ep.get();
  emu.install_endpoint(fx.a, std::move(ep));
  emu.run(10.0);
  EXPECT_DOUBLE_EQ(raw->fired_at, 2.5);
  EXPECT_EQ(raw->fired_tag, 7);
}

TEST(Traceroute, DiscoversTablePaths) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  const auto hosts = net.hosts();
  std::vector<std::pair<NodeId, NodeId>> pairs{
      {hosts[0], hosts[39]}, {hosts[5], hosts[20]}, {hosts[1], hosts[2]}};
  const auto routes = discover_routes(net, tables, pairs);
  ASSERT_EQ(routes.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(routes[i], tables.route(pairs[i].first, pairs[i].second))
        << "pair " << i;
  }
}

TEST(Traceroute, WorksBetweenRouters) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  const auto routers = net.routers();
  std::vector<std::pair<NodeId, NodeId>> pairs{{routers[0], routers[19]}};
  const auto routes = discover_routes(net, tables, pairs);
  EXPECT_EQ(routes[0], tables.route(routers[0], routers[19]));
}

/// Campus-scale run through the typed packet path: deterministic message
/// fan plus traceroute probes, round-robin placement over `engines`.
struct CampusRun {
  des::KernelStats kernel;
  EmulatorStats emu;
  std::size_t pool_size = 0;
};

CampusRun run_campus(const Network& net, const RoutingTables& tables,
                     int engines, des::ExecutionMode mode) {
  std::vector<int> placement(static_cast<std::size_t>(net.node_count()));
  for (std::size_t i = 0; i < placement.size(); ++i)
    placement[i] = static_cast<int>(i) % engines;
  Emulator emu(net, tables, std::move(placement), engines);

  const auto hosts = net.hosts();
  const int n = static_cast<int>(hosts.size());
  std::uint64_t probe_id = 0;
  for (int i = 0; i < n; ++i) {
    const NodeId src = hosts[static_cast<std::size_t>(i)];
    const NodeId dst =
        hosts[static_cast<std::size_t>((i * 7 + 3) % n)];
    if (src == dst) continue;
    // Spread over sim time so trains recycle through the pool instead of
    // all being in flight at once.
    emu.send_message(src, dst, 9000.0 + 500.0 * (i % 5), i, 0.4 * i);
    // TTL-limited probes ride the same packet path (handler left unset:
    // replies are dropped at the prober, which is all determinism needs).
    if (i % 9 == 0) emu.send_probe(src, dst, 1 + i % 4, ++probe_id, 0.005);
  }
  emu.run(30.0, mode);
  return {emu.kernel_stats(), emu.stats(), emu.packet_pool_size()};
}

TEST(EmulatorDeterminism, CampusSequentialAndThreadedIdentical) {
  const Network net = make_campus();
  const RoutingTables tables = RoutingTables::build(net);
  for (const int engines : {2, 4}) {
    const CampusRun seq =
        run_campus(net, tables, engines, des::ExecutionMode::Sequential);
    const CampusRun thr =
        run_campus(net, tables, engines, des::ExecutionMode::Threaded);
    EXPECT_EQ(seq.kernel.history_hash, thr.kernel.history_hash)
        << engines << " engines";
    EXPECT_EQ(seq.kernel.events_per_lp, thr.kernel.events_per_lp)
        << engines << " engines";
    EXPECT_EQ(seq.kernel.remote_messages, thr.kernel.remote_messages);
    EXPECT_EQ(seq.kernel.windows, thr.kernel.windows);
    EXPECT_NEAR(seq.kernel.modeled_time, thr.kernel.modeled_time, 1e-9);
    EXPECT_EQ(seq.emu.trains_delivered, thr.emu.trains_delivered);
    EXPECT_EQ(seq.emu.trains_dropped, thr.emu.trains_dropped);
    EXPECT_EQ(seq.pool_size, thr.pool_size);
    // Allocation-free hot path: one pool slot carries a train across its
    // whole multi-hop journey, so slots ever materialized stay far below
    // the per-hop kernel event count (the old closure path allocated one
    // heap closure per hop).
    EXPECT_GT(seq.emu.trains_injected, 0u);
    std::uint64_t total_events = 0;
    for (const std::uint64_t c : seq.kernel.events_per_lp) total_events += c;
    EXPECT_LT(seq.pool_size, total_events / 2);
  }
}

TEST(Emulator, RejectsBadConfiguration) {
  LineFixture fx;
  EXPECT_THROW(fx.make({0, 0, 0}, 1), std::invalid_argument);   // wrong size
  EXPECT_THROW(fx.make({0, 0, 0, 2}, 2), std::invalid_argument);  // engine id
  Emulator emu = fx.make({0, 0, 0, 0}, 1);
  EXPECT_THROW(emu.send_message(fx.a, fx.a, 100, 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(emu.send_message(fx.a, fx.b, 0, 0, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace massf::emu
