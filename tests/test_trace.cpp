// Tests for trace recording and causal replay (paper's "network emulation
// time in isolation" machinery).
#include <gtest/gtest.h>

#include "emu/emulator.hpp"
#include "emu/trace.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace massf::emu {
namespace {

using routing::RoutingTables;
using topology::make_campus;
using topology::Network;

/// Request/response endpoints: A sends a request, B answers, A follows up —
/// a three-message causal chain.
class Requester : public AppEndpoint {
 public:
  explicit Requester(NodeId peer) : peer_(peer) {}
  void start(AppApi& api) override { api.send(peer_, 5000, 1); }
  void receive(AppApi& api, const AppMessage& message) override {
    if (message.tag == 2) api.send(peer_, 2000, 3);  // follow-up
  }

 private:
  NodeId peer_;
};

class Responder : public AppEndpoint {
 public:
  void receive(AppApi& api, const AppMessage& message) override {
    if (message.tag == 1) api.send(message.src, 40000, 2);
  }
};

struct Fixture {
  Network net = make_campus();
  RoutingTables tables = RoutingTables::build(net);
  NodeId a, b;

  Fixture() {
    const auto hosts = net.hosts();
    a = hosts[0];
    b = hosts[39];
  }
};

Trace record_chain(Fixture& fx) {
  Emulator emu(fx.net, fx.tables,
               std::vector<int>(static_cast<std::size_t>(fx.net.node_count()),
                                0),
               1);
  TraceRecorder recorder(fx.net.node_count());
  emu.set_trace_recorder(&recorder);
  emu.install_endpoint(fx.a, std::make_unique<Requester>(fx.b));
  emu.install_endpoint(fx.b, std::make_unique<Responder>());
  emu.run(60.0);
  return recorder.finish();
}

TEST(TraceRecorder, CapturesCausalChain) {
  Fixture fx;
  const Trace trace = record_chain(fx);
  EXPECT_EQ(trace.total_messages(), 3u);
  // A's first send depends on nothing; its follow-up required one delivery.
  const auto& a_sends = trace.sends_by_host[static_cast<std::size_t>(fx.a)];
  ASSERT_EQ(a_sends.size(), 2u);
  EXPECT_EQ(a_sends[0].required_received, 0u);
  EXPECT_EQ(a_sends[1].required_received, 1u);
  // B's response required one delivery (the request).
  const auto& b_sends = trace.sends_by_host[static_cast<std::size_t>(fx.b)];
  ASSERT_EQ(b_sends.size(), 1u);
  EXPECT_EQ(b_sends[0].required_received, 1u);
  EXPECT_DOUBLE_EQ(trace.total_bytes(), 5000 + 40000 + 2000);
}

TEST(TraceReplay, ReplaysEveryMessageCausally) {
  Fixture fx;
  const Trace trace = record_chain(fx);

  Emulator emu(fx.net, fx.tables,
               std::vector<int>(static_cast<std::size_t>(fx.net.node_count()),
                                0),
               1);
  TraceRecorder recorder(fx.net.node_count());  // re-record the replay
  emu.set_trace_recorder(&recorder);
  TraceReplayer replayer(trace);
  replayer.install(emu);
  emu.run(60.0);
  EXPECT_EQ(replayer.messages_issued(), 3u);
  EXPECT_EQ(emu.stats().messages_delivered, 3u);

  // Causal order preserved in the replay: B's response still required the
  // request first.
  const Trace replay_trace = recorder.finish();
  const auto& b_sends =
      replay_trace.sends_by_host[static_cast<std::size_t>(fx.b)];
  ASSERT_EQ(b_sends.size(), 1u);
  EXPECT_EQ(b_sends[0].required_received, 1u);
}

TEST(TraceReplay, FasterThanOriginal) {
  // The original run has think/compute gaps via staggered sends; the replay
  // collapses them to causal latency only.
  Fixture fx;
  Emulator original(
      fx.net, fx.tables,
      std::vector<int>(static_cast<std::size_t>(fx.net.node_count()), 0), 1);
  TraceRecorder recorder(fx.net.node_count());
  original.set_trace_recorder(&recorder);
  // 10 spaced-out one-way messages.
  for (int i = 0; i < 10; ++i)
    original.send_message(fx.a, fx.b, 20000, i, 5.0 * i);
  original.run(100.0);
  const double original_span = original.kernel_stats().sim_time_reached;

  Emulator replay_emu(
      fx.net, fx.tables,
      std::vector<int>(static_cast<std::size_t>(fx.net.node_count()), 0), 1);
  TraceReplayer replayer(recorder.finish());
  replayer.install(replay_emu);
  replay_emu.run(100.0);
  EXPECT_EQ(replayer.messages_issued(), 10u);
  // Replay compresses 45+ seconds of pacing into network time only.
  EXPECT_LT(replay_emu.kernel_stats().sim_time_reached, original_span / 10);
}

}  // namespace
}  // namespace massf::emu
