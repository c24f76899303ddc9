// Tests for the conservative parallel DES kernel: event ordering,
// lookahead enforcement, window accounting, and sequential/threaded
// equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "des/kernel.hpp"
#include "kernel_script.hpp"

namespace massf::des {
namespace {

TEST(Kernel, EventsRunInTimestampOrderPerLp) {
  Kernel kernel(1, 0.5);
  ScriptSink script(kernel);
  std::vector<double> order;
  script.at(0, 3.0, [&] { order.push_back(3.0); });
  script.at(0, 1.0, [&] { order.push_back(1.0); });
  script.at(0, 2.0, [&] { order.push_back(2.0); });
  kernel.run_until(10.0);
  EXPECT_EQ(order, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(kernel.stats().events_per_lp[0], 3u);
}

TEST(Kernel, SameTimeEventsRunInScheduleOrder) {
  Kernel kernel(1, 0.5);
  ScriptSink script(kernel);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    script.at(0, 1.0, [&order, i] { order.push_back(i); });
  kernel.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Kernel, ChildEventsInSameWindowRun) {
  Kernel kernel(1, 1.0);
  ScriptSink script(kernel);
  std::vector<double> times;
  script.at(0, 0.5, [&] {
    times.push_back(0.5);
    // A child inside the current window (now=0.5, window end 1.5) must
    // still execute in it.
    script.at(0, 0.9, [&] { times.push_back(0.9); });
  });
  kernel.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{0.5, 0.9}));
  EXPECT_EQ(kernel.stats().windows, 1u);
}

TEST(Kernel, NowReflectsEventTime) {
  Kernel kernel(1, 0.5);
  ScriptSink script(kernel);
  double seen = -1;
  script.at(0, 2.25, [&] { seen = kernel.now(); });
  kernel.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.25);
}

TEST(Kernel, EndTimeExcludesLaterEvents) {
  Kernel kernel(1, 0.5);
  ScriptSink script(kernel);
  int ran = 0;
  script.at(0, 1.0, [&] { ++ran; });
  script.at(0, 5.0, [&] { ++ran; });
  kernel.run_until(5.0);  // strictly-before semantics
  EXPECT_EQ(ran, 1);
}

TEST(Kernel, RemoteNeedsLookahead) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  bool violated_caught = false;
  script.at(0, 1.0, [&] {
    try {
      script.remote(1, 1.5, [] {});  // < now + lookahead
    } catch (const std::invalid_argument&) {
      violated_caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(violated_caught);
}

TEST(Kernel, RemoteDeliveryExecutes) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  double delivered_at = -1;
  script.at(0, 1.0, [&] {
    script.remote(1, 2.5, [&] { delivered_at = kernel.now(); });
  });
  kernel.run_until(10.0);
  EXPECT_DOUBLE_EQ(delivered_at, 2.5);
  EXPECT_EQ(kernel.stats().remote_messages, 1u);
  EXPECT_EQ(kernel.stats().events_per_lp[1], 1u);
}

TEST(Kernel, ScheduleDuringRunOnlyTargetsOwnLp) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  bool caught = false;
  script.at(0, 1.0, [&] {
    try {
      kernel.schedule_packet(1, 5.0, {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(Kernel, CannotScheduleIntoPast) {
  Kernel kernel(1, 1.0);
  ScriptSink script(kernel);
  bool caught = false;
  script.at(0, 2.0, [&] {
    try {
      kernel.schedule_packet(0, 1.0, {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(Kernel, IdleSpansAreSkipped) {
  // Two events 1000 lookaheads apart must not cost 1000 windows.
  Kernel kernel(1, 1.0);
  ScriptSink script(kernel);
  kernel.schedule_packet(0, 0.0, {});
  kernel.schedule_packet(0, 1000.0, {});
  kernel.run_until(2000.0);
  EXPECT_LE(kernel.stats().windows, 4u);
}

TEST(Kernel, ModeledTimeTracksCostModel) {
  CostModel cost;
  cost.per_event = 1e-3;
  cost.per_remote_message = 0;
  cost.per_window_sync = 1e-2;
  Kernel kernel(1, 1.0, cost);
  ScriptSink script(kernel);
  for (int i = 0; i < 10; ++i) kernel.schedule_packet(0, 0.5, {});
  kernel.run_until(10.0);
  // One window: 10 events * 1ms + 1 sync * 10ms.
  EXPECT_NEAR(kernel.stats().modeled_time, 10 * 1e-3 + 1e-2, 1e-12);
  EXPECT_EQ(kernel.stats().windows, 1u);
}

TEST(Kernel, LoadSeriesBucketsBySimTime) {
  Kernel kernel(1, 10.0);
  ScriptSink script(kernel);
  kernel.set_bucket_width(1.0);
  kernel.schedule_packet(0, 0.5, {});
  kernel.schedule_packet(0, 2.5, {});
  kernel.schedule_packet(0, 2.75, {});
  kernel.run_until(10.0);
  const auto& series = kernel.stats().load_series[0];
  ASSERT_GE(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 0.0);
  EXPECT_DOUBLE_EQ(series[2], 2.0);
}

TEST(Kernel, RunTwiceRejected) {
  Kernel kernel(1, 1.0);
  ScriptSink script(kernel);
  kernel.schedule_packet(0, 0.5, {});
  kernel.run_until(1.0);
  EXPECT_THROW(kernel.run_until(2.0), std::invalid_argument);
}

// The throw comes while the other LPs hold cross-LP sends in their outboxes
// (and earlier runs wait in the channels): the run must still stop and
// rethrow, in every sync mode and for any worker count, and the kernel must
// free every run node (the ASan preset reports a leak otherwise).
TEST(Kernel, ThreadedExceptionPropagates) {
  constexpr int kLps = 4;
  for (const SyncMode sync :
       {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
    for (const std::size_t workers : worker_counts(kLps)) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(sync) << ", " << workers << " workers");
      Kernel kernel(kLps, 1.0);
      kernel.set_sync_mode(sync);
      ScriptSink script(kernel);
      // LPs 0..2 chatter to every other LP every 0.25 s without end; the
      // last LP (stepped last by its worker) throws mid-run.
      std::function<void(int)> chatter = [&](int lp) {
        for (int dst = 0; dst < kLps; ++dst)
          if (dst != lp)
            kernel.schedule_packet_remote(dst, kernel.now() + 1.0, {});
        script.at(lp, kernel.now() + 0.25, [&chatter, lp] { chatter(lp); });
      };
      for (int lp = 0; lp + 1 < kLps; ++lp)
        script.at(lp, 0.5, [&chatter, lp] { chatter(lp); });
      script.at(kLps - 1, 2.6, [] { throw std::runtime_error("boom"); });
      EXPECT_THROW(KernelTestPeer::run_until(kernel, 100.0, workers),
                   std::runtime_error);
      EXPECT_EQ(kernel.current_lp(), -1);
      EXPECT_GT(kernel.pending_events(), 0u);
    }
  }
}

// ---- Packet ping-pong ------------------------------------------------------

/// Pool-like stable storage for hop records referenced by PacketEvents.
struct HopRecord {
  int lp = 0;
  int hops_left = 0;
};

/// Sink that forwards each hop to the next LP (remote) or reschedules
/// locally, mimicking the emulator's packet-train hop chains. Every hop
/// also schedules a local filler event (null payload) and `fanout` filler
/// events on the next LP alongside the hop.
class ForwardingSink : public EventSink {
 public:
  ForwardingSink(Kernel& kernel, int lps, int fanout)
      : kernel_(kernel), lps_(lps), fanout_(fanout) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* rec = static_cast<HopRecord*>(event.payload);
    if (rec == nullptr || --rec->hops_left <= 0) return;
    const double now = kernel_.now();
    kernel_.schedule_packet(rec->lp, now + 0.25, {});
    const int next = (rec->lp + 1) % lps_;
    for (int f = 0; f < fanout_; ++f) {
      const double t = now + 1.0 + 0.01 * (f + 1);
      if (next == rec->lp)
        kernel_.schedule_packet(next, t, {});
      else
        kernel_.schedule_packet_remote(next, t, {});
    }
    if (next == rec->lp) {
      kernel_.schedule_packet(rec->lp, now + 1.0, {rec, rec->lp});
    } else {
      rec->lp = next;
      kernel_.schedule_packet_remote(next, now + 1.0, {rec, next});
    }
  }

 private:
  Kernel& kernel_;
  int lps_;
  int fanout_;
};

/// Two 40-hop chains per LP forwarded around the LP ring by the sink.
/// `fanout` 0 is sparse cross-LP traffic (short outbox runs);
/// fanout kBurst sends a burst of that many fillers with every hop.
KernelStats pingpong(int lps, std::size_t workers,
                     SyncMode sync = SyncMode::GlobalWindow, int fanout = 0) {
  Kernel kernel(lps, 1.0);
  kernel.set_sync_mode(sync);
  ForwardingSink sink(kernel, lps, fanout);
  kernel.set_event_sink(&sink);
  std::vector<HopRecord> records(static_cast<std::size_t>(2 * lps));
  for (int lp = 0; lp < lps; ++lp) {
    for (int c = 0; c < 2; ++c) {
      auto* rec = &records[static_cast<std::size_t>(2 * lp + c)];
      *rec = {lp, 40};
      kernel.schedule_packet(lp, 0.1 * (lp + 1) + 0.05 * c, {rec, lp});
    }
  }
  KernelTestPeer::run_until(kernel, 1e6, workers);
  return kernel.stats();
}

/// The single worker of a Sequential run.
constexpr std::size_t kSequential = 1;

constexpr int kBurst = 16;

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Exact Sequential counters of the ping-pong. Any drift in the window
/// schedule, round order, flush schedule or cost accounting shows up here
/// even when the history hash survives.
struct GoldenRun {
  int lps;
  SyncMode sync;
  int fanout;
  std::uint64_t windows;
  std::uint64_t idle_jumps;
  std::uint64_t channel_advances;
  std::uint64_t handoff_runs;
  std::uint64_t remote_messages;
  std::uint64_t history_hash;
  std::uint64_t modeled_time_bits;
};

constexpr SyncMode kGW = SyncMode::GlobalWindow;
constexpr SyncMode kCL = SyncMode::ChannelLookahead;

// GlobalWindow publishes one run per (sender, receiver) pair with traffic
// per window: an LP's two chains hop in the same window, so its runs
// carry two hops (sparse: remote_messages / 2) or two hops plus their
// fillers (burst: remote_messages / 34). ChannelLookahead publishes one
// run per (step that sent, receiver) pair.
const GoldenRun kGolden[] = {
    {1, kGW, 0, 40u, 0u, 0u, 0u, 0u,
     0x898fd43d4213b2cull, 0x3f82007dd4413552ull},
    {1, kCL, 0, 0u, 0u, 1u, 0u, 0u,
     0x898fd43d4213b2cull, 0x3f50385c67dfe332ull},
    {2, kGW, 0, 40u, 0u, 0u, 78u, 156u,
     0x6f7031151845ac59ull, 0x3f88644523f67f4dull},
    {2, kCL, 0, 0u, 0u, 41u, 40u, 156u,
     0x6f7031151845ac59ull, 0x3f70d5a5b9628cbfull},
    {3, kGW, 0, 40u, 0u, 0u, 117u, 234u,
     0x7db58848b3d15af6ull, 0x3f88644523f67f4dull},
    {3, kCL, 0, 0u, 0u, 81u, 79u, 234u,
     0x7db58848b3d15af6ull, 0x3f70d5a5b9628cbcull},
    {4, kGW, 0, 40u, 0u, 0u, 156u, 312u,
     0x3e8c864ecb30e096ull, 0x3f88644523f67f4dull},
    {4, kCL, 0, 0u, 0u, 121u, 118u, 312u,
     0x3e8c864ecb30e096ull, 0x3f70d5a5b9628cbcull},
    {8, kGW, 0, 40u, 0u, 0u, 312u, 624u,
     0x49c188ac6a673258ull, 0x3f88ca8198f1d3eaull},
    {8, kCL, 0, 0u, 0u, 281u, 274u, 624u,
     0x49c188ac6a673258ull, 0x3f70d5a5b9628cbcull},
    {4, kGW, kBurst, 40u, 0u, 0u, 156u, 5304u,
     0xb936aa5b0dfacdfeull, 0x3fb16d0917d6b665ull},
    {4, kCL, kBurst, 0u, 0u, 121u, 118u, 5304u,
     0xb936aa5b0dfacdfeull, 0x3faedbb59ddc1e73ull},
};

TEST(GoldenSequential, PingPongCountersArePinned) {
  for (const GoldenRun& g : kGolden) {
    const KernelStats got = pingpong(g.lps, kSequential, g.sync, g.fanout);
    SCOPED_TRACE(::testing::Message()
                 << "{" << g.lps << ", "
                 << (g.sync == kGW ? "kGW" : "kCL") << ", " << g.fanout
                 << ", " << got.windows << "u, " << got.idle_jumps << "u, "
                 << got.channel_advances << "u, " << got.handoff_runs
                 << "u, " << got.remote_messages << "u, 0x" << std::hex
                 << got.history_hash << "ull, 0x"
                 << bits_of(got.modeled_time) << "ull},");
    EXPECT_EQ(got.windows, g.windows);
    EXPECT_EQ(got.idle_jumps, g.idle_jumps);
    EXPECT_EQ(got.channel_advances, g.channel_advances);
    EXPECT_EQ(got.handoff_runs, g.handoff_runs);
    EXPECT_EQ(got.remote_messages, g.remote_messages);
    EXPECT_EQ(got.history_hash, g.history_hash);
    EXPECT_EQ(bits_of(got.modeled_time), g.modeled_time_bits);
  }
}

/// One 40-hop token per LP passed around the LP ring by inline ScriptSink
/// bodies: each hop schedules a local filler and its own continuation on
/// the next LP, so event bodies are created while the run is in flight.
KernelStats script_ring(int lps, std::size_t workers,
                        SyncMode sync = SyncMode::GlobalWindow) {
  Kernel kernel(lps, 1.0);
  kernel.set_sync_mode(sync);
  ScriptSink script(kernel);
  std::function<void(int, int)> hop = [&](int lp, int hops_left) {
    if (hops_left == 0) return;
    const double now = kernel.now();
    kernel.schedule_packet(lp, now + 0.25, {});  // local filler
    const int next = (lp + 1) % lps;
    auto continuation = [&hop, next, hops_left] { hop(next, hops_left - 1); };
    if (next == lp)
      script.at(lp, now + 1.0, continuation);
    else
      script.remote(next, now + 1.0, continuation);
  };
  for (int lp = 0; lp < lps; ++lp)
    script.at(lp, 0.1 * (lp + 1), [&hop, lp] { hop(lp, 40); });
  KernelTestPeer::run_until(kernel, 1e6, workers);
  return kernel.stats();
}

void expect_same_run(const KernelStats& seq, const KernelStats& thr) {
  EXPECT_EQ(seq.history_hash, thr.history_hash);
  EXPECT_EQ(seq.events_per_lp, thr.events_per_lp);
  EXPECT_EQ(seq.remote_messages, thr.remote_messages);
  EXPECT_EQ(seq.windows, thr.windows);
  EXPECT_NEAR(seq.modeled_time, thr.modeled_time, 1e-9);
  EXPECT_EQ(seq.load_series, thr.load_series);
}

class ModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ModeEquivalence, SequentialAndThreadedIdentical) {
  const int lps = GetParam();
  const KernelStats seq = script_ring(lps, kSequential);
  for (const std::size_t workers : worker_counts(lps)) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    expect_same_run(seq, script_ring(lps, workers));
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

class PacketModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PacketModeEquivalence, SequentialAndThreadedIdentical) {
  const int lps = GetParam();
  for (const int fanout : {0, kBurst}) {
    const KernelStats seq = pingpong(lps, kSequential, kGW, fanout);
    for (const std::size_t workers : worker_counts(lps)) {
      SCOPED_TRACE(::testing::Message()
                   << "fanout " << fanout << ", " << workers << " workers");
      const KernelStats thr = pingpong(lps, workers, kGW, fanout);
      expect_same_run(seq, thr);
      // GlobalWindow publishes the same runs whatever the worker count.
      EXPECT_EQ(seq.handoff_runs, thr.handoff_runs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, PacketModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(KernelPacket, RequiresSinkRegistration) {
  Kernel kernel(1, 1.0);
  EXPECT_THROW(kernel.schedule_packet(0, 0.5, PacketEvent{}),
               std::invalid_argument);
}

TEST(KernelPacket, DispatchesToSinkWithContext) {
  Kernel kernel(2, 1.0);

  class Probe : public EventSink {
   public:
    explicit Probe(Kernel& k) : kernel_(k) {}
    void on_packet_event(const PacketEvent& event) override {
      seen_payload = event.payload;
      seen_node = event.node;
      seen_time = kernel_.now();
      seen_lp = kernel_.current_lp();
    }
    Kernel& kernel_;
    void* seen_payload = nullptr;
    std::int32_t seen_node = -1;
    double seen_time = -1;
    int seen_lp = -1;
  };

  Probe probe(kernel);
  kernel.set_event_sink(&probe);
  int payload = 7;
  kernel.schedule_packet(1, 2.5, {&payload, 42});
  kernel.run_until(10.0);
  EXPECT_EQ(probe.seen_payload, &payload);
  EXPECT_EQ(probe.seen_node, 42);
  EXPECT_DOUBLE_EQ(probe.seen_time, 2.5);
  EXPECT_EQ(probe.seen_lp, 1);
  EXPECT_EQ(kernel.stats().events_per_lp[1], 1u);
}

TEST(KernelPacket, RemotePacketNeedsLookahead) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  bool caught = false;
  script.at(0, 1.0, [&] {
    try {
      kernel.schedule_packet_remote(1, 1.5, PacketEvent{});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(caught);
}

TEST(KernelPacket, BulkFanInExecutesInTimestampOrder) {
  // Many remote events landing on one LP in a single window exercise the
  // bulk sorted-run drain; order must still be exact.
  const int senders = 7, per_sender = 23;
  Kernel kernel(senders + 1, 1.0);
  ScriptSink script(kernel);
  std::vector<double> order;
  for (int s = 0; s < senders; ++s) {
    script.at(s + 1, 0.5, [&, s] {
      for (int i = 0; i < per_sender; ++i) {
        // Deliberately interleaved timestamps across senders.
        script.remote(0, 2.0 + 0.01 * i + 0.001 * s,
                      [&] { order.push_back(kernel.now()); });
      }
    });
  }
  kernel.run_until(10.0);
  ASSERT_EQ(order.size(), static_cast<std::size_t>(senders * per_sender));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(kernel.stats().remote_messages,
            static_cast<std::uint64_t>(senders * per_sender));
}

// ---- SyncMode::ChannelLookahead ------------------------------------------

TEST(ChannelSync, ValidationRejectsBadRegistrations) {
  Kernel kernel(3, 1.0);
  ScriptSink script(kernel);
  // Lookahead below the global minimum would let a channel undercut the
  // safety bound every other channel assumes.
  EXPECT_THROW(kernel.set_channel_lookahead(0, 1, 0.5),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(0, 0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(0, 3, 2.0),
               std::invalid_argument);
  EXPECT_THROW(kernel.set_channel_lookahead(-1, 1, 2.0),
               std::invalid_argument);
  kernel.set_channel_lookahead(0, 1, 2.0);
  kernel.schedule_packet(0, 0.1, {});
  kernel.run_until(1.0);
  EXPECT_THROW(kernel.set_channel_lookahead(1, 0, 2.0),
               std::invalid_argument);
}

TEST(ChannelSync, LookaheadAccessorSemantics) {
  Kernel kernel(3, 1.0);
  // Nothing registered: every pair is implicitly at the global lookahead.
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 1.0);
  kernel.set_channel_lookahead(0, 1, 2.5);
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 2.5);
  // Registered graph is now authoritative: absent pairs have no channel.
  EXPECT_EQ(kernel.channel_lookahead(1, 0), Kernel::never());
  // Re-registration overwrites.
  kernel.set_channel_lookahead(0, 1, 3.0);
  EXPECT_DOUBLE_EQ(kernel.channel_lookahead(0, 1), 3.0);
}

TEST(ChannelSync, RemoteSendValidatesAgainstChannelLookahead) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  kernel.set_channel_lookahead(0, 1, 2.0);
  kernel.set_channel_lookahead(1, 0, 1.0);
  bool tight_caught = false;
  double delivered_at = -1;
  script.at(0, 1.0, [&] {
    // Legal under the global lookahead (1.0) but not under this channel's.
    try {
      kernel.schedule_packet_remote(1, 2.5, {});
    } catch (const std::invalid_argument&) {
      tight_caught = true;
    }
    script.remote(1, 3.0, [&] { delivered_at = kernel.now(); });
  });
  kernel.run_until(10.0);
  EXPECT_TRUE(tight_caught);
  EXPECT_DOUBLE_EQ(delivered_at, 3.0);
}

TEST(ChannelSync, SendOnUnregisteredPairRejected) {
  Kernel kernel(3, 1.0);
  ScriptSink script(kernel);
  kernel.set_channel_lookahead(0, 1, 1.0);
  bool caught = false;
  script.at(0, 1.0, [&] {
    try {
      kernel.schedule_packet_remote(2, 5.0, {});
    } catch (const std::invalid_argument&) {
      caught = true;
    }
  });
  kernel.run_until(2.0);
  EXPECT_TRUE(caught);
}

/// All four (sync mode × execution mode) combinations must execute the
/// exact same per-LP event history: the conservative schedule never changes
/// which events run or their per-LP order, only when they become safe.
class ChannelModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ChannelModeEquivalence, HistoryIdenticalAcrossProtocolsAndModes) {
  const int lps = GetParam();
  const KernelStats global_seq = script_ring(lps, kSequential);
  const KernelStats chan_seq = script_ring(lps, kSequential, kCL);
  EXPECT_EQ(global_seq.history_hash, chan_seq.history_hash);
  EXPECT_EQ(global_seq.events_per_lp, chan_seq.events_per_lp);
  EXPECT_EQ(global_seq.remote_messages, chan_seq.remote_messages);
  // Busy totals are sync-mode-invariant (same events, same messages).
  for (std::size_t i = 0; i < global_seq.busy_per_lp.size(); ++i)
    EXPECT_NEAR(global_seq.busy_per_lp[i], chan_seq.busy_per_lp[i], 1e-12);
  EXPECT_EQ(chan_seq.sync_mode, SyncMode::ChannelLookahead);
  for (const std::size_t workers : worker_counts(lps)) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    const KernelStats chan_thr = script_ring(lps, workers, kCL);
    EXPECT_EQ(global_seq.history_hash, chan_thr.history_hash);
    EXPECT_EQ(global_seq.events_per_lp, chan_thr.events_per_lp);
    EXPECT_EQ(global_seq.remote_messages, chan_thr.remote_messages);
    EXPECT_EQ(chan_seq.load_series, chan_thr.load_series);
    // Channel mode has no windows; it advances per-LP instead.
    EXPECT_EQ(chan_thr.windows, 0u);
    EXPECT_GT(chan_thr.channel_advances, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ChannelModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

class PacketChannelModeEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PacketChannelModeEquivalence, HistoryIdenticalAcrossProtocolsAndModes) {
  const int lps = GetParam();
  for (const int fanout : {0, kBurst}) {
    const KernelStats global_seq = pingpong(lps, kSequential, kGW, fanout);
    const KernelStats chan_seq = pingpong(lps, kSequential, kCL, fanout);
    for (const std::size_t workers : worker_counts(lps)) {
      SCOPED_TRACE(::testing::Message()
                   << "fanout " << fanout << ", " << workers << " workers");
      const KernelStats chan_thr = pingpong(lps, workers, kCL, fanout);
      EXPECT_EQ(global_seq.history_hash, chan_seq.history_hash);
      EXPECT_EQ(global_seq.history_hash, chan_thr.history_hash);
      EXPECT_EQ(global_seq.events_per_lp, chan_seq.events_per_lp);
      EXPECT_EQ(global_seq.events_per_lp, chan_thr.events_per_lp);
      EXPECT_EQ(global_seq.remote_messages, chan_seq.remote_messages);
      EXPECT_EQ(global_seq.remote_messages, chan_thr.remote_messages);
      EXPECT_EQ(chan_seq.load_series, chan_thr.load_series);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, PacketChannelModeEquivalence,
                         ::testing::Values(1, 2, 3, 4, 8));

// ---- Outbox batching ----------------------------------------------------
//
// In Sequential ChannelLookahead the flush schedule is deterministic, so
// stats().handoff_runs is an exact observable for flush_channels (the
// golden test above pins it for the sparse and the burst workload).

TEST(OutboxTuning, FlushScheduleIsDeterministic) {
  const KernelStats a = pingpong(4, kSequential, kCL);
  const KernelStats b = pingpong(4, kSequential, kCL);
  EXPECT_EQ(a.handoff_runs, b.handoff_runs);
  EXPECT_EQ(a.history_hash, b.history_hash);
}

// Batching changes how events travel, never which events exist: the sparse
// workload (short runs) and the burst workload (long runs) each reproduce
// their GlobalWindow/Sequential hash in both sync modes at every worker
// count.
TEST(OutboxTuning, HistoryInvariantAcrossTuningExtremes) {
  const int lps = 4;
  for (const int fanout : {0, kBurst}) {
    const KernelStats base = pingpong(lps, kSequential, kGW, fanout);
    for (auto sync : {kGW, kCL}) {
      for (const std::size_t workers : worker_counts(lps)) {
        const KernelStats got = pingpong(lps, workers, sync, fanout);
        EXPECT_EQ(base.history_hash, got.history_hash)
            << "fanout=" << fanout << " sync=" << to_string(sync)
            << " workers=" << workers;
        EXPECT_EQ(base.events_per_lp, got.events_per_lp);
        EXPECT_EQ(base.remote_messages, got.remote_messages);
      }
    }
  }
}

/// A slow channel must not throttle a pair coupled only through fast
/// channels — the whole point of per-channel bounds. Two fast-coupled LPs
/// exchange many hops; a third LP is reachable only through high-lookahead
/// channels. Deliveries and throttle stats come out per channel, and every
/// remote message is delivered through a channel under both protocols.
TEST(ChannelSync, HeterogeneousLookaheadsTrackPerChannelStats) {
  for (const auto sync : {kGW, kCL}) {
    for (const auto mode :
         {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
      SCOPED_TRACE(::testing::Message() << to_string(sync));
      Kernel kernel(3, 0.5);
      ScriptSink script(kernel);
      kernel.set_sync_mode(sync);
      kernel.set_channel_lookahead(0, 1, 0.5);
      kernel.set_channel_lookahead(1, 0, 0.5);
      kernel.set_channel_lookahead(0, 2, 50.0);
      kernel.set_channel_lookahead(2, 0, 50.0);
      std::function<void(int, int, int)> hop = [&](int from, int to,
                                                   int hops_left) {
        if (hops_left == 0) return;
        script.remote(to, kernel.now() + 0.5, [&hop, from, to, hops_left] {
          hop(to, from, hops_left - 1);
        });
      };
      script.at(0, 0.1, [&] { hop(0, 1, 60); });
      script.at(0, 0.2, [&] {
        kernel.schedule_packet_remote(2, kernel.now() + 50.0, {});
      });
      kernel.run_until(1e6, mode);
      const KernelStats& stats = kernel.stats();
      // 60 fast hops + 1 slow delivery.
      EXPECT_EQ(stats.remote_messages, 61u);
      ASSERT_EQ(stats.channels.size(), 4u);
      // channels sorted by (src, dst): (0,1), (0,2), (1,0), (2,0).
      EXPECT_EQ(stats.channels[0].dst, 1);
      EXPECT_EQ(stats.channels[0].delivered + stats.channels[2].delivered,
                60u);
      EXPECT_EQ(stats.channels[1].delivered, 1u);
      EXPECT_DOUBLE_EQ(stats.channels[1].lookahead, 50.0);
      std::uint64_t delivered = 0;
      for (const ChannelStat& ch : stats.channels) delivered += ch.delivered;
      EXPECT_EQ(delivered, stats.remote_messages);
    }
  }
}

/// Channel-mode analogue of IdleSpansAreSkipped: sparse events must be
/// bridged by a bounded number of rendezvous jumps, not lookahead-sized
/// clock creep.
TEST(ChannelSync, IdleSpansAreJumped) {
  for (const auto mode :
       {ExecutionMode::Sequential, ExecutionMode::Threaded}) {
    Kernel kernel(2, 1.0);
    ScriptSink script(kernel);
    kernel.set_sync_mode(SyncMode::ChannelLookahead);
    double delivered_at = -1;
    script.at(0, 0.5, [&] {
      script.remote(1, 1000.0, [&] { delivered_at = kernel.now(); });
    });
    kernel.run_until(2000.0, mode);
    EXPECT_DOUBLE_EQ(delivered_at, 1000.0);
    // One jump to reach t=1000 (plus at most a couple of rendezvous that
    // raced with delivery in threaded mode) — never ~1000 clock steps.
    EXPECT_LE(kernel.stats().idle_jumps, 6u);
  }
}

TEST(ChannelSync, ThreadedExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  kernel.set_sync_mode(SyncMode::ChannelLookahead);
  script.at(0, 0.5, [] { throw std::runtime_error("boom"); });
  kernel.schedule_packet(1, 0.5, {});
  EXPECT_THROW(kernel.run_until(10.0, ExecutionMode::Threaded),
               std::runtime_error);
}

TEST(ChannelSync, SequentialExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  kernel.set_sync_mode(SyncMode::ChannelLookahead);
  script.at(0, 0.5, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(kernel.run_until(10.0), std::runtime_error);
}

// ---- Lane chains: fan-in ordering -----------------------------------------

/// Fan `count` remote events into LP 0 in one batch, hinted with
/// `lane_of(i)`, and return the order they executed in; `preload_locals`
/// seeds the receiver's queue with later local events (every third one on
/// lane 3) so the batch lands in a non-empty queue.
std::vector<double> fan_in_order(
    std::size_t count, std::size_t preload_locals, bool ascending,
    const std::function<std::int32_t(std::size_t)>& lane_of) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  std::vector<double> order;
  for (std::size_t i = 0; i < preload_locals; ++i)
    script.at(0, 5.0 + 0.5 * static_cast<double>(i),
              [&order, i] { order.push_back(5.0 + 0.5 * i); }, -1,
              i % 3 == 0 ? 3 : -1);
  script.at(1, 0.5, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      // Descending times: a chain that accepted an event ahead of its tail
      // would execute these backwards.
      const double step = static_cast<double>(ascending ? i : count - i);
      const double t = 2.0 + 0.01 * step;
      script.remote(0, t, [&order, t] { order.push_back(t); }, -1,
                    lane_of(i));
    }
  });
  kernel.run_until(100.0);
  return order;
}

TEST(LaneChains, UnhintedFanInRunsLoose) {
  const auto order = fan_in_order(7, 0, false, [](std::size_t) { return -1; });
  ASSERT_EQ(order.size(), 7u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(LaneChains, DescendingLaneFanInFallsBackToLoose) {
  // Only the first event heads the lane's chain; every later one precedes
  // the chain's tail and must go loose.
  const auto order = fan_in_order(8, 0, false, [](std::size_t) { return 5; });
  ASSERT_EQ(order.size(), 8u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(LaneChains, AscendingLaneFanInChainsAheadOfLocals) {
  // One chain of 24 on lane 4 ahead of two later locals, one of which
  // heads lane 3's chain.
  const auto order = fan_in_order(24, 2, true, [](std::size_t) { return 4; });
  ASSERT_EQ(order.size(), 26u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(LaneChains, CollidingLanesSplitIntoChainAndLoose) {
  // Lanes 3 and 3 + kLaneTailSlots share one tail slot: while lane 3 holds
  // it the other lane's events queue loose, interleaved with the chain and
  // with the preloaded locals, some of which also ride lane 3.
  const auto colliding = static_cast<std::int32_t>(3 + kLaneTailSlots);
  const auto order = fan_in_order(16, 16, true, [&](std::size_t i) {
    return i % 2 == 0 ? std::int32_t{3} : colliding;
  });
  ASSERT_EQ(order.size(), 32u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(LaneChains, PendingEventsCountsQueuesChainsAndChannelRuns) {
  for (const SyncMode sync : {kGW, kCL}) {
    SCOPED_TRACE(to_string(sync));
    Kernel kernel(2, 1.0);
    kernel.set_sync_mode(sync);
    ScriptSink script(kernel);
    script.at(0, 0.5, [&] {
      // Past the end: a three-event chain on lane 9 and an event behind
      // its tail for LP 1, sent through the channel, plus a local one.
      for (int i = 0; i < 3; ++i) script.remote(1, 50.0 + i, [] {}, -1, 9);
      script.remote(1, 49.0, [] {}, -1, 9);
      kernel.schedule_packet(0, 60.0, {});
    });
    kernel.schedule_packet(1, 70.0, {});
    EXPECT_EQ(kernel.pending_events(), 2u);
    kernel.run_until(10.0);
    EXPECT_EQ(kernel.stats().events_per_lp[0], 1u);
    EXPECT_EQ(kernel.pending_events(), 6u);
    // GlobalWindow drained the run into LP 1's queue; ChannelLookahead may
    // leave it in the channel, where it still counts as pending.
    if (sync == kGW) {
      EXPECT_EQ(KernelTestPeer::chained_events(kernel), 2u);
    }
  }
}

// ---- Lane chains: differential scenarios -----------------------------------
//
// A seeded mini network drives the kernel the way the emulator does: a
// token at a node picks an outgoing arc (one direction of a link), departs
// when the arc is free, and arrives one serialization plus latency later,
// hinted with the arc's lane. One token in eight jumps the arc's queue (an
// out-of-order push onto the lane), arcs share tail slots kLaneTailSlots
// apart, cross-LP arcs feed chains through the channels, a safepoint
// rehomes every node to another LP, and a second one can write a
// checkpoint. The lane hints may change only the queue's cost: the same
// scenario with every hint -1 must execute the identical history.

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr int kLaneNodes = 16;
constexpr int kLaneTokens = 48;
constexpr SimTime kLaneRehomeAt = 20.0;
constexpr SimTime kLaneCheckpointAt = 30.0;
constexpr SimTime kLaneEnd = 1e6;

/// One direction of a link. Times are dyadic, so arrivals on different
/// arcs tie exactly and the (origin, seq) tie-break is exercised.
struct LaneArc {
  int to = 0;
  std::int32_t lane = -1;
  double serialization = 0;
  double latency = 0;
};

/// A token's state lives in its pending event's payload.
struct LaneToken {
  std::uint64_t rng = 0;
  std::int64_t hops_left = 0;
  std::int32_t lane = -1;  // hint of the token's pending event
};

class LaneScenario : public EventSink {
 public:
  LaneScenario(Kernel& kernel, bool hinted, std::uint64_t seed)
      : kernel_(kernel), hinted_(hinted), lps_(kernel.lp_count()) {
    // Ring links (v, v+1) and chords (v, v+5); each link gives two arcs.
    int link = 0;
    out_.resize(kLaneNodes);
    for (int v = 0; v < kLaneNodes; ++v) {
      for (const int w : {(v + 1) % kLaneNodes, (v + 5) % kLaneNodes}) {
        add_arc(v, w, link);
        add_arc(w, v, link);
        ++link;
      }
    }
    next_free_.assign(arcs_.size(), 0.0);
    owner_.resize(kLaneNodes);
    for (int v = 0; v < kLaneNodes; ++v) owner_[v] = v % lps_;
    kernel.set_event_sink(this);
    std::uint64_t rng = seed;
    tokens_.resize(kLaneTokens);
    for (LaneToken& token : tokens_) {
      token.rng = splitmix(rng);
      token.hops_left = 60;
      const int v = static_cast<int>(splitmix(rng) % kLaneNodes);
      const SimTime t = 0.5 * static_cast<double>(splitmix(rng) % 17);
      // Injections carry random lanes in random time order: pre-run pushes
      // that mostly do not follow their lane's tail.
      const auto& arcs = out_[static_cast<std::size_t>(v)];
      token.lane = arcs_[arcs[splitmix(rng) % arcs.size()]].lane;
      kernel.schedule_packet(owner_[v], t, {&token, v, hint(token.lane)});
    }
    kernel.add_safepoint(kLaneRehomeAt);
    kernel.add_safepoint(kLaneCheckpointAt);
    kernel.set_safepoint_hook([this](SimTime t) { on_safepoint(t); });
  }

  /// Write a checkpoint to `path` at kLaneCheckpointAt.
  void checkpoint_to(std::string path) { checkpoint_path_ = std::move(path); }

  /// Make this (fresh, unpopulated) scenario resume from the checkpoint
  /// `from` wrote: its routing state, then the kernel's.
  void restore(const LaneScenario& from, const std::string& path) {
    next_free_ = from.saved_next_free_;
    owner_ = from.saved_owner_;
    ckpt::Reader r = ckpt::Reader::from_file(path);
    kernel_.restore_checkpoint(
        r,
        [this](ckpt::Reader& in, PacketEvent& e) {
          if (in.u8() == 0) return;
          restored_.emplace_back();
          LaneToken& token = restored_.back();
          in.u64(token.rng);
          in.i64(token.hops_left);
          in.i64(token.lane);
          e.payload = &token;
          e.lane = hint(token.lane);
        },
        [](void*) {});
  }

  /// Pending events chained behind a lane head when the rehome ran.
  std::uint64_t chained_at_rehome() const { return chained_at_rehome_; }

  void on_packet_event(const PacketEvent& event) override {
    auto* token = static_cast<LaneToken*>(event.payload);
    if (token == nullptr || --token->hops_left <= 0) return;
    const int v = event.node;
    const int lp = kernel_.current_lp();
    const SimTime now = kernel_.now();
    const std::uint64_t r = splitmix(token->rng);
    if ((r >> 16) % 4 == 0)  // unhinted local filler
      kernel_.schedule_packet(lp, now + 0.0625 * (1 + (r >> 20) % 4), {});
    const auto& arcs = out_[static_cast<std::size_t>(v)];
    const std::size_t a = arcs[r % arcs.size()];
    const LaneArc& arc = arcs_[a];
    SimTime arrival;
    if ((r >> 8) % 8 == 0) {
      // Queue jumper: ignores the arc's backlog, so it usually lands ahead
      // of the lane's tail.
      arrival = now + arc.serialization + arc.latency;
    } else {
      const SimTime depart = std::max(now, next_free_[a]);
      next_free_[a] = depart + arc.serialization;
      arrival = next_free_[a] + arc.latency;
    }
    token->lane = arc.lane;
    const PacketEvent hop{token, arc.to, hint(arc.lane)};
    const int to_lp = owner_[static_cast<std::size_t>(arc.to)];
    if (to_lp == lp)
      kernel_.schedule_packet(lp, arrival, hop);
    else
      kernel_.schedule_packet_remote(to_lp, arrival, hop);
  }

 private:
  std::int32_t hint(std::int32_t lane) const { return hinted_ ? lane : -1; }

  void add_arc(int from, int to, int link) {
    const auto k = static_cast<std::int32_t>(arcs_.size());
    // Arcs 16 and up reuse the tail slots of arcs 0-15.
    const std::int32_t lane =
        k % 16 + static_cast<std::int32_t>(kLaneTailSlots) * (k / 16);
    arcs_.push_back(
        {to, lane, 0.125 * (1 + link % 3), 1.0 + 0.25 * (link % 4)});
    out_[static_cast<std::size_t>(from)].push_back(arcs_.size() - 1);
  }

  void on_safepoint(SimTime t) {
    if (t == kLaneRehomeAt) {
      chained_at_rehome_ = KernelTestPeer::chained_events(kernel_);
      for (int v = 0; v < kLaneNodes; ++v)
        owner_[static_cast<std::size_t>(v)] = (v / 2 + 1) % lps_;
      kernel_.rehome_events([this](std::int32_t node) {
        return owner_[static_cast<std::size_t>(node)];
      });
      return;
    }
    if (checkpoint_path_.empty()) return;
    saved_next_free_ = next_free_;
    saved_owner_ = owner_;
    ckpt::Writer w;
    kernel_.save_checkpoint(w, [](ckpt::Writer& out, const PacketEvent& e) {
      const auto* token = static_cast<const LaneToken*>(e.payload);
      out.u8(token != nullptr ? 1 : 0);
      if (token == nullptr) return;
      out.u64(token->rng);
      out.i64(token->hops_left);
      out.i64(token->lane);
    });
    w.commit(checkpoint_path_);
  }

  Kernel& kernel_;
  const bool hinted_;
  const int lps_;
  std::vector<LaneArc> arcs_;
  std::vector<std::vector<std::size_t>> out_;  // node → outgoing arcs
  std::vector<SimTime> next_free_;             // arc → departure slot
  std::vector<int> owner_;                     // node → LP
  std::vector<LaneToken> tokens_;
  std::deque<LaneToken> restored_;
  std::uint64_t chained_at_rehome_ = 0;
  std::string checkpoint_path_;
  std::vector<SimTime> saved_next_free_;
  std::vector<int> saved_owner_;
};

constexpr int kLaneLps = 4;

struct LaneRun {
  KernelStats stats;
  std::uint64_t chained_at_rehome = 0;
};

LaneRun run_lanes(std::uint64_t seed, bool hinted, SyncMode sync,
                  std::size_t workers, const std::string& checkpoint = "") {
  Kernel kernel(kLaneLps, 1.0);
  kernel.set_sync_mode(sync);
  LaneScenario scenario(kernel, hinted, seed);
  if (!checkpoint.empty()) scenario.checkpoint_to(checkpoint);
  KernelTestPeer::run_until(kernel, kLaneEnd, workers);
  return {kernel.stats(), scenario.chained_at_rehome()};
}

TEST(LaneChains, HintedHistoryMatchesUnhintedAcrossCombos) {
  for (const std::uint64_t seed : {7u, 11u, 23u}) {
    const LaneRun base = run_lanes(seed, false, kGW, kSequential);
    EXPECT_EQ(base.chained_at_rehome, 0u);
    EXPECT_GT(base.stats.events_rehomed, 0u);
    EXPECT_GT(base.stats.remote_messages, 0u);
    for (const SyncMode sync : {kGW, kCL}) {
      for (const std::size_t workers : {kSequential, std::size_t{kLaneLps}}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                          << to_string(sync) << ", "
                                          << workers << " workers");
        const LaneRun hinted = run_lanes(seed, true, sync, workers);
        const LaneRun plain = run_lanes(seed, false, sync, workers);
        // The hints are taken: chains hold events when the rehome runs.
        EXPECT_GT(hinted.chained_at_rehome, 0u);
        EXPECT_EQ(plain.chained_at_rehome, 0u);
        for (const LaneRun* run : {&hinted, &plain}) {
          EXPECT_EQ(run->stats.history_hash, base.stats.history_hash);
          EXPECT_EQ(run->stats.events_per_lp, base.stats.events_per_lp);
          EXPECT_EQ(run->stats.remote_messages, base.stats.remote_messages);
          EXPECT_EQ(run->stats.events_rehomed, base.stats.events_rehomed);
        }
      }
    }
  }
}

TEST(LaneChains, RestoredRunMatchesUninterruptedAcrossCombos) {
  const std::uint64_t seed = 7;
  const LaneRun base = run_lanes(seed, false, kGW, kSequential);
  for (const SyncMode sync : {kGW, kCL}) {
    for (const std::size_t workers : {kSequential, std::size_t{kLaneLps}}) {
      SCOPED_TRACE(::testing::Message()
                   << to_string(sync) << ", " << workers << " workers");
      const std::string path = ::testing::TempDir() + "massf_lane_chains_" +
                               to_string(sync) + "_" +
                               std::to_string(workers) + ".bin";
      Kernel original(kLaneLps, 1.0);
      original.set_sync_mode(sync);
      LaneScenario writer(original, true, seed);
      writer.checkpoint_to(path);
      KernelTestPeer::run_until(original, kLaneEnd, workers);
      EXPECT_EQ(original.stats().history_hash, base.stats.history_hash);

      Kernel resumed(kLaneLps, 1.0);
      resumed.set_sync_mode(sync);
      LaneScenario reader(resumed, true, seed);
      reader.restore(writer, path);
      // The restored queues are rebuilt with the hints load re-derived.
      EXPECT_GT(KernelTestPeer::chained_events(resumed), 0u);
      KernelTestPeer::run_until(resumed, kLaneEnd, workers);
      EXPECT_EQ(resumed.stats().history_hash, base.stats.history_hash);
      EXPECT_EQ(resumed.stats().events_per_lp, base.stats.events_per_lp);
      EXPECT_EQ(resumed.pending_events(), 0u);
      std::remove(path.c_str());
    }
  }
}

}  // namespace
}  // namespace massf::des
