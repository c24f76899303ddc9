// Tests for the conservative parallel DES kernel: event ordering,
// lookahead enforcement, window accounting, and sequential/threaded
// equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <vector>

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

TEST(Kernel, ThreadedExceptionPropagates) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  script.at(0, 0.5, [] { throw std::runtime_error("boom"); });
  kernel.schedule_packet(1, 0.5, {});
  EXPECT_THROW(kernel.run_until(10.0, ExecutionMode::Threaded),
               std::runtime_error);
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
/// `fanout` 0 is sparse cross-LP traffic (outbox runs stay below
/// kOutboxFlushEvents); fanout >= kOutboxFlushEvents sends bursts that
/// reach the flush threshold within one advance.
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

constexpr int kBurst = static_cast<int>(kOutboxFlushEvents);

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Exact Sequential counters of the ping-pong. Any drift in the window
/// schedule, round order, flush branch or cost accounting shows up here
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
// fillers (burst: remote_messages / 34).
const GoldenRun kGolden[] = {
    {1, kGW, 0, 40u, 0u, 0u, 0u, 0u,
     0x898fd43d4213b2cull, 0x3f82007dd4413552ull},
    {1, kCL, 0, 0u, 0u, 1u, 0u, 0u,
     0x898fd43d4213b2cull, 0x3f50385c67dfe332ull},
    {2, kGW, 0, 40u, 0u, 0u, 78u, 156u,
     0x6f7031151845ac59ull, 0x3f88644523f67f4dull},
    {2, kCL, 0, 0u, 20u, 42u, 40u, 156u,
     0x6f7031151845ac59ull, 0x3f809bf9c62a1b5eull},
    {3, kGW, 0, 40u, 0u, 0u, 117u, 234u,
     0x7db58848b3d15af6ull, 0x3f88644523f67f4dull},
    {3, kCL, 0, 0u, 12u, 119u, 42u, 234u,
     0x7db58848b3d15af6ull, 0x3f7aaa3ad18d25f2ull},
    {4, kGW, 0, 40u, 0u, 0u, 156u, 312u,
     0x3e8c864ecb30e096ull, 0x3f88644523f67f4dull},
    {4, kCL, 0, 0u, 10u, 195u, 80u, 312u,
     0x3e8c864ecb30e096ull, 0x3f7906cca2db61beull},
    {8, kGW, 0, 40u, 0u, 0u, 312u, 624u,
     0x49c188ac6a673258ull, 0x3f88ca8198f1d3eaull},
    {8, kCL, 0, 0u, 4u, 393u, 215u, 624u,
     0x49c188ac6a673258ull, 0x3f741c8216c61525ull},
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

// Both outbox flush branches stay covered: the sparse ping-pong publishes
// runs shorter than kOutboxFlushEvents (hoarded until a forced flush), the
// burst variant publishes runs at or above it.
TEST(GoldenSequential, SparseAndBurstTakeBothFlushBranches) {
  const KernelStats sparse =
      pingpong(4, kSequential, kCL, /*fanout=*/0);
  const KernelStats burst =
      pingpong(4, kSequential, kCL, kBurst);
  ASSERT_GT(sparse.handoff_runs, 0u);
  ASSERT_GT(burst.handoff_runs, 0u);
  EXPECT_LT(sparse.remote_messages, kOutboxFlushEvents * sparse.handoff_runs);
  EXPECT_GE(burst.remote_messages, kOutboxFlushEvents * burst.handoff_runs);
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

// ---- Outbox flush threshold (branch-pinning) -------------------------------
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
// workload (every run hoarded until a forced flush) and the burst workload
// (every run published at the threshold) each reproduce their
// GlobalWindow/Sequential hash in both sync modes at every worker count.
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

// ---- Bulk-heapify threshold (both drain branches) ------------------------

/// Fan `count` remote events into LP 0 in one batch and return the order
/// they executed in; `preload_locals` seeds the receiver's queue first so
/// the batch-vs-queue-size arm of the bulk condition is exercised too.
std::vector<double> fan_in_order(std::size_t count,
                                 std::size_t preload_locals) {
  Kernel kernel(2, 1.0);
  ScriptSink script(kernel);
  std::vector<double> order;
  for (std::size_t i = 0; i < preload_locals; ++i)
    script.at(0, 5.0 + 0.5 * static_cast<double>(i),
              [&order, i] { order.push_back(5.0 + 0.5 * i); });
  script.at(1, 0.5, [&] {
    for (std::size_t i = 0; i < count; ++i) {
      // Descending times: a sorted-run shortcut that failed to sort would
      // execute these backwards.
      const double t = 2.0 + 0.01 * static_cast<double>(count - i);
      script.remote(0, t, [&order, t] { order.push_back(t); });
    }
  });
  kernel.run_until(100.0);
  return order;
}

TEST(BulkHeapify, BelowThresholdUsesPerEventPushes) {
  const std::size_t n = kBulkHeapifyThreshold - 1;
  const auto order = fan_in_order(n, 0);
  ASSERT_EQ(order.size(), n);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, AtThresholdIntoEmptyQueueUsesSortedRun) {
  const std::size_t n = kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 0);
  ASSERT_EQ(order.size(), n);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, DominantBatchIntoNonEmptyQueueRebuildsHeap) {
  // Batch above the threshold *and* larger than the pre-existing queue:
  // the make_heap arm. Locals at t > batch must still run after it.
  const std::size_t n = 3 * kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 2);
  ASSERT_EQ(order.size(), n + 2);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(BulkHeapify, SmallBatchIntoLargerQueueStaysOnPushPath) {
  // Batch >= threshold but smaller than the queue: the bulk condition's
  // second clause keeps it on per-event pushes.
  const std::size_t n = kBulkHeapifyThreshold;
  const auto order = fan_in_order(n, 2 * kBulkHeapifyThreshold);
  ASSERT_EQ(order.size(), n + 2 * kBulkHeapifyThreshold);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

}  // namespace
}  // namespace massf::des
