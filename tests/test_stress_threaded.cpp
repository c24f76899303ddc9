// Threaded determinism stress: a seeded random event storm across
// {1,2,4,8} LPs, run under every sync protocol at W ∈ {1, 2, lp_count}
// workers with the batched outbox handoff and spin-then-park idle
// protocol, must reproduce the sequential history hash bit for bit — also
// mid-run, across a safepoint schedule that forces outbox drains and
// rendezvous (the machinery live rebalancing rides on).
//
// Registered with LABELS des so the des-faults-{tsan,asan,ubsan} presets
// run it: the SPSC run queues, WaitSlot parking, and SpinBarrier phases
// all get exercised under ThreadSanitizer on every CI run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "des/kernel.hpp"
#include "kernel_script.hpp"
#include "util/rng.hpp"

namespace massf::des {
namespace {

constexpr double kLookahead = 1.0;
constexpr double kEnd = 200.0;

/// One self-perpetuating chain of events. The chain's record — and with it
/// its RNG — travels with the chain from hop to hop, so its decisions
/// depend only on the seed and its own position in the chain — never on
/// execution interleaving.
struct Chain {
  Rng rng;
  int hops_left = 0;
};

/// Runs the chain hops. Each hop sprays local filler, sometimes bursts
/// several remote messages at once (exercising multi-event outbox runs),
/// and then forwards its chain to a random LP. Filler and burst messages
/// carry no payload.
class StormSink : public EventSink {
 public:
  StormSink(Kernel& kernel, int lps, int burst_floor)
      : kernel_(kernel), lps_(lps), burst_floor_(burst_floor) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* chain = static_cast<Chain*>(event.payload);
    if (chain == nullptr || chain->hops_left == 0) return;
    Rng& rng = chain->rng;
    const double now = kernel_.now();
    const int here = kernel_.current_lp();

    // Local filler: 0–2 events inside the lookahead window.
    const int filler = static_cast<int>(rng.next_below(3));
    for (int f = 0; f < filler; ++f)
      kernel_.schedule_packet(here, now + 0.1 * (f + 1), {});

    // Occasional remote burst: several messages to one destination in one
    // window, which a batching sender coalesces into a single run.
    if (lps_ > 1 && rng.next_below(4) == 0) {
      const int burst_dst = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(lps_)));
      if (burst_dst != here) {
        const int burst = burst_floor_ + static_cast<int>(rng.next_below(3));
        for (int b = 0; b < burst; ++b)
          kernel_.schedule_packet_remote(burst_dst,
                                         now + kLookahead + 0.05 * b, {});
      }
    }

    // Forward the chain: random next LP (possibly self), random stride.
    const int next = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(lps_)));
    const double stride = kLookahead * (1.0 + 0.5 * rng.next_below(4));
    --chain->hops_left;
    if (next == here)
      kernel_.schedule_packet(here, now + stride, {chain, -1});
    else
      kernel_.schedule_packet_remote(next, now + stride, {chain, -1});
  }

 private:
  Kernel& kernel_;
  int lps_;
  int burst_floor_;
};

struct StormResult {
  KernelStats stats;
  std::vector<double> safepoints_seen;
};

/// `burst_floor` is the smallest remote burst: 2 keeps outbox runs short,
/// 16 makes every burst a long one.
StormResult run_storm(int lps, std::size_t workers, SyncMode sync,
                      int burst_floor = 2) {
  Kernel kernel(lps, kLookahead);
  kernel.set_sync_mode(sync);
  StormSink sink(kernel, lps, burst_floor);
  kernel.set_event_sink(&sink);
  // Safepoint schedule (a stand-in for a rebalance cadence): every
  // safepoint force-drains all outboxes and rendezvouses all workers.
  StormResult result;
  for (double sp : {40.0, 80.0, 120.0, 160.0}) kernel.add_safepoint(sp);
  kernel.set_safepoint_hook(
      [&result](double t) { result.safepoints_seen.push_back(t); });
  // Three chains per LP, seeds derived from (lp, chain) only.
  std::vector<Chain> chains;
  chains.reserve(static_cast<std::size_t>(3 * lps));
  for (int lp = 0; lp < lps; ++lp) {
    for (int c = 0; c < 3; ++c) {
      chains.push_back({Rng(static_cast<std::uint64_t>(lp) * 1000003u +
                            static_cast<std::uint64_t>(c) * 7919u + 1),
                        60});
      kernel.schedule_packet(lp, 0.1 * (lp + 1) + 0.01 * c,
                             {&chains.back(), -1});
    }
  }
  KernelTestPeer::run_until(kernel, kEnd, workers);
  result.stats = kernel.stats();
  return result;
}

class ThreadedStress : public ::testing::TestWithParam<int> {};

TEST_P(ThreadedStress, StormHistoryIdenticalAcrossSyncAndExecModes) {
  const int lps = GetParam();
  const StormResult base = run_storm(lps, 1, SyncMode::GlobalWindow);
  ASSERT_GT(base.stats.history_hash, 0u);
  ASSERT_EQ(base.safepoints_seen,
            (std::vector<double>{40.0, 80.0, 120.0, 160.0}));
  if (lps > 1) {
    ASSERT_GT(base.stats.remote_messages, 0u);
  }

  for (auto sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
    for (const std::size_t workers : worker_counts(lps)) {
      if (sync == SyncMode::GlobalWindow && workers == 1)
        continue;  // that is `base`
      const StormResult got = run_storm(lps, workers, sync);
      SCOPED_TRACE(::testing::Message() << lps << " LPs, sync="
                                        << to_string(sync) << ", "
                                        << workers << " workers");
      EXPECT_EQ(base.stats.history_hash, got.stats.history_hash);
      EXPECT_EQ(base.stats.events_per_lp, got.stats.events_per_lp);
      EXPECT_EQ(base.stats.remote_messages, got.stats.remote_messages);
      // Modeled time is a *sync-protocol* property (fewer barriers is
      // the entire point of ChannelLookahead, and its advance pattern is
      // wall-clock-dependent in Threaded mode); it is only required to
      // be worker-count-invariant under GlobalWindow's fixed window
      // structure. The history assertions above bind everything else.
      if (sync == SyncMode::GlobalWindow) {
        EXPECT_NEAR(base.stats.modeled_time, got.stats.modeled_time, 1e-9);
      }
      EXPECT_EQ(base.safepoints_seen, got.safepoints_seen);
    }
  }
}

// The other batching extreme: every remote burst carries at least 16
// events, so every outbox run is long. Every sync × exec combination still
// reproduces the sequential GlobalWindow history of that storm.
TEST_P(ThreadedStress, StormHistoryInvariantUnderTuningExtremes) {
  const int lps = GetParam();
  const int burst = 16;
  const StormResult base = run_storm(lps, 1, SyncMode::GlobalWindow, burst);

  for (auto sync : {SyncMode::GlobalWindow, SyncMode::ChannelLookahead}) {
    for (const std::size_t workers : worker_counts(lps)) {
      const StormResult got = run_storm(lps, workers, sync, burst);
      SCOPED_TRACE(::testing::Message() << lps << " LPs, sync="
                                        << to_string(sync) << ", "
                                        << workers << " workers");
      EXPECT_EQ(base.stats.history_hash, got.stats.history_hash);
      EXPECT_EQ(base.stats.events_per_lp, got.stats.events_per_lp);
      EXPECT_EQ(base.safepoints_seen, got.safepoints_seen);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LpCounts, ThreadedStress,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace massf::des
