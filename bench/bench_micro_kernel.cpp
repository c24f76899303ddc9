// Microbenchmarks of the DES kernel hot path (google-benchmark, matching
// bench_micro_partitioner style): events/sec for packet-hop workloads on
// the kernel's allocation-free packet-event path, for local hops, remote
// hops, and a mixed workload, in both execution modes, plus two of the
// emulator's queue shapes: hundreds of trains backlogged on a few link
// lanes, and thousands of reliable-delivery timeouts behind many.
// bench/run.sh kernel records the results to BENCH_kernel.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "des/kernel.hpp"

namespace {

using namespace massf::des;

// Hop cadence: local hops advance 0.25 s, remote hops one lookahead (1 s).
constexpr double kLocalDt = 0.25;

enum HopMode : int { kLocal = 0, kRemote = 1, kMixed = 2 };

bool hop_is_remote(int mode, int hops_left) {
  if (mode == kLocal) return false;
  if (mode == kRemote) return true;
  return hops_left % 4 == 0;  // mixed: every 4th hop crosses LPs
}

SimTime workload_end(int chains, int hops) {
  // Chains start staggered by 1 ms and hop at most one lookahead apart.
  return 0.001 * chains + 1.0 * hops + 10.0;
}

// Per-chain hop state. The vector holding these plays the role the
// emulator's PacketPool plays: stable pre-owned storage referenced by the
// POD PacketEvent payload — no allocation per hop.
struct HopRecord {
  std::int32_t lp = 0;
  std::int32_t hops_left = 0;
};

class HopSink : public EventSink {
 public:
  HopSink(Kernel& kernel, int lp_count, int mode)
      : kernel_(kernel), lp_count_(lp_count), mode_(mode) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* rec = static_cast<HopRecord*>(event.payload);
    if (--rec->hops_left <= 0) return;
    const double now = kernel_.now();
    const bool remote = hop_is_remote(mode_, rec->hops_left) && lp_count_ > 1;
    if (remote) {
      rec->lp = (event.node + 1) % lp_count_;
      kernel_.schedule_packet_remote(rec->lp, now + kernel_.lookahead(),
                                     {rec, rec->lp});
    } else {
      kernel_.schedule_packet(event.node, now + kLocalDt, {rec, event.node});
    }
  }

 private:
  Kernel& kernel_;
  int lp_count_;
  int mode_;
};

std::uint64_t run_packet(int lp_count, int chains, int hops,
                         ExecutionMode exec, int mode) {
  Kernel kernel(lp_count, 1.0);
  HopSink sink(kernel, lp_count, mode);
  kernel.set_event_sink(&sink);
  std::vector<HopRecord> records(static_cast<std::size_t>(chains));
  for (int c = 0; c < chains; ++c) {
    const int lp = c % lp_count;
    records[static_cast<std::size_t>(c)] = {lp, hops};
    kernel.schedule_packet(lp, 0.001 * c,
                           {&records[static_cast<std::size_t>(c)], lp});
  }
  kernel.run_until(workload_end(chains, hops), exec);
  std::uint64_t events = 0;
  for (auto e : kernel.stats().events_per_lp) events += e;
  return events;
}

// Lane workload: the shape of the paper's Campus run on one engine — a
// few busy links with hundreds of trains queued behind them. Each hop
// departs its link when the link is free and rides the link as its lane,
// the way Emulator::transmit hints a train; every 8th hop also arms an
// unhinted timer (a loose event).
constexpr int kLanes = 8;
constexpr int kLaneTrains = 512;
constexpr int kLaneHops = 64;
constexpr double kLaneSerialization = 1e-3;
constexpr double kLaneLatency = 0.01;

struct LaneRecord {
  std::int32_t lane = 0;
  std::int32_t hops_left = 0;
};

class LaneSink : public EventSink {
 public:
  explicit LaneSink(Kernel& kernel)
      : kernel_(kernel), next_free_(kLanes, 0.0) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* rec = static_cast<LaneRecord*>(event.payload);
    if (rec == nullptr || --rec->hops_left <= 0) return;
    const double now = kernel_.now();
    if (rec->hops_left % 8 == 0)
      kernel_.schedule_packet(0, now + 5 * kLaneSerialization, {});
    rec->lane = (rec->lane + 1 + rec->hops_left % 3) % kLanes;
    double& free_at = next_free_[static_cast<std::size_t>(rec->lane)];
    free_at = std::max(now, free_at) + kLaneSerialization;
    kernel_.schedule_packet(0, free_at + kLaneLatency, {rec, 0, rec->lane});
  }

 private:
  Kernel& kernel_;
  std::vector<double> next_free_;
};

std::uint64_t run_lanes() {
  Kernel kernel(1, 1.0);
  LaneSink sink(kernel);
  kernel.set_event_sink(&sink);
  std::vector<LaneRecord> records(kLaneTrains);
  for (int c = 0; c < kLaneTrains; ++c) {
    auto& rec = records[static_cast<std::size_t>(c)];
    rec = {c % kLanes, kLaneHops};
    kernel.schedule_packet(0, 1e-5 * c, {&rec, 0});
  }
  kernel.run_until(1e6);
  return kernel.stats().events_per_lp[0];
}

// Timeout workload: the shape of lb_fault's queue on one engine. Trains hop
// over ~150 link lanes, and every hop arms a reliable-delivery timeout
// kTimeout later for one of kTimeoutHosts senders, so ~5,500 timeouts wait
// behind the link lanes; like most real ones, they fire after their ACK and
// do nothing. Trains always ride their link lane. Hinted, each sender's
// timeouts ride its own lane after the link lanes (as emu::KernelLanes
// numbers them); unhinted, they all wait in the heap.
constexpr int kTimeoutLinkLanes = 150;
constexpr int kTimeoutHosts = 40;
constexpr int kTimeoutTrains = 300;
constexpr int kTimeoutHops = 128;
constexpr double kTimeout = 0.2;

class TimeoutSink : public EventSink {
 public:
  TimeoutSink(Kernel& kernel, bool hinted)
      : kernel_(kernel), hinted_(hinted), next_free_(kTimeoutLinkLanes, 0.0) {}

  void on_packet_event(const PacketEvent& event) override {
    auto* rec = static_cast<LaneRecord*>(event.payload);
    if (rec == nullptr || --rec->hops_left <= 0) return;  // a timeout
    const double now = kernel_.now();
    const std::int32_t host = (rec->lane + rec->hops_left) % kTimeoutHosts;
    const std::int32_t timeout_lane = hinted_ ? kTimeoutLinkLanes + host : -1;
    kernel_.schedule_packet(0, now + kTimeout, {nullptr, 0, timeout_lane});
    rec->lane = (rec->lane + 1 + rec->hops_left % 7) % kTimeoutLinkLanes;
    double& free_at = next_free_[static_cast<std::size_t>(rec->lane)];
    free_at = std::max(now, free_at) + kLaneSerialization;
    kernel_.schedule_packet(0, free_at + kLaneLatency, {rec, 0, rec->lane});
  }

 private:
  Kernel& kernel_;
  bool hinted_;
  std::vector<double> next_free_;
};

std::uint64_t run_timeouts(bool hinted) {
  Kernel kernel(1, 1.0);
  TimeoutSink sink(kernel, hinted);
  kernel.set_event_sink(&sink);
  std::vector<LaneRecord> records(kTimeoutTrains);
  for (int c = 0; c < kTimeoutTrains; ++c) {
    auto& rec = records[static_cast<std::size_t>(c)];
    rec = {c % kTimeoutLinkLanes, kTimeoutHops};
    kernel.schedule_packet(0, 1e-5 * c, {&rec, 0});
  }
  kernel.run_until(1e6);
  return kernel.stats().events_per_lp[0];
}

// --- benchmarks -----------------------------------------------------------

constexpr int kChains = 64;
constexpr int kHops = 256;

void bench_packet(benchmark::State& state, int lp_count, ExecutionMode exec,
                  int mode) {
  std::uint64_t events = 0;
  for (auto _ : state)
    events += run_packet(lp_count, kChains, kHops, exec, mode);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void BM_LocalHop_Packet(benchmark::State& state) {
  bench_packet(state, 1, ExecutionMode::Sequential, kLocal);
}
BENCHMARK(BM_LocalHop_Packet);

void BM_RemoteHop_Packet(benchmark::State& state) {
  bench_packet(state, 4, ExecutionMode::Sequential, kRemote);
}
BENCHMARK(BM_RemoteHop_Packet);

void BM_MixedHop_Packet_Sequential(benchmark::State& state) {
  bench_packet(state, 4, ExecutionMode::Sequential, kMixed);
}
BENCHMARK(BM_MixedHop_Packet_Sequential);

// Threaded benches measure wall clock: worker threads do the event work,
// so the main thread's CPU time is meaningless.
void BM_MixedHop_Packet_Threaded(benchmark::State& state) {
  bench_packet(state, 4, ExecutionMode::Threaded, kMixed);
}
BENCHMARK(BM_MixedHop_Packet_Threaded)->UseRealTime();

// Campus-shaped queue: ~512 pending events per LP on 8 lanes.
void BM_LaneHop_Packet(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_lanes();
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_LaneHop_Packet);

// lb_fault-shaped queue: ~5,500 pending FIFO timeouts behind ~150 link
// lanes; /hinted:1 gives each sender's timeouts a lane, /hinted:0 leaves
// them loose.
void BM_TimeoutLane_Packet(benchmark::State& state) {
  const bool hinted = state.range(0) != 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    events += run_timeouts(hinted);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TimeoutLane_Packet)->ArgName("hinted")->Arg(0)->Arg(1);

}  // namespace

// The google-benchmark context's "library_build_type" reports how the
// *installed benchmark library* was built, not this binary. Stamp the
// binary's own optimization level so a recorded JSON is self-describing
// (bench/run.sh kernel additionally refuses to record non-Release builds).
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("binary_build_type", "release");
#else
  benchmark::AddCustomContext("binary_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
