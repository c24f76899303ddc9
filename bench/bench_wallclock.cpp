// Wall-clock events/sec benchmark for the threaded execution path: does
// Threaded mode, with its batched outbox handoff and spin-then-park idle
// protocol (DESIGN.md §11), actually beat Sequential?
//
// Workload: a ring of n LPs ({2,4,8}) with one message token per LP
// circulating hop-by-hop at exactly the channel lookahead (the densest
// cross-engine traffic the channels admit), plus a burst of same-LP filler
// events per hop so each engine has local work between handoffs. Every
// event performs ~2 us of deterministic compute: emulation kernel events
// model packet processing (the paper's calibration charges 2 ms per train
// event on period hardware), and an events/sec race between empty
// events would measure nothing but synchronization overhead — a race a
// conservative-parallel runtime can never win against a single thread.
// Every configuration of one ring executes the identical event history —
// the history hash must match bit-for-bit across all of them.
//
// Per ring, two execution shapes are timed under both sync protocols:
//   * sequential — one worker owning every LP on the calling thread;
//   * threaded   — min(n, usable CPUs) worker threads, each owning a
//                  contiguous block of LPs.
//
// Wall time is the best of MASSF_BENCH_REPLICAS runs (default 3; best-of
// suppresses scheduler noise better than the mean on shared machines).
// MASSF_WALLCLOCK_SCALE scales the simulated horizon (default 1.0; CI
// smoke can pass e.g. 0.25).
//
// Gates (bench::Report; the exit status is 0 only if every enforced gate
// passes):
//   * always: history hashes identical across every config of each ring;
//   * for each ring with >= 4 LPs: best threaded events/sec >= 1.0x
//     sequential events/sec (same sync mode), enforced only when this
//     process may run on >= 4 CPUs (util::usable_cpus, the count the
//     kernel sizes its worker pool by). On a narrower affinity mask the
//     clause is recorded as not enforced — a threaded run there has fewer
//     workers than LPs and cannot falsify a parallelism claim.
//
//   $ ./bench_wallclock [BENCH_wallclock.json]
//
// bench/run.sh wallclock builds Release and records the JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "des/kernel.hpp"
#include "util/parallel.hpp"

namespace {

using namespace massf;

constexpr double kRingLa = 1e-3;     // ring channel lookahead (1 ms)
constexpr double kRingEnd = 10.0;    // simulated horizon before scaling
constexpr int kFillerPerHop = 4;     // same-LP events scheduled per hop
constexpr int kEventWorkIters = 600;  // xorshift rounds per event (~2 us)

// Per-thread sink so the compute below has an observable effect the
// optimizer must preserve, without any cross-thread cache traffic.
thread_local std::uint64_t g_work_sink = 0;

/// The per-event "packet processing" stand-in: a fixed dose of integer
/// compute, deterministic and side-effect-free w.r.t. the simulation.
void event_work(std::uint64_t seed) {
  std::uint64_t x = seed | 1;
  for (int i = 0; i < kEventWorkIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_work_sink += x;
}

double horizon_scale() {
  if (const char* env = std::getenv("MASSF_WALLCLOCK_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

/// Payload of a ring event: a circulating token (one per LP, updated in
/// place as it moves — each token is a single chain of events) or one of
/// the sink's read-only filler records.
struct RingEvent {
  bool token;
  int value;  // token: the LP it is at; filler: its work seed
};

// A ring token executes its hop, schedules the next hop one lookahead ahead
// on the successor LP, and drops same-LP filler events in between so
// handoff is not the only work an engine ever does.
class RingSink : public des::EventSink {
 public:
  RingSink(des::Kernel& kernel, int n, double end)
      : kernel_(kernel), n_(n), end_(end) {
    for (int j = 0; j < kFillerPerHop; ++j) fillers_[j] = {false, j + 1};
  }

  void on_packet_event(const des::PacketEvent& event) override {
    auto* ev = static_cast<RingEvent*>(event.payload);
    if (!ev->token) {
      event_work(static_cast<std::uint64_t>(ev->value));
      return;
    }
    const int at = ev->value;
    event_work(static_cast<std::uint64_t>(at) + 1);
    const double t = kernel_.now() + kRingLa;
    if (t >= end_) return;
    ev->value = (at + 1) % n_;
    kernel_.schedule_packet_remote(ev->value, t, {ev, ev->value});
    for (int j = 1; j <= kFillerPerHop; ++j) {
      const double local = kernel_.now() + kRingLa * 0.15 * j;
      if (local < end_)
        kernel_.schedule_packet(at, local, {&fillers_[j - 1], at});
    }
  }

 private:
  des::Kernel& kernel_;
  const int n_;
  const double end_;
  RingEvent fillers_[kFillerPerHop];
};

struct ConfigResult {
  std::string exec;  // "sequential" | "threaded"
  des::SyncMode sync = des::SyncMode::GlobalWindow;
  double wall_time = 0;  // best-of-replicas seconds
  double events_per_sec = 0;
  std::uint64_t events = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t windows = 0;
  std::uint64_t channel_advances = 0;
  std::uint64_t handoff_runs = 0;
  std::uint64_t parks = 0;
  std::uint64_t history_hash = 0;
};

ConfigResult run_ring(int n, des::SyncMode sync, des::ExecutionMode exec,
                      const char* label) {
  const double end = kRingEnd * horizon_scale();
  ConfigResult r;
  r.exec = label;
  r.sync = sync;
  const int replicas = bench::replica_count();
  for (int rep = 0; rep < replicas; ++rep) {
    des::Kernel kernel(n, kRingLa);
    kernel.set_sync_mode(sync);
    RingSink sink(kernel, n, end);
    kernel.set_event_sink(&sink);
    for (int i = 0; i < n; ++i) {
      kernel.set_channel_lookahead(i, (i + 1) % n, kRingLa);
      // Reverse channels keep the validation surface symmetric (and give
      // ChannelLookahead a ring to advance in both directions).
      kernel.set_channel_lookahead((i + 1) % n, i, kRingLa);
    }
    std::vector<RingEvent> tokens(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      RingEvent& token = tokens[static_cast<std::size_t>(i)];
      token = {true, i};
      const double stagger = kRingLa * (1.0 + 0.25 * i);
      kernel.schedule_packet(i, stagger, {&token, i});
    }
    const auto t0 = std::chrono::steady_clock::now();
    kernel.run_until(end, exec);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const des::KernelStats& ks = kernel.stats();
    std::uint64_t events = 0;
    for (auto e : ks.events_per_lp) events += e;
    if (rep == 0) {
      r.wall_time = wall;
      r.events = events;
      r.remote_messages = ks.remote_messages;
      r.windows = ks.windows;
      r.channel_advances = ks.channel_advances;
      r.handoff_runs = ks.handoff_runs;
      r.parks = ks.parks;
      r.history_hash = ks.history_hash;
    } else {
      if (ks.history_hash != r.history_hash) {
        std::cerr << "bench_wallclock: history hash varies across replicas "
                     "(nondeterminism!)\n";
        std::exit(2);
      }
      r.wall_time = std::min(r.wall_time, wall);
    }
  }
  r.events_per_sec =
      r.wall_time > 0 ? static_cast<double>(r.events) / r.wall_time : 0;
  return r;
}

struct RingResult {
  int lps = 0;
  std::vector<ConfigResult> configs;

  const ConfigResult& find(des::SyncMode sync, const std::string& exec) const {
    for (const ConfigResult& c : configs)
      if (c.sync == sync && c.exec == exec) return c;
    std::abort();
  }
  std::size_t hash_mismatches() const {
    std::size_t differ = 0;
    for (const ConfigResult& c : configs)
      differ += c.history_hash != configs.front().history_hash;
    return differ;
  }
  /// Best threaded throughput relative to sequential, across sync modes
  /// (each threaded config against the sequential run of its own
  /// protocol).
  double best_vs_sequential() const {
    double best = 0;
    for (auto sync :
         {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
      const double seq = find(sync, "sequential").events_per_sec;
      if (seq > 0)
        best = std::max(best, find(sync, "threaded").events_per_sec / seq);
    }
    return best;
  }
};

RingResult run_ring_suite(int n) {
  RingResult ring;
  ring.lps = n;
  for (auto sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    std::cerr << "  ring/" << n << " " << des::to_string(sync) << "...\n";
    ring.configs.push_back(
        run_ring(n, sync, des::ExecutionMode::Sequential, "sequential"));
    ring.configs.push_back(
        run_ring(n, sync, des::ExecutionMode::Threaded, "threaded"));
  }
  return ring;
}

bench::Json to_json(const RingResult& ring) {
  bench::Json configs = bench::Json::array();
  for (const ConfigResult& r : ring.configs)
    configs.push(bench::Json()
                     .add("sync", des::to_string(r.sync))
                     .add("exec", r.exec)
                     .add("wall_time_s", r.wall_time)
                     .add("events", r.events)
                     .add("events_per_sec", r.events_per_sec)
                     .add("remote_messages", r.remote_messages)
                     .add("windows", r.windows)
                     .add("channel_advances", r.channel_advances)
                     .add("handoff_runs", r.handoff_runs)
                     .add("parks", r.parks)
                     .add("history_hash", std::to_string(r.history_hash)));
  return bench::Json()
      .add("lps", ring.lps)
      .add("best_threaded_vs_sequential", ring.best_vs_sequential())
      .add("configs", std::move(configs));
}

}  // namespace

int main(int argc, char** argv) {
  // The widest pool: ring/8's workers, capped at the usable CPUs.
  bench::Report report("wallclock", 8);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_wallclock.json";
  report.run_config.add("scale", horizon_scale())
      .add("horizon_s", kRingEnd * horizon_scale())
      .add("replicas", bench::replica_count());

  const std::size_t cpus = util::usable_cpus();
  const bool enforced = cpus >= 4;
  const std::string throughput_reason =
      enforced ? "best threaded events/sec >= 1.0x sequential; usable CPUs "
                 ">= 4, so enforced"
               : "best threaded events/sec >= 1.0x sequential; not enforced: "
                 "usable CPUs " +
                     std::to_string(cpus) +
                     " < 4 cannot falsify a parallelism claim";

  bench::Json rings = bench::Json::array();
  for (const int n : {2, 4, 8}) {
    const RingResult ring = run_ring_suite(n);
    const std::string at = "/ring" + std::to_string(n);
    report.gate("hash_mismatches" + at,
                static_cast<double>(ring.hash_mismatches()), 0, true,
                ring.hash_mismatches() == 0,
                "configs whose history hash differs from the first == 0");
    if (n >= 4) {
      const double vs_seq = ring.best_vs_sequential();
      report.gate("threaded_vs_sequential" + at, vs_seq, 1.0, enforced,
                  vs_seq >= 1.0, throughput_reason);
    }
    rings.push(to_json(ring));
  }
  report.results.add("headline", "threaded events/sec vs sequential");
  report.results.add("rings", std::move(rings));
  return report.write(out_path);
}
