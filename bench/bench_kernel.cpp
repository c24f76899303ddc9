// The DES kernel's speed report, in one pass, recorded in BENCH_kernel.json
// through bench::Report. Three sections:
//
//   * hops — the kernel hot path: events/sec of packet-hop workloads on the
//     allocation-free packet-event path. Local, remote and mixed hops
//     (64 chains x 256 hops; mixed in both execution modes), plus two of
//     the emulator's queue shapes: hundreds of trains backlogged on a few
//     link lanes (Campus), and thousands of reliable-delivery timeouts
//     behind many (lb_fault), with and without timeout lanes.
//   * rings — does Threaded mode, with its batched outbox handoff and
//     spin-then-park idle protocol (DESIGN.md §11), beat Sequential? A ring
//     of n LPs ({2,4,8}) with one token per LP circulating at exactly the
//     channel lookahead, plus same-LP filler events per hop; every event
//     does ~2 us of deterministic compute (an events/sec race between empty
//     events would measure nothing but synchronization overhead).
//   * sync — GlobalWindow vs ChannelLookahead on two scenarios: a raw-kernel
//     dumbbell (two 2-LP sites with 1 ms intra-site channels joined by one
//     50 ms channel) and the paper's campus topology under HTTP background,
//     TOP-mapped onto 3 engines, through the full emulator stack. The
//     headline is the Sequential modeled-time ratio (global / channel):
//     modeled time is deterministic and machine-independent.
//
// Every config runs MASSF_BENCH_REPLICAS times (default 3) through one
// helper, measure(), which exits 2 if the history hash varies across
// runs; only the kernel run itself is timed (steady_clock). One run of a
// hop workload takes 1-10 ms, so a hop replica repeats it until it has
// timed >= 50 ms, and hops report the median of the replicas' events/sec.
// Sync reports the median wall time; rings report the best of replicas
// (best-of suppresses scheduler noise better on shared machines).
// MASSF_WALLCLOCK_SCALE scales the rings' simulated horizon (default 1.0;
// CI smoke passes 0.5).
//
// Gates (bench::Report; the exit status is 0 only if every enforced gate
// passes):
//   * each hop workload: the events executed equal the events it
//     schedules, in every run;
//   * each ring and each sync scenario: history hashes identical across
//     its sync x exec configs;
//   * each ring with >= 4 LPs: best threaded events/sec >= 1.0x sequential
//     events/sec (same sync mode), enforced only when this process may run
//     on >= 4 CPUs (util::usable_cpus, the count the kernel sizes its worker
//     pool by). On a narrower affinity mask the clause is recorded as not
//     enforced: a threaded run there has fewer workers than LPs and cannot
//     falsify a parallelism claim;
//   * dumbbell: Sequential modeled time, global over channel, >= 1.5.
//
//   $ ./bench_kernel [BENCH_kernel.json]
//
// bench/run.sh kernel builds Release and records the JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/mapper.hpp"
#include "des/kernel.hpp"
#include "emu/emulator.hpp"
#include "traffic/http.hpp"
#include "util/parallel.hpp"

namespace {

using namespace massf;
using des::ExecutionMode;
using des::SyncMode;

constexpr SyncMode kSyncModes[] = {SyncMode::GlobalWindow,
                                   SyncMode::ChannelLookahead};
constexpr ExecutionMode kExecModes[] = {ExecutionMode::Sequential,
                                        ExecutionMode::Threaded};

const char* exec_name(ExecutionMode exec) {
  return exec == ExecutionMode::Sequential ? "sequential" : "threaded";
}

// ---- the shared replica loop ---------------------------------------------

/// One replica: the kernel's counters and the wall time of its run.
struct Timed {
  des::KernelStats stats;
  double wall_s = 0;
};

/// Runs `run` (the kernel's run_until, or an emulator's run) and times it.
template <typename Run>
double seconds(Run&& run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A config's replicas: the first run's counters, the event counts of
/// every run, and each replica's wall time and event rate.
struct Measured {
  des::KernelStats stats;
  std::uint64_t events = 0;      // executed by the first run
  std::uint64_t events_min = 0;  // fewest executed by any run
  std::uint64_t events_max = 0;  // most executed by any run
  std::uint64_t runs = 0;
  std::vector<double> wall_s;  // per replica, over its runs
  std::vector<double> rate;    // per replica: its runs' events / wall_s

  double best_s() const {
    return *std::min_element(wall_s.begin(), wall_s.end());
  }
  static double median(std::vector<double> xs) {
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2;
  }
  double median_s() const { return median(wall_s); }
  double median_rate() const { return median(rate); }
  double best_rate() const {
    return *std::max_element(rate.begin(), rate.end());
  }
};

/// Runs `once` (a callable returning Timed) for every replica; a replica
/// repeats it until `min_replica_s` of timed run (one run when 0). Exits 2
/// if the history hash varies across runs: the run is nondeterministic.
template <typename Once>
Measured measure(const std::string& label, const Once& once,
                 double min_replica_s = 0) {
  std::cerr << "  " << label << "...\n";
  Measured m;
  const int replicas = bench::replica_count();
  for (int rep = 0; rep < replicas; ++rep) {
    double wall = 0;
    std::uint64_t events = 0;
    do {
      Timed t = once();
      std::uint64_t run_events = 0;
      for (const std::uint64_t e : t.stats.events_per_lp) run_events += e;
      if (m.runs == 0) {
        m.stats = std::move(t.stats);
        m.events = m.events_min = m.events_max = run_events;
      } else if (t.stats.history_hash != m.stats.history_hash) {
        std::cerr << "bench_kernel: " << label
                  << ": history hash varies across runs "
                     "(nondeterminism!)\n";
        std::exit(2);
      }
      m.events_min = std::min(m.events_min, run_events);
      m.events_max = std::max(m.events_max, run_events);
      ++m.runs;
      events += run_events;
      wall += t.wall_s;
    } while (wall < min_replica_s);
    m.wall_s.push_back(wall);
    m.rate.push_back(wall > 0 ? static_cast<double>(events) / wall : 0);
  }
  return m;
}

/// Configs whose history hash differs from the first one's.
double hash_mismatches(const std::vector<Measured>& configs) {
  double differ = 0;
  for (const Measured& c : configs)
    differ += c.stats.history_hash != configs.front().stats.history_hash;
  return differ;
}

// ---- hops: the kernel hot path -------------------------------------------

// Hop cadence: local hops advance 0.25 s, remote hops one lookahead (1 s).
constexpr double kLocalDt = 0.25;
constexpr int kChains = 64;
constexpr int kHops = 256;

enum class HopMode { Local, Remote, Mixed };

bool hop_is_remote(HopMode mode, int hops_left) {
  if (mode == HopMode::Local) return false;
  if (mode == HopMode::Remote) return true;
  return hops_left % 4 == 0;  // mixed: every 4th hop crosses LPs
}

// Per-chain hop state. The vector holding these plays the role the
// emulator's PacketPool plays: stable pre-owned storage referenced by the
// POD PacketEvent payload — no allocation per hop.
struct HopRecord {
  std::int32_t lp = 0;
  std::int32_t hops_left = 0;
};

class HopSink : public des::EventSink {
 public:
  HopSink(des::Kernel& kernel, int lp_count, HopMode mode)
      : kernel_(kernel), lp_count_(lp_count), mode_(mode) {}

  void on_packet_event(const des::PacketEvent& event) override {
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
  des::Kernel& kernel_;
  int lp_count_;
  HopMode mode_;
};

/// `kChains` chains of `kHops` events each, staggered by 1 ms.
Timed run_hops(int lp_count, ExecutionMode exec, HopMode mode) {
  des::Kernel kernel(lp_count, 1.0);
  HopSink sink(kernel, lp_count, mode);
  kernel.set_event_sink(&sink);
  std::vector<HopRecord> records(kChains);
  for (int c = 0; c < kChains; ++c) {
    const int lp = c % lp_count;
    records[static_cast<std::size_t>(c)] = {lp, kHops};
    kernel.schedule_packet(lp, 0.001 * c,
                           {&records[static_cast<std::size_t>(c)], lp});
  }
  // Hops are at most one lookahead apart.
  const double end = 0.001 * kChains + 1.0 * kHops + 10.0;
  const double wall = seconds([&] { kernel.run_until(end, exec); });
  return {kernel.stats(), wall};
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

class LaneSink : public des::EventSink {
 public:
  explicit LaneSink(des::Kernel& kernel)
      : kernel_(kernel), next_free_(kLanes, 0.0) {}

  void on_packet_event(const des::PacketEvent& event) override {
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
  des::Kernel& kernel_;
  std::vector<double> next_free_;
};

Timed run_lanes() {
  des::Kernel kernel(1, 1.0);
  LaneSink sink(kernel);
  kernel.set_event_sink(&sink);
  std::vector<LaneRecord> records(kLaneTrains);
  for (int c = 0; c < kLaneTrains; ++c) {
    auto& rec = records[static_cast<std::size_t>(c)];
    rec = {c % kLanes, kLaneHops};
    kernel.schedule_packet(0, 1e-5 * c, {&rec, 0});
  }
  const double wall = seconds([&] { kernel.run_until(1e6); });
  return {kernel.stats(), wall};
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

class TimeoutSink : public des::EventSink {
 public:
  TimeoutSink(des::Kernel& kernel, bool hinted)
      : kernel_(kernel), hinted_(hinted), next_free_(kTimeoutLinkLanes, 0.0) {}

  void on_packet_event(const des::PacketEvent& event) override {
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
  des::Kernel& kernel_;
  bool hinted_;
  std::vector<double> next_free_;
};

Timed run_timeouts(bool hinted) {
  des::Kernel kernel(1, 1.0);
  TimeoutSink sink(kernel, hinted);
  kernel.set_event_sink(&sink);
  std::vector<LaneRecord> records(kTimeoutTrains);
  for (int c = 0; c < kTimeoutTrains; ++c) {
    auto& rec = records[static_cast<std::size_t>(c)];
    rec = {c % kTimeoutLinkLanes, kTimeoutHops};
    kernel.schedule_packet(0, 1e-5 * c, {&rec, 0});
  }
  const double wall = seconds([&] { kernel.run_until(1e6); });
  return {kernel.stats(), wall};
}

/// Minimum timed run of one hop replica. One run of a hop workload takes
/// 1-10 ms, short enough for host load to swing its rate, so a replica
/// repeats the run until it has timed this much.
constexpr double kHopReplicaS = 0.05;

/// One hop workload: its name, shape, the events it schedules, and a run.
struct HopWorkload {
  const char* name;
  int lps;
  ExecutionMode exec;
  std::uint64_t scheduled;
  Timed (*once)();
};

// A chain of k hops is k events. A lane train of k hops arms a timer at
// each of the hops_left values 8, 16, ... below k; a timeout train arms
// one timeout at each of its k - 1 non-final hops.
const HopWorkload kHopWorkloads[] = {
    {"BM_LocalHop_Packet", 1, ExecutionMode::Sequential, kChains * kHops,
     [] { return run_hops(1, ExecutionMode::Sequential, HopMode::Local); }},
    {"BM_RemoteHop_Packet", 4, ExecutionMode::Sequential, kChains * kHops,
     [] { return run_hops(4, ExecutionMode::Sequential, HopMode::Remote); }},
    {"BM_MixedHop_Packet_Sequential", 4, ExecutionMode::Sequential,
     kChains * kHops,
     [] { return run_hops(4, ExecutionMode::Sequential, HopMode::Mixed); }},
    {"BM_MixedHop_Packet_Threaded", 4, ExecutionMode::Threaded,
     kChains * kHops,
     [] { return run_hops(4, ExecutionMode::Threaded, HopMode::Mixed); }},
    {"BM_LaneHop_Packet", 1, ExecutionMode::Sequential,
     kLaneTrains * (kLaneHops + (kLaneHops - 1) / 8), run_lanes},
    {"BM_TimeoutLane_Packet/hinted:0", 1, ExecutionMode::Sequential,
     kTimeoutTrains * (2 * kTimeoutHops - 1),
     [] { return run_timeouts(false); }},
    {"BM_TimeoutLane_Packet/hinted:1", 1, ExecutionMode::Sequential,
     kTimeoutTrains * (2 * kTimeoutHops - 1),
     [] { return run_timeouts(true); }},
};

// ---- rings: threaded vs sequential ---------------------------------------

constexpr double kRingLa = 1e-3;      // ring channel lookahead (1 ms)
constexpr double kRingEnd = 10.0;     // simulated horizon before scaling
constexpr int kFillerPerHop = 4;      // same-LP events scheduled per hop
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

Timed run_ring(int n, SyncMode sync, ExecutionMode exec) {
  const double end = kRingEnd * horizon_scale();
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
  const double wall = seconds([&] { kernel.run_until(end, exec); });
  return {kernel.stats(), wall};
}

// ---- sync: GlobalWindow vs ChannelLookahead ------------------------------

constexpr double kFastLa = 1e-3;   // intra-site channel lookahead (1 ms)
constexpr double kSlowLa = 50e-3;  // cross-site channel lookahead (50 ms)
constexpr double kDumbbellEnd = 5.0;

// A chain bounces a message between two LPs, each hop exactly one channel
// lookahead ahead — the densest traffic the channel admits.
struct Bounce {
  int here;
  int peer;
  double la;
};

class BounceSink : public des::EventSink {
 public:
  explicit BounceSink(des::Kernel& kernel) : kernel_(kernel) {}

  void on_packet_event(const des::PacketEvent& event) override {
    auto* chain = static_cast<Bounce*>(event.payload);
    const double t = kernel_.now() + chain->la;
    if (t >= kDumbbellEnd) return;
    std::swap(chain->here, chain->peer);
    kernel_.schedule_packet_remote(chain->here, t, {chain, chain->here});
  }

 private:
  des::Kernel& kernel_;
};

Timed run_dumbbell(SyncMode sync, ExecutionMode exec) {
  des::Kernel kernel(4, kFastLa);
  kernel.set_sync_mode(sync);
  // Sites {0,1} and {2,3}; only 0<->2 joins them. Registered in both sync
  // modes so the validation surface (and therefore the history) matches.
  const std::pair<int, int> sites[] = {{0, 1}, {2, 3}};
  for (auto [a, b] : sites) {
    kernel.set_channel_lookahead(a, b, kFastLa);
    kernel.set_channel_lookahead(b, a, kFastLa);
  }
  kernel.set_channel_lookahead(0, 2, kSlowLa);
  kernel.set_channel_lookahead(2, 0, kSlowLa);

  // Two fast chains per site (staggered half a lookahead apart) plus one
  // slow cross-site chain.
  BounceSink sink(kernel);
  kernel.set_event_sink(&sink);
  Bounce chains[] = {{0, 1, kFastLa}, {1, 0, kFastLa}, {2, 3, kFastLa},
                     {3, 2, kFastLa}, {0, 2, kSlowLa}};
  const double starts[] = {kFastLa, 1.5 * kFastLa, kFastLa, 1.5 * kFastLa,
                           kSlowLa};
  for (std::size_t c = 0; c < std::size(chains); ++c)
    kernel.schedule_packet(chains[c].here, starts[c],
                           {&chains[c], chains[c].here});
  const double wall = seconds([&] { kernel.run_until(kDumbbellEnd, exec); });
  return {kernel.stats(), wall};
}

constexpr int kCampusEngines = 3;
constexpr double kCampusHorizon = 25.0;

struct CampusFixture {
  topology::Network network = topology::make_campus();
  routing::RoutingTables routes = routing::RoutingTables::build(network);
  mapping::MappingResult mapped;
  std::shared_ptr<traffic::CompositeWorkload> workload;

  CampusFixture() {
    mapping::Mapper mapper(network, routes);
    mapping::MappingOptions options;
    options.engines = kCampusEngines;
    mapped = mapper.map_top(options);

    traffic::HttpParams http;
    http.server_number = 8;
    http.clients_per_server = 10;
    http.think_time_s = 2;
    http.duration_s = 20;
    workload = std::make_shared<traffic::CompositeWorkload>();
    workload->add(std::make_shared<traffic::HttpBackground>(network, http));
  }
};

Timed run_campus(const CampusFixture& fixture, SyncMode sync,
                 ExecutionMode exec) {
  emu::EmulatorConfig config;
  config.sync_mode = sync;
  emu::Emulator emulator(fixture.network, fixture.routes,
                         fixture.mapped.node_engine, fixture.mapped.engines,
                         config);
  fixture.workload->install(emulator);
  const double wall = seconds([&] { emulator.run(kCampusHorizon, exec); });
  return {emulator.kernel_stats(), wall};
}

}  // namespace

int main(int argc, char** argv) {
  // The widest pool: ring/8's workers, capped at the usable CPUs.
  bench::Report report("kernel", 8);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernel.json";
  report.run_config.add("replicas", bench::replica_count())
      .add("hop_replica_min_s", kHopReplicaS)
      .add("ring_scale", horizon_scale())
      .add("ring_horizon_s", kRingEnd * horizon_scale())
      .add("dumbbell_end_s", kDumbbellEnd)
      .add("dumbbell_fast_lookahead_s", kFastLa)
      .add("dumbbell_slow_lookahead_s", kSlowLa)
      .add("campus_engines", kCampusEngines)
      .add("campus_horizon_s", kCampusHorizon);

  bench::Json hops = bench::Json::array();
  for (const HopWorkload& w : kHopWorkloads) {
    const Measured m = measure(w.name, w.once, kHopReplicaS);
    // The run furthest from the schedule stands for all of them.
    const std::uint64_t worst =
        m.events_max != w.scheduled ? m.events_max : m.events_min;
    report.gate(std::string("events/") + w.name, static_cast<double>(worst),
                static_cast<double>(w.scheduled), true, worst == w.scheduled,
                "events executed == events the workload schedules, in "
                "every run");
    hops.push(bench::Json()
                  .add("name", w.name)
                  .add("lps", w.lps)
                  .add("exec", exec_name(w.exec))
                  .add("events", m.events)
                  .add("runs", m.runs)
                  .add("wall_time_s", m.median_s())
                  .add("events_per_sec", m.median_rate()));
  }

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
    std::vector<Measured> configs;
    bench::Json rows = bench::Json::array();
    double best_vs_seq = 0;  // each threaded config against its protocol's
    for (const SyncMode sync : kSyncModes) {
      for (const ExecutionMode exec : kExecModes) {
        const Measured& m = configs.emplace_back(measure(
            "ring/" + std::to_string(n) + " " + des::to_string(sync) + " / " +
                exec_name(exec),
            [&] { return run_ring(n, sync, exec); }));
        const des::KernelStats& ks = m.stats;
        rows.push(bench::Json()
                      .add("sync", des::to_string(sync))
                      .add("exec", exec_name(exec))
                      .add("wall_time_s", m.best_s())
                      .add("events", m.events)
                      .add("events_per_sec", m.best_rate())
                      .add("remote_messages", ks.remote_messages)
                      .add("windows", ks.windows)
                      .add("channel_advances", ks.channel_advances)
                      .add("handoff_runs", ks.handoff_runs)
                      .add("parks", ks.parks)
                      .add("history_hash", std::to_string(ks.history_hash)));
      }
      const Measured& seq = configs[configs.size() - 2];
      const Measured& threaded = configs.back();
      const double seq_rate = seq.best_rate();
      if (seq_rate > 0)
        best_vs_seq =
            std::max(best_vs_seq, threaded.best_rate() / seq_rate);
    }
    const std::string at = "/ring" + std::to_string(n);
    const double differ = hash_mismatches(configs);
    report.gate("hash_mismatches" + at, differ, 0, true, differ == 0,
                "configs whose history hash differs from the first == 0");
    if (n >= 4)
      report.gate("threaded_vs_sequential" + at, best_vs_seq, 1.0, enforced,
                  best_vs_seq >= 1.0, throughput_reason);
    rings.push(bench::Json()
                   .add("lps", n)
                   .add("best_threaded_vs_sequential", best_vs_seq)
                   .add("configs", std::move(rows)));
  }

  const CampusFixture campus;
  bench::Json scenarios = bench::Json::array();
  double dumbbell_speedup = 0;
  for (const std::string name : {"dumbbell", "campus"}) {
    std::vector<Measured> configs;
    bench::Json rows = bench::Json::array();
    for (const SyncMode sync : kSyncModes) {
      for (const ExecutionMode exec : kExecModes) {
        const Measured& m = configs.emplace_back(measure(
            name + " " + des::to_string(sync) + " / " + exec_name(exec),
            [&] {
              return name == "dumbbell" ? run_dumbbell(sync, exec)
                                        : run_campus(campus, sync, exec);
            }));
        const des::KernelStats& ks = m.stats;
        rows.push(bench::Json()
                      .add("sync", des::to_string(sync))
                      .add("exec", exec_name(exec))
                      .add("modeled_time_s", ks.modeled_time)
                      .add("wall_time_s", m.median_s())
                      .add("events", m.events)
                      .add("remote_messages", ks.remote_messages)
                      .add("windows", ks.windows)
                      .add("channel_advances", ks.channel_advances)
                      .add("idle_jumps", ks.idle_jumps)
                      .add("history_hash", std::to_string(ks.history_hash)));
      }
    }
    // Sequential modeled time, global window over channel lookahead
    // (configs run sync-major: [0] and [2] are the Sequential ones).
    const double speedup =
        configs[0].stats.modeled_time / configs[2].stats.modeled_time;
    if (name == "dumbbell") dumbbell_speedup = speedup;
    const double differ = hash_mismatches(configs);
    report.gate("hash_mismatches/" + name, differ, 0, true, differ == 0,
                "configs whose history hash differs from the first == 0");
    scenarios.push(bench::Json()
                       .add("name", name)
                       .add("modeled_speedup_channel_vs_global", speedup)
                       .add("configs", std::move(rows)));
  }
  report.gate("modeled_speedup/dumbbell", dumbbell_speedup, 1.5, true,
              dumbbell_speedup >= 1.5,
              "sequential modeled time, global window over channel "
              "lookahead, >= 1.5");

  report.results.add("headline",
                     "hops: events/sec; rings: threaded events/sec vs "
                     "sequential; sync: sequential modeled-time ratio "
                     "global/channel");
  report.results.add("hops", std::move(hops));
  report.results.add("rings", std::move(rings));
  report.results.add("sync", std::move(scenarios));
  return report.write(out_path);
}
