// A/B benchmark of the two conservative synchronization protocols
// (SyncMode::GlobalWindow vs SyncMode::ChannelLookahead) on two scenarios:
//
//   * dumbbell — raw-kernel heterogeneous topology: two 2-LP sites whose
//     intra-site channels have millisecond lookahead, joined by a slow
//     cross-site channel with 50x larger lookahead. Global windows are
//     sized by the 1 ms minimum, so the whole machine pays one barrier per
//     millisecond of sim time; per-channel advancement lets each site run
//     on its own fast channels and only rendezvous for idle spans.
//   * campus — the paper's campus topology under HTTP background traffic,
//     TOP-mapped onto 3 engines, through the full emulator stack.
//
// Each scenario runs 4 configs ({GlobalWindow, ChannelLookahead} x
// {Sequential, Threaded}) and records modeled emulation time, wall-clock
// time, window/advance/idle counters, and the history hash. The headline
// figure is the Sequential modeled-time ratio (global / channel): modeled
// time is deterministic and machine-independent, while wall-clock on a
// small shared machine mostly measures scheduler noise (threaded configs
// are included for reference only). Gates (bench::Report; the exit status
// is 0 only if all pass): the history hash is identical across all 4
// configs of each scenario, and the dumbbell ratio is >= 1.5.
//
//   $ ./bench_micro_sync [BENCH_sync.json]
//
// bench/run.sh sync builds Release and records the JSON.
#include <chrono>
#include <cstdint>
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
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/http.hpp"

namespace {

using namespace massf;

struct ConfigResult {
  des::SyncMode sync = des::SyncMode::GlobalWindow;
  des::ExecutionMode exec = des::ExecutionMode::Sequential;
  double modeled_time = 0;
  double wall_time = 0;
  std::uint64_t events = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t windows = 0;
  std::uint64_t channel_advances = 0;
  std::uint64_t idle_jumps = 0;
  std::uint64_t history_hash = 0;
};

struct ScenarioResult {
  std::string name;
  std::vector<ConfigResult> configs;

  const ConfigResult& find(des::SyncMode sync, des::ExecutionMode exec) const {
    for (const ConfigResult& c : configs)
      if (c.sync == sync && c.exec == exec) return c;
    std::abort();
  }
  /// Headline: Sequential modeled-time ratio, global-window over channel.
  double modeled_speedup() const {
    const ConfigResult& g =
        find(des::SyncMode::GlobalWindow, des::ExecutionMode::Sequential);
    const ConfigResult& c =
        find(des::SyncMode::ChannelLookahead, des::ExecutionMode::Sequential);
    return g.modeled_time / c.modeled_time;
  }
  std::size_t hash_mismatches() const {
    std::size_t differ = 0;
    for (const ConfigResult& c : configs)
      differ += c.history_hash != configs.front().history_hash;
    return differ;
  }
};

ConfigResult fill(const des::KernelStats& ks, des::SyncMode sync,
                  des::ExecutionMode exec, double wall) {
  ConfigResult r;
  r.sync = sync;
  r.exec = exec;
  r.modeled_time = ks.modeled_time;
  r.wall_time = wall;
  for (auto e : ks.events_per_lp) r.events += e;
  r.remote_messages = ks.remote_messages;
  r.windows = ks.windows;
  r.channel_advances = ks.channel_advances;
  r.idle_jumps = ks.idle_jumps;
  r.history_hash = ks.history_hash;
  return r;
}

// ---- dumbbell: raw-kernel heterogeneous channel graph --------------------

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

ConfigResult run_dumbbell(des::SyncMode sync, des::ExecutionMode exec) {
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

  const auto t0 = std::chrono::steady_clock::now();
  kernel.run_until(kDumbbellEnd, exec);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return fill(kernel.stats(), sync, exec, wall);
}

// ---- campus: full emulator stack under HTTP background -------------------

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

ConfigResult run_campus(const CampusFixture& fixture, des::SyncMode sync,
                        des::ExecutionMode exec) {
  emu::EmulatorConfig config;
  config.sync_mode = sync;
  emu::Emulator emulator(fixture.network, fixture.routes,
                         fixture.mapped.node_engine, fixture.mapped.engines,
                         config);
  fixture.workload->install(emulator);
  const auto t0 = std::chrono::steady_clock::now();
  emulator.run(kCampusHorizon, exec);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return fill(emulator.kernel_stats(), sync, exec, wall);
}

// ---- reporting -----------------------------------------------------------

ScenarioResult run_scenario(const std::string& name,
                            const CampusFixture* campus) {
  ScenarioResult scenario;
  scenario.name = name;
  for (auto sync :
       {des::SyncMode::GlobalWindow, des::SyncMode::ChannelLookahead}) {
    for (auto exec :
         {des::ExecutionMode::Sequential, des::ExecutionMode::Threaded}) {
      std::cerr << "  " << name << " " << des::to_string(sync) << " / "
                << (exec == des::ExecutionMode::Sequential ? "sequential"
                                                           : "threaded")
                << "...\n";
      scenario.configs.push_back(campus != nullptr
                                     ? run_campus(*campus, sync, exec)
                                     : run_dumbbell(sync, exec));
    }
  }
  return scenario;
}

bench::Json to_json(const ScenarioResult& scenario) {
  bench::Json configs = bench::Json::array();
  for (const ConfigResult& r : scenario.configs)
    configs.push(
        bench::Json()
            .add("sync", des::to_string(r.sync))
            .add("exec", r.exec == des::ExecutionMode::Sequential
                             ? "sequential"
                             : "threaded")
            .add("modeled_time_s", r.modeled_time)
            .add("wall_time_s", r.wall_time)
            .add("events", r.events)
            .add("remote_messages", r.remote_messages)
            .add("windows", r.windows)
            .add("channel_advances", r.channel_advances)
            .add("idle_jumps", r.idle_jumps)
            .add("history_hash", std::to_string(r.history_hash)));
  return bench::Json()
      .add("name", scenario.name)
      .add("modeled_speedup_channel_vs_global", scenario.modeled_speedup())
      .add("configs", std::move(configs));
}

}  // namespace

int main(int argc, char** argv) {
  // Widest worker pool: the 4-LP dumbbell's threaded configs.
  bench::Report report("sync", 4);
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_sync.json";
  report.run_config.add("dumbbell_end_s", kDumbbellEnd)
      .add("dumbbell_fast_lookahead_s", kFastLa)
      .add("dumbbell_slow_lookahead_s", kSlowLa)
      .add("campus_engines", kCampusEngines)
      .add("campus_horizon_s", kCampusHorizon);

  std::vector<ScenarioResult> all;
  all.push_back(run_scenario("dumbbell", nullptr));
  const CampusFixture campus;
  all.push_back(run_scenario("campus", &campus));

  bench::Json scenarios = bench::Json::array();
  for (const ScenarioResult& scenario : all) {
    report.gate("hash_mismatches/" + scenario.name,
                static_cast<double>(scenario.hash_mismatches()), 0, true,
                scenario.hash_mismatches() == 0,
                "configs whose history hash differs from the first == 0");
    scenarios.push(to_json(scenario));
  }
  report.results.add("headline",
                     "sequential modeled-time ratio global/channel");
  report.results.add("scenarios", std::move(scenarios));
  const double speedup = all.front().modeled_speedup();
  report.gate("modeled_speedup/dumbbell", speedup, 1.5, true, speedup >= 1.5,
              "sequential modeled time, global window over channel "
              "lookahead, >= 1.5");
  return report.write(out_path);
}
