#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "app/scenario.hpp"
#include "bench/common.hpp"
#include "emu/emulator.hpp"
#include "fault/fault.hpp"
#include "routing/hierarchical.hpp"
#include "topology/topologies.hpp"
#include "traffic/cbr.hpp"
#include "traffic/http.hpp"
#include "traffic/scalapack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace app = massf::app;
namespace bench = massf::bench;
namespace emu = massf::emu;
namespace fault = massf::fault;
namespace mapping = massf::mapping;
namespace routing = massf::routing;
namespace topology = massf::topology;
namespace traffic = massf::traffic;

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::CampusProfile, Workload::LbFault, Workload::HierCbr})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::CampusProfile: return "campus_profile";
    case Workload::LbFault: return "lb_fault";
    case Workload::HierCbr: return "hier_cbr";
  }
  return "?";
}

double load_max_over_mean(const mapping::RunMetrics& metrics) {
  const std::vector<double>& events = metrics.engine_events;
  if (events.empty()) return 0;
  double total = 0;
  for (const double e : events) total += e;
  if (total <= 0) return 0;
  return *std::max_element(events.begin(), events.end()) /
         (total / static_cast<double>(events.size()));
}

namespace {

// ---- lb_fault parameters (bench_lb_policies' full-size scenario) ---------
constexpr int kLbEngines = 4;
// BENCH_lb generates load for 6 s; 2 s keeps the scale (users, rate,
// flows per second) while fitting about ten passes into one run.
constexpr double kLbDuration = 2.0;

app::LbScenarioParams lb_params(std::uint64_t seed, bool small) {
  const std::int64_t users = small ? 5000 : 100000;
  app::LbScenarioParams params;
  params.backends = 16;
  params.client_hosts = static_cast<int>(
      std::min<std::int64_t>(40, std::max<std::int64_t>(1, users / 250)));
  params.users_per_host = static_cast<int>(
      (users + params.client_hosts - 1) / params.client_hosts);
  // ~20k req/s offered in simulated time at full size.
  params.rate_per_user = 0.2 * (100000.0 / static_cast<double>(users));
  params.duration_s = small ? 1.0 : kLbDuration;
  params.server.workers = 4;
  params.server.mean_s = 2e-3;
  params.policy = app::PolicyKind::PeakEwma;
  params.seed = massf::mix_seed(seed, 0x6c62);
  return params;
}

/// LbWorkload::install with every endpoint wrapped in a TimedEndpoint:
/// same endpoints, same order, same parameters, so the emulated history is
/// identical to LbWorkload's.
class TimedLbWorkload final : public traffic::Workload {
 public:
  TimedLbWorkload(const app::LbScenario& scenario,
                  const app::LbScenarioParams& params, UpcallLog& log)
      : scenario_(scenario), params_(params), log_(log) {}

  void install(emu::Emulator& emulator) const override {
    const int series =
        emulator.register_latency_series(app::policy_name(params_.policy));
    lb_counters_ = std::make_shared<app::LbCounters>();
    app::LoadBalancerParams lb;
    lb.policy = params_.policy;
    lb.policy_config = params_.policy_config;
    lb.backends = scenario_.backends;
    lb.reliable = params_.reliable;
    install(emulator, scenario_.lb,
            std::make_unique<app::LoadBalancerEndpoint>(std::move(lb),
                                                        lb_counters_));

    app::ServerParams server = params_.server;
    server.reliable = params_.reliable;
    server.seed = massf::mix_seed(params_.seed, 0x737276ULL);
    for (const topology::NodeId backend : scenario_.backends)
      install(emulator, backend, std::make_unique<app::ServerEndpoint>(server));

    client_counters_.clear();
    for (std::size_t c = 0; c < scenario_.clients.size(); ++c) {
      app::ClientParams client;
      client.lb = scenario_.lb;
      client.users = params_.users_per_host;
      client.rate_per_user = params_.rate_per_user;
      client.duration_s = params_.duration_s;
      client.request_bytes = params_.request_bytes;
      client.series = series;
      client.user_base = static_cast<std::uint64_t>(c) *
                         static_cast<std::uint64_t>(params_.users_per_host);
      client.seed = massf::mix_seed(params_.seed, 0x636c69ULL);
      client.reliable = params_.reliable;
      auto counters = std::make_shared<app::ClientCounters>();
      client_counters_.push_back(counters);
      install(emulator, scenario_.clients[c],
              std::make_unique<app::ClientEndpoint>(std::move(client),
                                                    std::move(counters)));
    }
  }

  double duration() const override { return params_.duration_s; }

  app::LbCounters lb_counters() const { return *lb_counters_; }
  app::ClientCounters client_totals() const {
    app::ClientCounters total;
    for (const auto& c : client_counters_) {
      total.requests_sent += c->requests_sent;
      total.responses_received += c->responses_received;
      total.send_failures += c->send_failures;
      total.stale_responses += c->stale_responses;
    }
    return total;
  }

 private:
  void install(emu::Emulator& emulator, topology::NodeId host,
               std::unique_ptr<emu::AppEndpoint> endpoint) const {
    emulator.install_endpoint(
        host, std::make_unique<TimedEndpoint>(std::move(endpoint), log_));
  }

  app::LbScenario scenario_;
  app::LbScenarioParams params_;
  UpcallLog& log_;
  mutable std::shared_ptr<app::LbCounters> lb_counters_;
  mutable std::vector<std::shared_ptr<app::ClientCounters>> client_counters_;
};

// ---- campus_profile workload ----------------------------------------------

/// Seed of everything structural the workloads place at random (which
/// hosts run the foreground app, CBR endpoints), fixed so that the seed
/// varies traffic, not the experiment's shape. 2026 is the placement the
/// paper benches use (bench::run_cell).
constexpr std::uint64_t kPlacementSeed = 2026;

/// bench::make_workload(topo, App::Scalapack, kPlacementSeed) except that
/// the HTTP dynamics (think times, response sizes, start offsets) draw from
/// the workload seed. Hosts, HTTP servers and clients stay where
/// kPlacementSeed puts them; ScaLapack itself is deterministic.
std::shared_ptr<traffic::CompositeWorkload> campus_workload(
    const bench::TopologyCase& topo, std::uint64_t seed) {
  massf::Rng rng(massf::mix_seed(kPlacementSeed, 0xAB));
  std::vector<topology::NodeId> hosts = topo.network.hosts();
  rng.shuffle(hosts);
  const std::vector<topology::NodeId> app_hosts(hosts.begin(),
                                                hosts.begin() + 10);
  auto workload = std::make_shared<traffic::CompositeWorkload>();

  traffic::ScalapackParams scalapack;
  scalapack.matrix_n = 3000;
  scalapack.block_nb = 100;
  scalapack.size_scale = 1.0;
  scalapack.total_compute_s = 100;
  scalapack.seed = massf::mix_seed(kPlacementSeed, 0x5CA1);
  workload->add(std::make_shared<traffic::ScalapackApp>(app_hosts, scalapack));

  traffic::HttpParams http;
  http.request_size_bytes = 200e3;
  http.clients_per_server = 14;
  const int spare = topo.network.host_count() -
                    static_cast<int>(app_hosts.size());
  http.server_number = std::min(20, std::max(8, spare / 6));
  http.think_time_s = 1.5;
  http.zipf_exponent = 1.3;
  http.duration_s = 420;
  http.seed = massf::mix_seed(kPlacementSeed, 0x4777);
  http.dynamics_seed = massf::mix_seed(seed, 0x4777);
  workload->add(std::make_shared<traffic::HttpBackground>(topo.network, http,
                                                          app_hosts));
  return workload;
}

// ---- hier_cbr parameters --------------------------------------------------
constexpr int kHierEngines = 4;

/// Poisson CBR flows between random hosts of different routing domains.
/// The endpoints are fixed; the workload seed drives the send times.
std::shared_ptr<traffic::CbrTraffic> make_cbr(const topology::Network& net,
                                              std::uint64_t seed, bool small) {
  const int flow_count = small ? 40 : 300;
  const std::vector<topology::NodeId> hosts = net.hosts();
  massf::Rng rng(kPlacementSeed);
  std::vector<traffic::CbrFlowSpec> flows;
  flows.reserve(static_cast<std::size_t>(flow_count));
  while (static_cast<int>(flows.size()) < flow_count) {
    const topology::NodeId src = rng.pick(hosts);
    const topology::NodeId dst = rng.pick(hosts);
    if (net.node(src).domain_id == net.node(dst).domain_id) continue;
    traffic::CbrFlowSpec flow;
    flow.src = src;
    flow.dst = dst;
    flow.message_bytes = 15000;
    flow.interval_s = 0.05;
    flow.jitter = 1.0;
    flows.push_back(flow);
  }
  traffic::CbrParams params;
  params.duration_s = small ? 2.0 : 5.0;
  params.seed = massf::mix_seed(seed, 0xCB3);
  return std::make_shared<traffic::CbrTraffic>(std::move(flows), params);
}

/// Everything the experiment points into; it must outlive the run.
struct Built {
  std::unique_ptr<bench::TopologyCase> campus;
  std::unique_ptr<app::LbScenario> lb;
  std::unique_ptr<topology::Network> hier;
  std::shared_ptr<const routing::RoutingView> routes;
  std::shared_ptr<const routing::RoutingView> counted;
  std::unique_ptr<fault::FaultTimeline> faults;
  std::shared_ptr<const app::LbWorkload> lb_workload;
  std::shared_ptr<const TimedLbWorkload> timed_lb;
  mapping::ExperimentSetup setup;
  mapping::Approach approach = mapping::Approach::Top;
  const topology::Network* net = nullptr;
};

/// Run `fn` inside a span named `name` when tracing.
template <class Fn>
void stage(Probes* probes, const char* name, Fn&& fn) {
  if (probes == nullptr) {
    fn();
    return;
  }
  ScopedSpan span(probes->spans, name);
  fn();
}

/// Non-owning shared_ptr to a view whose owner outlives every user.
std::shared_ptr<const routing::RoutingView> borrow(
    const routing::RoutingView& view) {
  return {std::shared_ptr<const routing::RoutingView>{}, &view};
}

void build_campus(Built& b, std::uint64_t seed, const RunOptions& options) {
  topology::Network net;
  stage(options.probes, "topology.build",
        [&] { net = topology::make_campus(); });
  stage(options.probes, "routing.build", [&] {
    routing::RoutingTables tables = routing::RoutingTables::build(net);
    b.campus = std::make_unique<bench::TopologyCase>(bench::TopologyCase{
        "Campus", std::move(net), std::move(tables), 3});
    b.routes = borrow(b.campus->routes);
  });
  stage(options.probes, "traffic.build", [&] {
    bench::WorkloadBundle bundle;
    bundle.workload = campus_workload(*b.campus, seed);
    b.setup = bench::make_setup(*b.campus, bundle, 0);
  });
  // Reduced scale: the first 60 s of the experiment.
  if (options.small) b.setup.horizon = 60;
  b.net = &b.campus->network;
  b.approach = mapping::Approach::Profile;
}

void build_lb(Built& b, std::uint64_t seed, const RunOptions& options) {
  const app::LbScenarioParams params = lb_params(seed, options.small);
  stage(options.probes, "topology.build", [&] {
    b.lb = std::make_unique<app::LbScenario>(app::make_lb_scenario(params));
  });
  b.net = &b.lb->net;
  stage(options.probes, "routing.build", [&] {
    b.routes = std::make_shared<routing::RoutingTables>(
        routing::RoutingTables::build(*b.net));
    // Rack 0's core uplink is down for the middle third: three epochs.
    fault::FaultPlan plan;
    plan.link_outage(b.lb->degraded_uplink, params.duration_s / 3,
                     2 * params.duration_s / 3);
    fault::FaultTimeline::RoutingBuilder builder;
    if (options.probes != nullptr) {
      LookupLog& log = options.probes->lookups;
      builder = [&log](const topology::Network& network,
                       routing::Reachability* reach,
                       const std::vector<char>* links_up,
                       const std::vector<char>* nodes_up,
                       const routing::RoutingView*) {
        return std::make_shared<CountingView>(
            std::make_shared<routing::RoutingTables>(
                routing::RoutingTables::build_partial(network, reach,
                                                      links_up, nodes_up)),
            log);
      };
    }
    b.faults = std::make_unique<fault::FaultTimeline>(*b.net, plan, builder);
  });
  stage(options.probes, "traffic.build", [&] {
    if (options.probes != nullptr) {
      b.timed_lb = std::make_shared<TimedLbWorkload>(
          *b.lb, params, options.probes->upcalls);
      b.setup.workload = b.timed_lb;
    } else {
      b.lb_workload = std::make_shared<app::LbWorkload>(*b.lb, params);
      b.setup.workload = b.lb_workload;
    }
    b.setup.network = b.net;
    b.setup.routes = b.routes.get();
    b.setup.engines = kLbEngines;
    b.setup.faults = b.faults.get();
    b.setup.emulator.reliable.base_timeout_s = params.reliable_timeout_s;
    b.setup.emulator.sync_mode = massf::des::SyncMode::ChannelLookahead;
    // Generation window plus drain time, as run_lb_scenario uses.
    b.setup.horizon = 2.0 * params.duration_s + 10.0;
  });
  b.approach = mapping::Approach::Top;
}

void build_hier(Built& b, std::uint64_t seed, const RunOptions& options) {
  stage(options.probes, "topology.build", [&] {
    b.hier = std::make_unique<topology::Network>(topology::make_hierarchy(
        topology::hierarchy_params_for_nodes(options.small ? 5000 : 100000)));
  });
  b.net = b.hier.get();
  stage(options.probes, "routing.build",
        [&] { b.routes = routing::make_routing_view(*b.net); });
  stage(options.probes, "traffic.build", [&] {
    const auto cbr = make_cbr(*b.net, seed, options.small);
    b.setup.workload = cbr;
    b.setup.network = b.net;
    b.setup.routes = b.routes.get();
    b.setup.engines = kHierEngines;
    // The horizon ends the generation window, so the messages still on
    // the wire then are the undelivered share app.failed_frac reports.
    b.setup.horizon = cbr->duration();
  });
  b.approach = mapping::Approach::Top;
}

/// The mapping building blocks Experiment::map calls, one span each.
mapping::MappingResult traced_map(const mapping::Experiment& experiment,
                                  mapping::Approach approach,
                                  Probes& probes) {
  const mapping::ExperimentSetup& setup = experiment.setup();
  const mapping::Mapper& mapper = experiment.mapper();
  if (approach == mapping::Approach::Top) {
    ScopedSpan span(probes.spans, "partition.map");
    return mapper.map_top(setup.mapping);
  }
  MASSF_REQUIRE(approach == mapping::Approach::Profile,
                "traced mapping supports TOP and PROFILE");
  // PROFILE: the profiling emulation under the TOP partition, exactly as
  // Experiment::map runs it, then the NetFlow-based estimate.
  std::unique_ptr<emu::NetFlowCollector> netflow;
  std::vector<std::vector<double>> series;
  {
    ScopedSpan estimate(probes.spans, "core.estimate");
    mapping::MappingResult initial;
    {
      ScopedSpan span(probes.spans, "core.profile_map");
      initial = mapper.map_top(setup.mapping);
    }
    {
      ScopedSpan span(probes.spans, "core.profile_run");
      emu::EmulatorConfig config = setup.emulator;
      config.collect_netflow = true;
      emu::Emulator emulator(*setup.network, *setup.routes,
                             initial.node_engine, setup.engines, config);
      emulator.set_fault_timeline(setup.faults);
      const traffic::Workload& profiled = setup.profile_workload
                                              ? *setup.profile_workload
                                              : *setup.workload;
      profiled.install(emulator);
      const double horizon = setup.horizon > 0
                                 ? setup.horizon
                                 : setup.workload->duration() * 2.5;
      emulator.run(horizon, setup.mode);
      netflow = std::make_unique<emu::NetFlowCollector>(emulator.netflow());
      series = emulator.kernel_stats().load_series;
    }
    ScopedSpan span(probes.spans, "core.estimate_profile");
    mapper.estimate_profile(*netflow, series, setup.mapping);
  }
  ScopedSpan span(probes.spans, "partition.map");
  return mapper.map_profile(*netflow, series, setup.mapping);
}

std::uint64_t count_netflow_records(const emu::Emulator& emulator) {
  if (!emulator.collects_netflow()) return 0;
  std::uint64_t records = 0;
  const emu::NetFlowCollector& netflow = emulator.netflow();
  for (topology::NodeId n = 0; n < emulator.network().node_count(); ++n)
    records += netflow.node_flows(n).size();
  return records;
}

/// Thrown from the emulator hook to end a setup-only pass.
struct SetupDone {};

void check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.check_failures.push_back(what);
}

/// Train conservation, message and request accounting.
void check_outputs(Outcome& out, bool lb) {
  const emu::EmulatorStats& s = out.metrics.emulator_stats;
  const std::uint64_t settled = s.trains_delivered + s.trains_dropped +
                                s.trains_dropped_fault +
                                s.trains_dropped_unreachable +
                                s.trains_expired;
  out.trains_in_flight = static_cast<std::int64_t>(s.trains_injected) -
                         static_cast<std::int64_t>(settled);
  check(out, out.trains_in_flight >= 0,
        "train conservation: delivered + dropped + expired exceeds injected");
  check(out, s.trains_injected > 0, "no trains injected");
  check(out, s.messages_delivered <= s.messages_sent,
        "more messages delivered than sent");
  check(out, s.reliable_messages_delivered <= s.reliable_messages_sent,
        "more reliable messages delivered than sent");
  if (lb) {
    const app::ClientCounters& c = out.clients;
    const std::uint64_t answered = c.responses_received;
    const std::uint64_t failed =
        c.send_failures + out.lb.backend_errors + out.lb.relay_errors;
    check(out, c.requests_sent > 0, "no requests sent");
    check(out, answered + failed <= c.requests_sent,
          "request accounting: answered + failed exceeds sent");
    check(out, out.lb.requests_forwarded <= c.requests_sent,
          "request accounting: LB forwarded more requests than were sent");
    check(out,
          out.lb.responses_relayed + out.lb.backend_errors <=
              out.lb.requests_forwarded,
          "request accounting: LB closed more flights than it opened");
    check(out, answered <= out.lb.responses_relayed,
          "request accounting: clients received unrelayed responses");
    out.failed_frac =
        c.requests_sent == 0
            ? 1.0
            : static_cast<double>(c.requests_sent - answered) /
                  static_cast<double>(c.requests_sent);
  } else {
    out.failed_frac =
        s.messages_sent == 0
            ? 1.0
            : static_cast<double>(s.messages_sent - s.messages_delivered) /
                  static_cast<double>(s.messages_sent);
  }
  check(out, out.metrics.history_hash != 0, "history_hash is zero");
}

void build(Built& b, Workload workload, std::uint64_t seed,
           const RunOptions& options) {
  switch (workload) {
    case Workload::CampusProfile: build_campus(b, seed, options); break;
    case Workload::LbFault: build_lb(b, seed, options); break;
    case Workload::HierCbr: build_hier(b, seed, options); break;
  }
  b.setup.mode = massf::des::ExecutionMode::Sequential;
  b.setup.emulator.collect_netflow = options.collect_netflow;
}

}  // namespace

massf::des::KernelStats run_kernel_only(Workload workload, std::uint64_t seed,
                                        const RunOptions& options,
                                        const mapping::MappingResult& mapped) {
  Built b;
  build(b, workload, seed, options);
  const mapping::ExperimentSetup& setup = b.setup;
  // Experiment::run's body, minus the RunMetrics collection.
  emu::Emulator emulator(*setup.network, *setup.routes, mapped.node_engine,
                         setup.engines, setup.emulator);
  emulator.set_fault_timeline(setup.faults);
  setup.workload->install(emulator);
  const double horizon =
      setup.horizon > 0 ? setup.horizon : setup.workload->duration() * 2.5;
  emulator.run(horizon, setup.mode);
  return emulator.kernel_stats();
}

Outcome run_workload(Workload workload, std::uint64_t seed,
                     const RunOptions& options) {
  Probes* probes = options.probes;
  Built b;
  Outcome out;
  int setup_span = -1;
  if (probes != nullptr) setup_span = probes->spans.open("setup");
  const Clock::time_point t0 = Clock::now();
  build(b, workload, seed, options);
  out.nodes = b.net->node_count();
  out.links = b.net->link_count();
  out.routing_memory_bytes = b.routes->memory_bytes();
  if (probes != nullptr && workload != Workload::LbFault) {
    // lb_fault's run routes through the fault timeline's epoch views,
    // which build_lb already wrapped.
    b.counted = std::make_shared<CountingView>(b.routes, probes->lookups);
    b.setup.routes = b.counted.get();
  }

  std::unique_ptr<mapping::Experiment> experiment;
  stage(probes, "partition.init", [&] {
    experiment = std::make_unique<mapping::Experiment>(b.setup);
  });
  out.mapping = probes != nullptr ? traced_map(*experiment, b.approach, *probes)
                                  : experiment->map(b.approach);

  Clock::time_point hook_time;
  std::vector<std::pair<Clock::time_point, double>> cuts;
  experiment->set_emulator_hook([&](emu::Emulator& emulator, double horizon) {
    hook_time = Clock::now();
    if (options.setup_only) throw SetupDone{};
    if (probes == nullptr) return;
    probes->spans.close(probes->spans.current());  // emu.setup
    probes->spans.close(setup_span);
    probes->spans.open("run");
    probes->lookups.counting = true;
    for (const double t : probes->slice_times)
      if (t > 0 && t < horizon) emulator.add_rebalance_safepoint(t);
    emulator.set_pre_safepoint_hook([&, probes](double t) {
      cuts.emplace_back(Clock::now(), t);
      probes->netflow_records = count_netflow_records(emulator);
    });
  });
  if (probes != nullptr) probes->spans.open("emu.setup");
  try {
    out.metrics = experiment->run(out.mapping);
  } catch (const SetupDone&) {
    out.setup_s = seconds_between(t0, hook_time);
    return out;
  }
  const Clock::time_point end = Clock::now();
  out.setup_s = seconds_between(t0, hook_time);
  out.run_s = seconds_between(hook_time, end);

  if (probes != nullptr) {
    probes->lookups.counting = false;
    const int run_span = probes->spans.current();
    probes->spans.close(run_span);
    Clock::time_point from = probes->spans.spans()[run_span].start;
    double sim_from = 0;
    cuts.emplace_back(probes->spans.spans()[run_span].end,
                      out.metrics.sim_time);
    for (const auto& [wall, sim] : cuts) {
      char name[64];
      std::snprintf(name, sizeof(name), "run.slice %.6g-%.6g", sim_from, sim);
      probes->spans.add(name, from, wall, run_span);
      from = wall;
      sim_from = sim;
    }
    // Replay while the sampled views are still alive.
    probes->lookup_ns = probes->lookups.replay_ns(5);
    out.setup_s = probes->spans.spans()[setup_span].seconds();
    out.run_s = probes->spans.spans()[run_span].seconds();
  }

  if (b.lb_workload != nullptr) {
    out.clients = b.lb_workload->client_totals();
    out.lb = b.lb_workload->lb_counters();
  } else if (b.timed_lb != nullptr) {
    out.clients = b.timed_lb->client_totals();
    out.lb = b.timed_lb->lb_counters();
  }
  check_outputs(out, workload == Workload::LbFault);
  return out;
}

std::string fingerprint(const Outcome& o) {
  std::ostringstream out;
  out.precision(17);
  const mapping::RunMetrics& m = o.metrics;
  const emu::EmulatorStats& s = m.emulator_stats;
  out << "history_hash=" << m.history_hash << "\n"
      << "load_max_over_mean=" << load_max_over_mean(m) << "\n"
      << "modeled_emulation_s=" << m.emulation_time << "\n"
      << "failed_frac=" << o.failed_frac << "\n"
      << "network_time=" << m.network_time << "\n"
      << "nodes=" << o.nodes << " links=" << o.links << "\n"
      << "routing_memory_bytes=" << o.routing_memory_bytes << "\n"
      << "links_cut=" << o.mapping.links_cut
      << " worst_balance=" << o.mapping.worst_balance
      << " lookahead=" << o.mapping.lookahead << "\n"
      << "windows=" << m.windows << " remote=" << m.remote_messages
      << " advances=" << m.channel_advances << " idle_jumps=" << m.idle_jumps
      << "\n"
      << "trains=" << s.trains_injected << "/" << s.trains_delivered << "/"
      << s.trains_dropped << "/" << s.trains_dropped_fault << "/"
      << s.trains_dropped_unreachable << "/" << s.trains_expired << "\n"
      << "messages=" << s.messages_sent << "/" << s.messages_delivered << "\n"
      << "reliable=" << s.reliable_messages_sent << "/"
      << s.reliable_messages_delivered << "/" << s.reliable_messages_acked
      << "/" << s.reliable_messages_failed << "/" << s.retransmissions << "/"
      << s.duplicate_deliveries << "\n"
      << "requests=" << o.clients.requests_sent << "/"
      << o.clients.responses_received << "/" << o.clients.send_failures
      << "/" << o.lb.backend_errors << "/" << o.lb.relay_errors << "\n";
  out << "engine_events=";
  for (const double e : m.engine_events) out << e << ",";
  out << "\nepochs=";
  for (const emu::EpochStats& e : m.epochs)
    out << e.trains_dropped_fault << ":" << e.reliable_recovered << ",";
  out << "\n";
  return out.str();
}

}  // namespace perfbench
