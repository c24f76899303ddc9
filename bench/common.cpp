#include "bench/common.hpp"

#include <cstdlib>
#include <sstream>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "traffic/gridnpb.hpp"
#include "traffic/http.hpp"
#include "traffic/scalapack.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace massf::bench {

using mapping::Approach;

std::vector<std::string> table1_names() {
  return {"Campus", "TeraGrid", "Brite"};
}

TopologyCase make_topology_case(const std::string& name) {
  if (name == "Campus") {
    topology::Network net = topology::make_campus();
    return {name, net, routing::RoutingTables::build(net), 3};
  }
  if (name == "TeraGrid") {
    topology::Network net = topology::make_teragrid();
    return {name, net, routing::RoutingTables::build(net), 5};
  }
  if (name == "Brite") {
    topology::BriteParams params;  // Table 1 defaults: 160 routers/132 hosts
    topology::Network net = topology::make_brite(params);
    return {name, net, routing::RoutingTables::build(net), 8};
  }
  if (name == "BriteLarge") {
    topology::BriteParams params;
    params.routers = 200;  // §4.2.3: single-AS BRITE, 200 routers
    params.hosts = 364;
    params.seed = 97;
    topology::Network net = topology::make_brite(params);
    return {name, net, routing::RoutingTables::build(net), 20};
  }
  MASSF_REQUIRE(false, "unknown topology case '" << name << "'");
}

const char* app_name(App app) {
  return app == App::Scalapack ? "ScaLapack" : "GridNPB";
}

WorkloadBundle make_workload(const TopologyCase& topo, App app,
                             std::uint64_t seed) {
  Rng rng(mix_seed(seed, 0xAB));
  std::vector<topology::NodeId> hosts = topo.network.hosts();
  rng.shuffle(hosts);

  WorkloadBundle bundle;
  bundle.workload = std::make_shared<traffic::CompositeWorkload>();

  if (app == App::Scalapack) {
    // 10 process hosts, like the paper's runs.
    bundle.app_hosts.assign(hosts.begin(), hosts.begin() + 10);
    traffic::ScalapackParams params;
    params.matrix_n = 3000;
    params.block_nb = 100;
    params.size_scale = 1.0;
    params.total_compute_s = 100;
    params.seed = mix_seed(seed, 0x5CA1);
    bundle.workload->add(std::make_shared<traffic::ScalapackApp>(
        bundle.app_hosts, params));
  } else {
    // GridNPB HC+VP+MB over 12 hosts, looping for ~the paper's 15 minutes
    // of workflow activity (compressed).
    bundle.app_hosts.assign(hosts.begin(), hosts.begin() + 12);
    traffic::GridNpbParams params;
    params.rounds = 6;
    params.unit_bytes = 2.5e6;
    params.unit_compute_s = 6.0;
    params.seed = mix_seed(seed, 0x6B1D);
    bundle.workload->add(std::make_shared<traffic::WorkflowApp>(
        traffic::make_gridnpb(bundle.app_hosts, params)));
  }

  // Moderate HTTP background (§4.1.4) scaled to the topology's spare host
  // population; the paper's request_size/clients_per_server are kept.
  traffic::HttpParams http;
  http.request_size_bytes = 200e3;
  http.clients_per_server = 14;
  const int spare = topo.network.host_count() -
                    static_cast<int>(bundle.app_hosts.size());
  http.server_number = std::min(20, std::max(8, spare / 6));
  http.think_time_s = 1.5;
  http.zipf_exponent = 1.3;
  http.duration_s = 420;
  http.seed = mix_seed(seed, 0x4777);
  bundle.workload->add(std::make_shared<traffic::HttpBackground>(
      topo.network, http, bundle.app_hosts));

  return bundle;
}

mapping::ExperimentSetup make_setup(const TopologyCase& topo,
                                    const WorkloadBundle& bundle,
                                    int replica) {
  mapping::ExperimentSetup setup;
  setup.network = &topo.network;
  setup.routes = &topo.routes;
  setup.workload = bundle.workload;
  setup.engines = topo.engines;

  // Engine cost model: ~paper-era engines (see header comment).
  setup.emulator.train_packets = 4;
  setup.emulator.cost.per_event = 2e-3;
  setup.emulator.cost.per_remote_message = 0.2e-3;
  setup.emulator.cost.per_window_sync = 1e-3;
  setup.emulator.max_queue_delay = 5.0;     // deep buffers, no transport loss
  setup.emulator.bucket_width = 2.0;        // the paper's 2 s intervals

  setup.mapping.latency_priority = 0.6;     // the 6:4 default ratio
  setup.mapping.memory_priority = 0.05;
  setup.mapping.partition.epsilon = 0.12;
  setup.mapping.trials = 4;
  setup.mapping.foreground_utilization = 0.10;
  setup.mapping.partition.seed = 1000 + static_cast<std::uint64_t>(replica);
  return setup;
}

int replica_count() {
  if (const char* env = std::getenv("MASSF_BENCH_REPLICAS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  return 3;
}

std::size_t peak_rss_bytes() {
#if defined(__linux__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

std::string context_json(int max_threads, const std::string& indent) {
#ifdef NDEBUG
  const char* build = "Release";
#else
  const char* build = "Debug";
#endif
  double loads[3] = {-1.0, -1.0, -1.0};
#if defined(__linux__) || defined(__APPLE__)
  // Best-effort: on failure the sentinel -1 values are recorded as-is.
  getloadavg(loads, 3);
#endif
  std::ostringstream out;
  out << "{\n"
      << indent << "  \"build_type\": \"" << build << "\",\n"
      << indent << "  \"num_cpus\": " << std::thread::hardware_concurrency()
      << ",\n"
      << indent << "  \"max_threads\": " << max_threads << ",\n"
      << indent << "  \"load_avg\": [" << loads[0] << ", " << loads[1] << ", "
      << loads[2] << "],\n"
      << indent << "  \"peak_rss_bytes\": " << peak_rss_bytes() << "\n"
      << indent << "}";
  return out.str();
}

std::string run_config_json(std::uint64_t fault_seed,
                            const std::string& indent) {
  std::ostringstream out;
  out << "{\n"
      << indent << "  \"fault_seed\": " << fault_seed << "\n"
      << indent << "}";
  return out.str();
}

CellResult run_cell(const TopologyCase& topo, App app, Approach approach) {
  const WorkloadBundle bundle = make_workload(topo, app, 2026);
  CellResult cell;
  const int replicas = replica_count();
  for (int r = 0; r < replicas; ++r) {
    mapping::Experiment experiment(make_setup(topo, bundle, r));
    const mapping::MappingResult mapped = experiment.map(approach);
    const mapping::RunMetrics metrics = experiment.run(mapped);
    cell.imbalance += metrics.load_imbalance;
    cell.emulation_time += metrics.emulation_time;
    cell.network_time += metrics.network_time;
    cell.lookahead += metrics.lookahead;
    cell.windows += static_cast<double>(metrics.windows);
    cell.remote_messages += static_cast<double>(metrics.remote_messages);
    cell.links_cut += mapped.links_cut;
  }
  const double n = replicas;
  cell.imbalance /= n;
  cell.emulation_time /= n;
  cell.network_time /= n;
  cell.lookahead /= n;
  cell.windows /= n;
  cell.remote_messages /= n;
  cell.links_cut /= n;
  return cell;
}

std::vector<CellResult> run_row(const TopologyCase& topo, App app) {
  std::vector<CellResult> row;
  for (Approach approach :
       {Approach::Top, Approach::Place, Approach::Profile})
    row.push_back(run_cell(topo, app, approach));
  return row;
}

}  // namespace massf::bench
