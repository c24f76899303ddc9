#include "bench/common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "traffic/gridnpb.hpp"
#include "traffic/http.hpp"
#include "traffic/scalapack.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace massf::bench {

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

namespace {

Json context(int max_threads) {
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
  const int cpus = static_cast<int>(util::usable_cpus());
  return Json()
      .add("build_type", build)
      .add("num_cpus", cpus)
      .add("max_threads", std::min(max_threads, cpus))
      .add("load_avg", Json::array({loads[0], loads[1], loads[2]}))
      .add("peak_rss_bytes", peak_rss_bytes());
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escape[8];
      std::snprintf(escape, sizeof escape, "\\u%04x", c);
      out += escape;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string context_json(int max_threads, const std::string& indent) {
  return context(max_threads).dump(indent);
}

Json::Json(bool value) : kind_(Kind::Scalar), text_(value ? "true" : "false") {}

Json::Json(double value) : kind_(Kind::Scalar), text_("null") {
  if (!std::isfinite(value)) return;
  // Six significant digits: enough for a measurement, short to read.
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof buffer, value,
                                 std::chars_format::general, 6)
                       .ptr;
  text_.assign(buffer, end);
}

Json::Json(const char* value) : Json(std::string(value)) {}

Json::Json(const std::string& value)
    : kind_(Kind::Scalar), text_(quoted(value)) {}

Json Json::array(std::initializer_list<Json> items) {
  Json out;
  out.kind_ = Kind::Array;
  for (const Json& item : items) out.push(item);
  return out;
}

Json& Json::add(const std::string& key, Json value) {
  MASSF_CHECK(kind_ != Kind::Scalar, "cannot add a member to a scalar");
  members_.emplace_back(key, std::move(value));
  return *this;
}

std::string Json::dump(const std::string& indent) const {
  if (kind_ == Kind::Scalar) return text_;
  const bool flat = std::all_of(members_.begin(), members_.end(),
                                [](const auto& m) {
                                  return m.second.kind_ == Kind::Scalar;
                                });
  const std::string inner = indent + "  ";
  std::string out = kind_ == Kind::Array ? "[" : "{";
  for (std::size_t i = 0; i < members_.size(); ++i) {
    out += i == 0 ? "" : ",";
    out += flat ? (i == 0 ? "" : " ") : "\n" + inner;
    if (kind_ == Kind::Object) out += quoted(members_[i].first) + ": ";
    out += members_[i].second.dump(inner);
  }
  if (!flat) out += "\n" + indent;
  return out + (kind_ == Kind::Array ? "]" : "}");
}

Report::Report(std::string bench, int max_threads)
    : bench_(std::move(bench)), max_threads_(max_threads) {
#ifndef NDEBUG
  std::cerr << "bench " << bench_
            << ": refusing to record results from a build with assertions "
               "on; build Release (bench/run.sh "
            << bench_ << ")\n";
  std::exit(1);
#endif
}

void Report::gate(const std::string& name, double value, double threshold,
                  bool enforced, bool passed, const std::string& reason) {
  gates_.push(Json()
                  .add("name", name)
                  .add("value", value)
                  .add("threshold", threshold)
                  .add("enforced", enforced)
                  .add("passed", passed)
                  .add("reason", reason));
  if (enforced) {
    ++enforced_;
    passed_ = passed_ && passed;
  }
  std::cout << (!enforced ? "SKIP " : passed ? "PASS " : "FAIL ") << name
            << ": " << value << " vs " << threshold << " (" << reason
            << ")\n";
}

int Report::write(const std::string& path) const {
  const bool passed = passed_ && enforced_ > 0;
  if (enforced_ == 0)
    std::cout << "FAIL: no gate was enforced, so this run checked nothing\n";
  const Json file = Json()
                        .add("bench", bench_)
                        .add("context", context(max_threads_))
                        .add("run_config", run_config)
                        .add("results", results)
                        .add("gates", gates_)
                        .add("passed", passed);
  std::ofstream out(path);
  out << file.dump() << "\n";
  out.close();
  if (!out) {
    std::cerr << "bench " << bench_ << ": could not write " << path << "\n";
    return 1;
  }
  std::cout << (passed ? "PASS" : "FAIL") << ": wrote " << path << "\n";
  return passed ? 0 : 1;
}

}  // namespace massf::bench
