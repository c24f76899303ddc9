// Million-node scalability bench (EXPERIMENTS.md Table 2 extension).
//
// For target scales 10^3 / 10^4 / 10^5 / 10^6 nodes, measures wall time
// and memory for the three setup phases that dominate large runs:
//   build      — make_hierarchy topology generation (+ validation),
//   route      — HierarchicalRoutingTables::build,
//   partition  — partition_hierarchical (coarsen-once) on the node graph,
// plus the process peak RSS after each scale. Writes BENCH_scale.json.
//
// Acceptance checks (exit status):
//   * at 10^5 nodes: hierarchical routing memory <= 10% of the dense n²
//     projection (RoutingTables::projected_bytes) — the clause that makes
//     the memory claim enforceable rather than narrative;
//   * at 10^3 nodes: a dense table is actually built and every (src, dst)
//     next hop / next link matches the hierarchical backend bit-for-bit
//     (unique shortest paths via the generator's latency jitter);
//   * every partition is complete and within 2x of the balance target.
//
// MASSF_SCALE_MAX_NODES caps the largest scale for CI smoke runs
// (e.g. 100000). The full 10^6 point needs ~2 GB RSS and a few minutes.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "partition/partition.hpp"
#include "routing/hierarchical.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ScaleResult {
  std::int64_t target = 0;
  int nodes = 0;
  int links = 0;
  int domains = 0;
  int borders = 0;
  double build_s = 0;
  double route_s = 0;
  double partition_s = 0;
  int parts = 0;
  double edge_cut = 0;
  double worst_balance = 0;
  std::size_t routing_memory_bytes = 0;
  std::size_t dense_projected_bytes = 0;
  std::size_t peak_rss_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "bench_scale: refusing to record wall time from a non-Release "
               "build\n";
  return 1;
#endif
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";

  std::int64_t max_nodes = 1000000;
  if (const char* env = std::getenv("MASSF_SCALE_MAX_NODES")) {
    const std::int64_t cap = std::atoll(env);
    if (cap > 0) max_nodes = cap;
  }
  std::vector<std::int64_t> targets;
  for (const std::int64_t t : {1000LL, 10000LL, 100000LL, 1000000LL})
    if (t <= max_nodes) targets.push_back(t);

  bool ok = true;
  std::vector<ScaleResult> results;
  for (const std::int64_t target : targets) {
    ScaleResult r;
    r.target = target;
    const auto params = massf::topology::hierarchy_params_for_nodes(target);

    auto t0 = Clock::now();
    const massf::topology::Network net = massf::topology::make_hierarchy(params);
    r.build_s = seconds_since(t0);
    r.nodes = net.node_count();
    r.links = net.link_count();
    r.domains = net.domain_count();

    t0 = Clock::now();
    const auto routes = massf::routing::HierarchicalRoutingTables::build(net);
    r.route_s = seconds_since(t0);
    r.borders = routes.border_count();
    r.routing_memory_bytes = routes.memory_bytes();
    r.dense_projected_bytes =
        massf::routing::RoutingTables::projected_bytes(net.node_count());

    // Engine count grows sub-linearly with the network, like Table 2.
    r.parts = target <= 1000 ? 8 : target <= 10000 ? 16 : 32;
    massf::partition::PartitionOptions popts;
    popts.parts = r.parts;
    popts.seed = 7;
    t0 = Clock::now();
    const auto part = massf::partition::partition_hierarchical(
        net.to_graph(), net.domain_of_nodes(), popts);
    r.partition_s = seconds_since(t0);
    r.edge_cut = part.edge_cut;
    r.worst_balance = part.worst_balance;
    if (part.worst_balance > 2.0) {
      std::cerr << "FAIL: partition at " << target << " nodes has balance "
                << part.worst_balance << " (> 2.0)\n";
      ok = false;
    }

    if (target == 100000) {
      const double ratio = static_cast<double>(r.routing_memory_bytes) /
                           static_cast<double>(r.dense_projected_bytes);
      if (ratio > 0.10) {
        std::cerr << "FAIL: hierarchical routing at 1e5 nodes uses "
                  << r.routing_memory_bytes << " bytes = " << ratio * 100
                  << "% of the dense projection (clause: <= 10%)\n";
        ok = false;
      }
    }

    if (target == 1000) {
      // Bit-identity vs the dense backend, every (src, dst) pair. The
      // generator's latency jitter makes shortest paths unique, so the
      // hierarchical argmin must reproduce dense's Dijkstra exactly.
      const auto dense = massf::routing::RoutingTables::build(net);
      std::int64_t mismatches = 0;
      for (massf::topology::NodeId s = 0; s < net.node_count(); ++s)
        for (massf::topology::NodeId t = 0; t < net.node_count(); ++t)
          if (routes.next_hop(s, t) != dense.next_hop(s, t) ||
              routes.next_link(s, t) != dense.next_link(s, t))
            ++mismatches;
      if (mismatches != 0) {
        std::cerr << "FAIL: " << mismatches
                  << " next-hop/next-link mismatches vs dense at 1e3 nodes\n";
        ok = false;
      }
    }

    r.peak_rss_bytes = massf::bench::peak_rss_bytes();
    std::cout << "scale " << target << ": " << r.nodes << " nodes, "
              << r.domains << " domains, " << r.borders << " borders | build "
              << r.build_s << " s, route " << r.route_s << " s, partition "
              << r.partition_s << " s | routing "
              << r.routing_memory_bytes / 1.0e6 << " MB vs dense projection "
              << r.dense_projected_bytes / 1.0e6 << " MB | peak RSS "
              << r.peak_rss_bytes / 1.0e6 << " MB\n";
    results.push_back(r);
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"scale\",\n"
      << "  \"context\": " << massf::bench::context_json(0, "  ") << ",\n"
      // Setup-phase bench: no kernel runs and no fault plan, so the run
      // config records a zero fault seed.
      << "  \"run_config\": " << massf::bench::run_config_json(0, "  ")
      << ",\n"
      << "  \"scales\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    out << "    {\n"
        << "      \"target_nodes\": " << r.target << ",\n"
        << "      \"nodes\": " << r.nodes << ",\n"
        << "      \"links\": " << r.links << ",\n"
        << "      \"domains\": " << r.domains << ",\n"
        << "      \"borders\": " << r.borders << ",\n"
        << "      \"build_s\": " << r.build_s << ",\n"
        << "      \"route_s\": " << r.route_s << ",\n"
        << "      \"partition_s\": " << r.partition_s << ",\n"
        << "      \"parts\": " << r.parts << ",\n"
        << "      \"edge_cut\": " << r.edge_cut << ",\n"
        << "      \"worst_balance\": " << r.worst_balance << ",\n"
        << "      \"routing_memory_bytes\": " << r.routing_memory_bytes
        << ",\n"
        << "      \"dense_projected_bytes\": " << r.dense_projected_bytes
        << ",\n"
        << "      \"memory_vs_dense\": "
        << static_cast<double>(r.routing_memory_bytes) /
               static_cast<double>(r.dense_projected_bytes)
        << ",\n"
        << "      \"peak_rss_bytes\": " << r.peak_rss_bytes << "\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"checks_passed\": " << (ok ? "true" : "false") << "\n}\n";
  out.close();

  std::cout << (ok ? "PASS" : "FAIL") << ": wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
