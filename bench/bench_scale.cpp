// Million-node scalability bench (EXPERIMENTS.md Table 2 extension).
//
// For target scales 10^3 / 10^4 / 10^5 / 10^6 nodes, measures wall time
// and memory for the three setup phases that dominate large runs:
//   build      — make_hierarchy topology generation (+ validation),
//   route      — HierarchicalRoutingTables::build,
//   partition  — partition_hierarchical (coarsen-once) on the node graph,
// plus the process peak RSS after each scale. Writes BENCH_scale.json.
//
// Gates (bench::Report; the exit status is 0 only if all pass):
//   * at 10^5 nodes: hierarchical routing memory <= 10% of the dense n²
//     projection (RoutingTables::projected_bytes) — the clause that makes
//     the memory claim enforceable rather than narrative;
//   * at 10^3 nodes: a dense table is actually built and every (src, dst)
//     next hop / next link matches the hierarchical backend bit-for-bit
//     (unique shortest paths via the generator's latency jitter);
//   * every partition is within 2x of the balance target.
// A scale above the MASSF_SCALE_MAX_NODES cap is not run, and its gate is
// recorded as not enforced.
//
// MASSF_SCALE_MAX_NODES caps the largest scale for CI smoke runs
// (e.g. 100000). The full 10^6 point needs ~2 GB RSS and a few minutes.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "partition/partition.hpp"
#include "routing/hierarchical.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "util/parallel.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using massf::bench::Json;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  // Route builds and partition trials fan out over every usable CPU.
  massf::bench::Report report(
      "scale", static_cast<int>(massf::util::usable_cpus()));
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";

  std::int64_t max_nodes = 1000000;
  if (const char* env = std::getenv("MASSF_SCALE_MAX_NODES")) {
    const std::int64_t cap = std::atoll(env);
    if (cap > 0) max_nodes = cap;
  }
  constexpr std::uint64_t kPartitionSeed = 7;
  report.run_config.add("max_nodes", max_nodes)
      .add("partition_seed", kPartitionSeed);

  // The two single-scale clauses; enforced only when their scale runs.
  double memory_vs_dense_1e5 = 0;
  double mismatches_1e3 = 0;

  Json scales = Json::array();
  for (const std::int64_t target : {1000LL, 10000LL, 100000LL, 1000000LL}) {
    if (target > max_nodes) continue;
    const auto params = massf::topology::hierarchy_params_for_nodes(target);

    auto t0 = Clock::now();
    const massf::topology::Network net = massf::topology::make_hierarchy(params);
    const double build_s = seconds_since(t0);

    t0 = Clock::now();
    const auto routes = massf::routing::HierarchicalRoutingTables::build(net);
    const double route_s = seconds_since(t0);
    const std::size_t routing_bytes = routes.memory_bytes();
    const std::size_t dense_bytes =
        massf::routing::RoutingTables::projected_bytes(net.node_count());
    const double memory_vs_dense = static_cast<double>(routing_bytes) /
                                   static_cast<double>(dense_bytes);

    // Engine count grows sub-linearly with the network, like Table 2.
    massf::partition::PartitionOptions popts;
    popts.parts = target <= 1000 ? 8 : target <= 10000 ? 16 : 32;
    popts.seed = kPartitionSeed;
    t0 = Clock::now();
    const auto part = massf::partition::partition_hierarchical(
        net.to_graph(), net.domain_of_nodes(), popts);
    const double partition_s = seconds_since(t0);
    report.gate("balance/" + std::to_string(target), part.worst_balance, 2.0,
                true, part.worst_balance <= 2.0,
                "worst partition balance <= 2.0");

    if (target == 100000) memory_vs_dense_1e5 = memory_vs_dense;

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
      mismatches_1e3 = static_cast<double>(mismatches);
    }

    const std::size_t rss = massf::bench::peak_rss_bytes();
    std::cout << "scale " << target << ": " << net.node_count() << " nodes, "
              << net.domain_count() << " domains, " << routes.border_count()
              << " borders | build " << build_s << " s, route " << route_s
              << " s, partition " << partition_s << " s | routing "
              << routing_bytes / 1.0e6 << " MB vs dense projection "
              << dense_bytes / 1.0e6 << " MB | peak RSS " << rss / 1.0e6
              << " MB\n";
    scales.push(Json()
                    .add("target_nodes", target)
                    .add("nodes", net.node_count())
                    .add("links", net.link_count())
                    .add("domains", net.domain_count())
                    .add("borders", routes.border_count())
                    .add("build_s", build_s)
                    .add("route_s", route_s)
                    .add("partition_s", partition_s)
                    .add("parts", popts.parts)
                    .add("edge_cut", part.edge_cut)
                    .add("worst_balance", part.worst_balance)
                    .add("routing_memory_bytes", routing_bytes)
                    .add("dense_projected_bytes", dense_bytes)
                    .add("memory_vs_dense", memory_vs_dense)
                    .add("peak_rss_bytes", rss));
  }
  report.results.add("scales", std::move(scales));
  const std::string capped = "; not run: above MASSF_SCALE_MAX_NODES";
  const bool ran_1e5 = max_nodes >= 100000;
  report.gate("routing_memory_vs_dense/100000", memory_vs_dense_1e5, 0.10,
              ran_1e5, ran_1e5 && memory_vs_dense_1e5 <= 0.10,
              std::string("hierarchical routing memory <= 10% of the dense "
                          "projection") +
                  (ran_1e5 ? "" : capped));
  const bool ran_1e3 = max_nodes >= 1000;
  report.gate("next_hop_mismatches/1000", mismatches_1e3, 0, ran_1e3,
              ran_1e3 && mismatches_1e3 == 0,
              std::string("next hop and next link identical to dense for "
                          "every pair") +
                  (ran_1e3 ? "" : capped));
  return report.write(out_path);
}
