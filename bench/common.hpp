// Shared experiment configuration for the paper-reproduction benches.
//
// Every bench binary reproduces one table or figure of the paper using the
// calibration documented in DESIGN.md/EXPERIMENTS.md:
//   * engine cost model ~ paper-era 550 MHz PII engines running a
//     packet-level emulation stack (2 ms per 4-packet train event, 0.5 ms
//     per cross-engine message side, 1 ms window barrier);
//   * Table 1 topologies with ms-scale link latencies;
//   * HTTP background per §4.1.4 (200 KB requests, 10 clients per server,
//     server count scaled to the topology's host population);
//   * foreground applications: ScaLapack-like (10 hosts) and GridNPB-like
//     (HC+VP+MB workflow);
//   * measurements averaged over a few partition seeds (the paper's runs
//     average real-machine noise; our determinism needs explicit replicas).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "des/kernel.hpp"
#include "routing/routing.hpp"
#include "topology/topologies.hpp"
#include "traffic/workload.hpp"

namespace massf::bench {

/// One experimental network (Table 1 row, or the Table 2 large network).
struct TopologyCase {
  std::string name;
  topology::Network network;
  routing::RoutingTables routes;
  int engines = 0;
};

/// "Campus", "TeraGrid", "Brite" (Table 1) or "BriteLarge" (Table 2:
/// 200 routers / 364 hosts / 20 engines).
TopologyCase make_topology_case(const std::string& name);

/// The Table 1 grid in paper order.
std::vector<std::string> table1_names();

enum class App { Scalapack, GridNpb };
const char* app_name(App app);

/// Foreground app + scaled HTTP background, with the foreground's hosts
/// excluded from the background population.
struct WorkloadBundle {
  std::shared_ptr<traffic::CompositeWorkload> workload;
  std::vector<topology::NodeId> app_hosts;
};
WorkloadBundle make_workload(const TopologyCase& topo, App app,
                             std::uint64_t seed);

/// Calibrated ExperimentSetup for a topology/workload pair. `replica`
/// varies the partitioning seed only (workload placement stays fixed).
mapping::ExperimentSetup make_setup(const TopologyCase& topo,
                                    const WorkloadBundle& bundle,
                                    int replica);

/// Number of measurement replicas (averaged). Override with the
/// MASSF_BENCH_REPLICAS environment variable.
int replica_count();

/// Peak resident set size of this process so far, in bytes (ru_maxrss,
/// normalized across the Linux-KB/macOS-bytes divergence); 0 where
/// unavailable. Monotone over the process lifetime — sample after the
/// phase being measured, and remember earlier phases set the floor.
std::size_t peak_rss_bytes();

/// JSON object describing the host/build context a bench ran under: build
/// type, CPU count, widest worker pool the bench spawns (`max_threads`,
/// 0 = single-threaded), the 1/5/15-minute load averages (-1 where
/// unavailable), and the process peak RSS at the time the context was
/// stamped. Committed wall-clock numbers are uninterpretable without it —
/// stamp this into every bench JSON that records wall time. `indent`
/// prefixes every line after the first so the block nests at any depth.
std::string context_json(int max_threads, const std::string& indent);

/// JSON block of the reproducibility-relevant run configuration shared by
/// every config in a bench: the fault-plan RNG seed (0 = the run injected
/// no faults). Per-config sync/exec modes stay in the per-config entries;
/// this block carries what they all share. `indent` prefixes every line
/// after the first, like context_json.
std::string run_config_json(std::uint64_t fault_seed,
                            const std::string& indent);

/// Averaged measurements of one (topology, app, approach) cell.
struct CellResult {
  double imbalance = 0;
  double emulation_time = 0;   // application emulation time (Fig 6/7)
  double network_time = 0;     // isolated engine time
  double lookahead = 0;
  double windows = 0;
  double remote_messages = 0;
  double links_cut = 0;
};

/// Run one cell: map with `approach` and execute, averaged over replicas.
CellResult run_cell(const TopologyCase& topo, App app,
                    mapping::Approach approach);

/// All three approaches for one topology/app (shares nothing across
/// approaches except the deterministic workload).
std::vector<CellResult> run_row(const TopologyCase& topo, App app);

}  // namespace massf::bench
