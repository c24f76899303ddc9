// The benchmark's three workloads, each driven through the public pipeline:
// topology -> RoutingView -> mapping::Experiment::map -> Experiment::run.
//
//   campus_profile — the paper's Campus network, ScaLapack foreground plus
//                    HTTP background (bench/common calibration), PROFILE
//                    mapping onto 3 LPs, GlobalWindow sync;
//   lb_fault       — the src/app two-tier LB scenario at the BENCH_lb size
//                    (1e5 users, ~20k req/s, peak-EWMA, reliable delivery)
//                    with a mid-run rack uplink outage, TOP onto 4 LPs,
//                    ChannelLookahead sync;
//   hier_cbr       — a ~1e5-node AS/pod hierarchy on the hierarchical
//                    routing backend, Poisson CBR flows between pods, TOP
//                    onto 4 LPs, GlobalWindow sync.
//
// Every run is single-threaded (ExecutionMode::Sequential).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/rpc.hpp"
#include "core/pipeline.hpp"
#include "probes.hpp"

namespace perfbench {

namespace mapping = massf::mapping;

enum class Workload { CampusProfile, LbFault, HierCbr };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

/// Instruments of the traced run. Absent (nullptr) in untraced runs.
struct Probes {
  SpanLog spans;
  LookupLog lookups;
  UpcallLog upcalls;
  /// Simulated times at which to cut the run into slice spans (quiescent
  /// safepoints installed from the emulator hook). Safepoints past the
  /// last event never fire.
  std::vector<double> slice_times;
  /// NetFlow records held by the emulator at the last slice safepoint.
  std::uint64_t netflow_records = 0;
  /// LookupLog::replay_ns of the run's sample (median of 5 passes).
  double lookup_ns = 0;
};

struct RunOptions {
  /// Reduced problem size for the benchmark's own tests.
  bool small = false;
  /// EmulatorConfig::collect_netflow for the measured run (the PROFILE
  /// profiling run always collects).
  bool collect_netflow = true;
  Probes* probes = nullptr;
  /// Stop at the emulator hook: only Outcome::setup_s is filled in.
  bool setup_only = false;
};

/// One pass through the pipeline.
struct Outcome {
  /// Wall seconds from the first topology call to the emulator hook, and
  /// from the hook until Experiment::run returned.
  double setup_s = 0;
  double run_s = 0;
  mapping::MappingResult mapping;
  mapping::RunMetrics metrics;
  int nodes = 0;
  int links = 0;
  std::size_t routing_memory_bytes = 0;
  /// lb_fault request accounting (zero elsewhere).
  massf::app::ClientCounters clients;
  massf::app::LbCounters lb;
  /// Failed operations over attempted ones (see README.md).
  double failed_frac = 0;
  /// Trains neither delivered nor dropped by the horizon.
  std::int64_t trains_in_flight = 0;
  /// Output checks that did not hold, one line each.
  std::vector<std::string> check_failures;
};

Outcome run_workload(Workload workload, std::uint64_t seed,
                     const RunOptions& options);

/// Experiment::run's body by hand under `mapped`, for the kernel counters
/// RunMetrics does not carry (the emulator dies inside Experiment::run).
massf::des::KernelStats run_kernel_only(Workload workload, std::uint64_t seed,
                                        const RunOptions& options,
                                        const mapping::MappingResult& mapped);

/// Max over mean of the per-engine kernel event counts.
double load_max_over_mean(const mapping::RunMetrics& metrics);

/// Every deterministic quantity of an outcome as `name=value` lines, in a
/// fixed order: two runs of one seed must produce the same string.
std::string fingerprint(const Outcome& outcome);

}  // namespace perfbench
