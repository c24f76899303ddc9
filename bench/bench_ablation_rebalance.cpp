// Ablation A8: static mapping vs the adaptive rebalance loop on a
// *drifting* workload (DESIGN.md §10).
//
// The scenario the static approaches cannot win: a ScaLapack-like app on
// one host cluster dominates the first half of the run (its iterations
// shrink and it finishes), then a GridNPB-like workflow on a *disjoint*
// host cluster dominates the second half. Any single static mapping —
// even PROFILE's, computed from a profiling run that saw the whole drift —
// must average the two regimes; the rebalance controller re-maps at a
// safepoint once the observed per-engine event rates drift, so each
// segment runs close to its own best partition.
//
// Each approach runs the same deterministic workload on the campus
// topology with 3 engines; ADAPTIVE is PROFILE's static mapping plus a
// rebalance::Controller wired in via Experiment::set_emulator_hook(). The
// modeled max/mean engine-load imbalance is reported for the whole run and
// per segment, alongside the migration counters from RunMetrics. The
// binary exits non-zero unless ADAPTIVE actually migrated and reduced both
// the post-drift (segment 2) and whole-run imbalance vs static PROFILE.
//
//   $ ./bench_ablation_rebalance [BENCH_rebalance.json]
//
// bench/run.sh rebalance builds Release and records the JSON (the
// imbalance columns are modeled and build-independent, but the file must
// never look authoritative when assertions are enabled).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "rebalance/rebalancer.hpp"
#include "traffic/gridnpb.hpp"
#include "traffic/scalapack.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace massf;

constexpr double kHorizon = 120.0;
constexpr double kSegmentSplit = 60.0;

struct ApproachResult {
  std::string name;
  double imbalance_total = 0;  // max/mean of whole-run engine events
  double imbalance_seg1 = 0;   // max/mean over [0, split)
  double imbalance_seg2 = 0;   // max/mean over [split, horizon)
  double emulation_time = 0;
  std::uint64_t safepoints = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t nodes_migrated = 0;
  double migration_bytes = 0;
  std::uint64_t events_rehomed = 0;
};

/// Front-loaded ScaLapack on one host cluster, long-running GridNPB on a
/// disjoint cluster: per-engine event rates drift mid-run by construction.
std::shared_ptr<traffic::CompositeWorkload> make_drifting_workload(
    const bench::TopologyCase& topo) {
  const std::vector<topology::NodeId> hosts = topo.network.hosts();
  const std::vector<topology::NodeId> lu_hosts(hosts.begin(),
                                               hosts.begin() + 10);
  const std::vector<topology::NodeId> npb_hosts(hosts.end() - 8, hosts.end());

  auto workload = std::make_shared<traffic::CompositeWorkload>();
  traffic::ScalapackParams lu;
  lu.matrix_n = 1500;
  lu.block_nb = 100;
  lu.total_compute_s = 40;  // iterations shrink and finish before the split
  workload->add(std::make_shared<traffic::ScalapackApp>(lu_hosts, lu));

  traffic::GridNpbParams npb;
  npb.rounds = 10;  // chained instances keep going well past the split
  npb.unit_bytes = 2.5e6;
  npb.unit_compute_s = 6.0;
  workload->add(std::make_shared<traffic::WorkflowApp>(
      traffic::make_gridnpb(npb_hosts, npb)));
  return workload;
}

/// Sum engine_series buckets whose start time lies in [from, to) and
/// return max/mean across engines.
double segment_imbalance(const mapping::RunMetrics& metrics, double from,
                         double to) {
  std::vector<double> loads(metrics.engine_series.size(), 0.0);
  for (std::size_t e = 0; e < metrics.engine_series.size(); ++e)
    for (std::size_t b = 0; b < metrics.engine_series[e].size(); ++b) {
      const double t = static_cast<double>(b) * metrics.bucket_width;
      if (t >= from && t < to) loads[e] += metrics.engine_series[e][b];
    }
  return max_over_mean(loads);
}

ApproachResult fill(std::string name, const mapping::RunMetrics& metrics) {
  ApproachResult r;
  r.name = std::move(name);
  r.imbalance_total = max_over_mean(metrics.engine_events);
  r.imbalance_seg1 = segment_imbalance(metrics, 0, kSegmentSplit);
  r.imbalance_seg2 = segment_imbalance(metrics, kSegmentSplit, kHorizon);
  r.emulation_time = metrics.emulation_time;
  r.safepoints = metrics.rebalance_safepoints;
  r.rebalances = metrics.rebalances;
  r.nodes_migrated = metrics.nodes_migrated;
  r.migration_bytes = metrics.migration_bytes;
  r.events_rehomed = metrics.events_rehomed;
  return r;
}

void write_json(std::ostream& out, const std::vector<ApproachResult>& all,
                const std::string& context, const std::string& run_config,
                double seg2_ratio, double total_ratio, bool ok) {
  out << "{\n  \"benchmark\": \"bench_ablation_rebalance\",\n"
      << "  \"build_type\": \"release\",\n"
      << "  \"context\": " << context << ",\n"
      << "  \"run_config\": " << run_config << ",\n"
      << "  \"workload\": \"drifting scalapack->gridnpb on campus, 3 "
         "engines\",\n"
      << "  \"horizon_s\": " << kHorizon << ",\n"
      << "  \"segment_split_s\": " << kSegmentSplit << ",\n"
      << "  \"imbalance_metric\": \"max/mean engine kernel events\",\n"
      << "  \"adaptive_over_profile_seg2\": " << seg2_ratio << ",\n"
      << "  \"adaptive_over_profile_total\": " << total_ratio << ",\n"
      << "  \"accept\": " << (ok ? "true" : "false") << ",\n"
      << "  \"approaches\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const ApproachResult& r = all[i];
    out << "    {\"name\": \"" << r.name
        << "\", \"imbalance_total\": " << r.imbalance_total
        << ", \"imbalance_seg1\": " << r.imbalance_seg1
        << ", \"imbalance_seg2\": " << r.imbalance_seg2
        << ", \"emulation_time_s\": " << r.emulation_time
        << ", \"safepoints\": " << r.safepoints
        << ", \"rebalances\": " << r.rebalances
        << ", \"nodes_migrated\": " << r.nodes_migrated
        << ", \"migration_bytes\": " << r.migration_bytes
        << ", \"events_rehomed\": " << r.events_rehomed << "}"
        << (i + 1 < all.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  (void)argc;
  (void)argv;
  std::cerr << "bench_ablation_rebalance: refusing to record results from a "
               "debug build. Build Release — see "
               "bench/run.sh rebalance.\n";
  return 1;
#else
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_rebalance.json";
  std::cout << "=== Ablation: adaptive rebalancing on a drifting workload "
               "===\n(ScaLapack finishes mid-run, GridNPB on disjoint hosts "
               "keeps going; campus, 3 engines)\n\n";

  const bench::TopologyCase topo = bench::make_topology_case("Campus");
  bench::WorkloadBundle bundle;
  bundle.workload = make_drifting_workload(topo);

  // Calibrated engine cost model and deep buffers (a dropped workflow edge
  // would stall its successor task forever), with this ablation's horizon
  // and the per-channel sync protocol on top.
  mapping::ExperimentSetup setup = bench::make_setup(topo, bundle, 0);
  setup.horizon = kHorizon;
  setup.emulator.sync_mode = des::SyncMode::ChannelLookahead;
  mapping::Experiment experiment(std::move(setup));

  std::vector<ApproachResult> all;
  for (auto approach : {mapping::Approach::Top, mapping::Approach::Place,
                        mapping::Approach::Profile}) {
    std::cerr << "  " << mapping::approach_name(approach) << "...\n";
    const mapping::MappingResult mapped = experiment.map(approach);
    all.push_back(fill(mapping::approach_name(approach),
                       experiment.run(mapped)));
  }

  // ADAPTIVE: start from PROFILE's static mapping (cached above) and let
  // the controller re-map at safepoints as the observed rates drift.
  std::cerr << "  ADAPTIVE...\n";
  rebalance::RebalanceConfig rcfg;
  rcfg.start_s = 40.0;  // two monitor windows of history before acting
  rcfg.period_s = 10.0;
  rcfg.window_s = 20.0;
  rcfg.policy.trigger = 0.2;
  rcfg.policy.hysteresis = 2;  // sustained drift only, not transients
  rcfg.policy.cooldown_s = 20.0;
  rebalance::Controller controller(topo.network, topo.routes, rcfg);
  experiment.set_emulator_hook(
      [&controller](emu::Emulator& emulator, double horizon) {
        controller.install(emulator, horizon);
      });
  const mapping::MappingResult profile_mapping =
      experiment.map(mapping::Approach::Profile);
  all.push_back(fill("ADAPTIVE", experiment.run(profile_mapping)));

  Table table({"approach", "imbalance", "seg1", "seg2", "emu time (s)",
               "migrations", "nodes", "bytes"});
  for (const ApproachResult& r : all)
    table.row()
        .cell(r.name)
        .cell(r.imbalance_total)
        .cell(r.imbalance_seg1)
        .cell(r.imbalance_seg2)
        .cell(r.emulation_time, 1)
        .cell(static_cast<long long>(r.rebalances))
        .cell(static_cast<long long>(r.nodes_migrated))
        .cell(r.migration_bytes, 0);
  table.print(std::cout);

  const ApproachResult& profile = all[2];
  const ApproachResult& adaptive = all[3];
  const double seg2_ratio = adaptive.imbalance_seg2 / profile.imbalance_seg2;
  const double total_ratio =
      adaptive.imbalance_total / profile.imbalance_total;
  const bool ok = adaptive.rebalances >= 1 &&
                  adaptive.imbalance_seg2 < profile.imbalance_seg2 &&
                  adaptive.imbalance_total < profile.imbalance_total;
  std::cout << "\nadaptive/profile imbalance: seg2 " << seg2_ratio
            << ", whole run " << total_ratio << ", " << adaptive.rebalances
            << " migration(s)\n";

  std::ofstream out(out_path);
  // No fault plan in this ablation, so the recorded fault seed is 0.
  write_json(out, all, bench::context_json(topo.engines, "  "),
             bench::run_config_json(0, "  "),
             seg2_ratio, total_ratio, ok);
  std::cout << "wrote " << out_path << "\n";
  if (!ok)
    std::cerr << "bench_ablation_rebalance: acceptance checks FAILED (need "
                 ">= 1 migration and adaptive < PROFILE imbalance on seg2 "
                 "and the whole run)\n";
  return ok ? 0 : 1;
#endif
}
