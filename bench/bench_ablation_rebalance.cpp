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
// per segment, alongside the migration counters from RunMetrics. Gates
// (bench::Report; the exit status is 0 only if all pass): ADAPTIVE
// migrated at least once and reduced both the post-drift (segment 2) and
// whole-run imbalance vs static PROFILE.
//
//   $ ./bench_ablation_rebalance [BENCH_rebalance.json]
//
// bench/run.sh rebalance builds Release and records the JSON.
#include <cstdint>
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

bench::Json to_json(const ApproachResult& r) {
  return bench::Json()
      .add("name", r.name)
      .add("imbalance_total", r.imbalance_total)
      .add("imbalance_seg1", r.imbalance_seg1)
      .add("imbalance_seg2", r.imbalance_seg2)
      .add("emulation_time_s", r.emulation_time)
      .add("safepoints", r.safepoints)
      .add("rebalances", r.rebalances)
      .add("nodes_migrated", r.nodes_migrated)
      .add("migration_bytes", r.migration_bytes)
      .add("events_rehomed", r.events_rehomed);
}

}  // namespace

int main(int argc, char** argv) {
  // The runs are Sequential; the widest pool is the mapper's four
  // partition trials (make_setup), fanned out over the usable CPUs.
  bench::Report report("rebalance", 4);
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
  report.run_config.add("workload",
                        "drifting scalapack->gridnpb on campus")
      .add("engines", topo.engines)
      .add("horizon_s", kHorizon)
      .add("segment_split_s", kSegmentSplit)
      .add("imbalance_metric", "max/mean engine kernel events")
      .add("rebalance_start_s", rcfg.start_s)
      .add("rebalance_period_s", rcfg.period_s)
      .add("rebalance_window_s", rcfg.window_s)
      .add("trigger", rcfg.policy.trigger)
      .add("hysteresis", rcfg.policy.hysteresis)
      .add("cooldown_s", rcfg.policy.cooldown_s);
  bench::Json approaches = bench::Json::array();
  for (const ApproachResult& r : all) approaches.push(to_json(r));
  report.results.add("approaches", std::move(approaches));
  report.gate("migrations/adaptive", static_cast<double>(adaptive.rebalances),
              1, true, adaptive.rebalances >= 1,
              "ADAPTIVE migrations >= 1");
  report.gate("imbalance_seg2/adaptive", adaptive.imbalance_seg2,
              profile.imbalance_seg2, true,
              adaptive.imbalance_seg2 < profile.imbalance_seg2,
              "ADAPTIVE segment-2 imbalance < PROFILE's (the threshold)");
  report.gate("imbalance_total/adaptive", adaptive.imbalance_total,
              profile.imbalance_total, true,
              adaptive.imbalance_total < profile.imbalance_total,
              "ADAPTIVE whole-run imbalance < PROFILE's (the threshold)");
  return report.write(out_path);
}
