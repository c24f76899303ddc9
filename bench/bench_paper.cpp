// Reproduces the paper's evaluation (§4: Tables 1-2, Figures 2 and 4-10)
// in one pass, prints one section per artifact (DESIGN.md §3) and records
// it in BENCH_paper.json.
//
// Each (topology, app, replica) is one mapping::Experiment. TOP, PLACE and
// PROFILE are mapped once each; PROFILE's mapping includes its profiling
// run. Each mapping then runs once, and the TOP run records the application
// trace, which is replayed under all three mappings. Table 2's BriteLarge
// cell has no replays. Figures 2 and 8 read the TOP and PROFILE runs of
// Campus GridNPB replica 0. Every other number is the mean over
// MASSF_BENCH_REPLICAS partition seeds (default 3).
//
// Gates (bench::Report; the exit status is 0 only if every enforced one
// passes):
//   * per cell (the six Table 1 cells and BriteLarge ScaLapack): imbalance
//     PLACE < TOP and PROFILE < TOP; modeled emulation time PROFILE <= TOP;
//     replay network time PROFILE <= TOP (Table 1 cells only);
//   * Table 1 router/host/engine counts equal the paper's;
//   * Figure 8: mean interval imbalance PROFILE < TOP;
//   * Figure 2: segment clustering finds segments dominated by >= 2
//     different engines.
// Imbalance PROFILE <= PLACE is recorded per cell but not enforced: on
// TeraGrid PLACE balances better than PROFILE for both apps.
#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "emu/trace.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace massf;
using bench::App;
using bench::Json;
using Clock = std::chrono::steady_clock;

constexpr std::array<mapping::Approach, 3> kApproaches = {
    mapping::Approach::Top, mapping::Approach::Place,
    mapping::Approach::Profile};
constexpr std::array<const char*, 3> kApproachNames = {"TOP", "PLACE",
                                                       "PROFILE"};
constexpr std::uint64_t kWorkloadSeed = 2026;

/// The paper's Table 1, in paper order.
struct PaperSetup {
  const char* topology;
  int routers, hosts, engines;
};
constexpr PaperSetup kTable1[] = {
    {"Campus", 20, 40, 3}, {"TeraGrid", 27, 150, 5}, {"Brite", 160, 132, 8}};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One approach's measurements in one cell, averaged over the replicas.
struct Measured {
  double imbalance = 0;
  double emulation_time = 0;  // modeled application emulation time
  double network_time = 0;    // modeled engine time of the live run
  double replay_time = 0;     // modeled engine time of the trace replay
  double lookahead = 0;
  double windows = 0;
  double remote_messages = 0;
  double links_cut = 0;
  double run_wall_s = 0;      // measured wall seconds of the live run
};

/// One (topology, app) cell: TOP, PLACE, PROFILE in that order.
struct Cell {
  std::string topology;
  App app = App::Scalapack;
  int engines = 0;
  bool replays = false;
  std::array<Measured, 3> by{};
  double wall_s = 0;  // every map, run and replay of the cell
};

/// Appends replica 0's TOP, PLACE and PROFILE runs to `first_runs` unless
/// it is null.
Cell run_cell(const bench::TopologyCase& topo, App app, bool replays,
              std::vector<mapping::RunMetrics>* first_runs) {
  const auto start = Clock::now();
  const bench::WorkloadBundle bundle =
      bench::make_workload(topo, app, kWorkloadSeed);
  Cell cell{topo.name, app, topo.engines, replays};
  const int replicas = bench::replica_count();
  for (int r = 0; r < replicas; ++r) {
    mapping::Experiment experiment(bench::make_setup(topo, bundle, r));
    std::array<mapping::MappingResult, 3> mapped;
    for (std::size_t a = 0; a < 3; ++a)
      mapped[a] = experiment.map(kApproaches[a]);

    emu::Trace trace;
    for (std::size_t a = 0; a < 3; ++a) {
      const auto run_start = Clock::now();
      const mapping::RunMetrics metrics = experiment.run(
          mapped[a], replays && a == 0 ? &trace : nullptr);
      Measured& m = cell.by[a];
      m.run_wall_s += seconds_since(run_start);
      m.imbalance += metrics.load_imbalance;
      m.emulation_time += metrics.emulation_time;
      m.network_time += metrics.network_time;
      m.lookahead += metrics.lookahead;
      m.windows += static_cast<double>(metrics.windows);
      m.remote_messages += static_cast<double>(metrics.remote_messages);
      m.links_cut += mapped[a].links_cut;
      if (first_runs != nullptr && r == 0) first_runs->push_back(metrics);
    }
    if (replays)
      for (std::size_t a = 0; a < 3; ++a)
        cell.by[a].replay_time +=
            experiment.replay(trace, mapped[a]).network_time;
  }
  const double n = replicas;
  for (Measured& m : cell.by)
    for (double* field :
         {&m.imbalance, &m.emulation_time, &m.network_time, &m.replay_time,
          &m.lookahead, &m.windows, &m.remote_messages, &m.links_cut,
          &m.run_wall_s})
      *field /= n;
  cell.wall_s = seconds_since(start);
  return cell;
}

/// `topologies` starts with kTable1's, in its order.
void print_table1(const std::vector<bench::TopologyCase>& topologies) {
  std::cout << "=== Table 1: Network Topology Setup ===\n\n";
  Table table({"Network Topology", "Router", "Host", "Emulation Engine Node",
               "Links", "ASes", "min latency (ms)", "max latency (ms)"});
  for (std::size_t t = 0; t < std::size(kTable1); ++t) {
    const bench::TopologyCase& topo = topologies[t];
    double max_latency = 0;
    for (topology::LinkId l = 0; l < topo.network.link_count(); ++l)
      max_latency = std::max(max_latency, topo.network.link(l).latency_s);
    table.row()
        .cell(topo.name)
        .cell(topo.network.router_count())
        .cell(topo.network.host_count())
        .cell(topo.engines)
        .cell(static_cast<int>(topo.network.link_count()))
        .cell(topo.network.as_count())
        .cell(topo.network.min_link_latency() * 1e3, 2)
        .cell(max_latency * 1e3, 2);
  }
  table.print(std::cout);
  std::cout << "\npaper Table 1: Campus 20/40/3, TeraGrid 27/150/5, "
               "Brite 160/132/8\n\n";
}

void print_fig2(const mapping::RunMetrics& top,
                const std::vector<mapping::Segment>& segments) {
  std::cout << "=== Figure 2: Load Variation Over the Lifetime of an "
               "Emulation ===\n"
            << "(GridNPB on Campus, TOP mapping; kernel events per engine "
               "per 20 s of simulation)\n\n";
  // Downsample the 2 s buckets to 20 s columns for a readable table.
  const auto& series = top.engine_series;
  const std::size_t buckets = series.empty() ? 0 : series.front().size();
  const std::size_t stride = 10;

  std::vector<std::string> headers{"t (s)"};
  for (std::size_t e = 0; e < series.size(); ++e)
    headers.push_back("engine " + std::to_string(e));
  headers.push_back("dominating");
  Table table(headers);
  for (std::size_t start = 0; start < buckets; start += stride) {
    table.row().cell(
        format_double(static_cast<double>(start) * top.bucket_width, 0));
    std::size_t dominating = 0;
    double best = -1;
    for (std::size_t e = 0; e < series.size(); ++e) {
      double total = 0;
      for (std::size_t b = start; b < std::min(buckets, start + stride); ++b)
        total += series[e][b];
      if (total > best) {
        best = total;
        dominating = e;
      }
      table.cell(total, 0);
    }
    table.cell("engine " + std::to_string(dominating));
  }
  table.print(std::cout);

  // The clustering algorithm's view of the same data.
  std::cout << "\nsegment clustering (paper '3.3) finds " << segments.size()
            << " segment(s):\n";
  for (const auto& segment : segments)
    std::cout << "  [" << segment.begin * top.bucket_width << " s, "
              << segment.end * top.bucket_width << " s) dominated by engine "
              << segment.dominating << "\n";
  std::cout << "\npaper: the dominating engine changes over the emulation "
               "lifetime; a single average load number hides this.\n\n";
}

/// One of Figures 4, 5, 6, 7, 9 and 10: a metric of one app's cells under
/// the three approaches, with percent-change columns.
struct Figure {
  const char* title;
  const char* measure;  // what the numbers are, ahead of the replica count
  App app;
  double Measured::*metric;
  bool seconds;  // " (s)" headers and one decimal, else three decimals
  std::vector<std::pair<int, int>> changes;  // (from, to) approach indices
  const char* paper;
};

/// `cells` starts with kTable1's topologies, ScaLapack then GridNPB each.
void print_figure(const Figure& figure, const std::vector<Cell>& cells) {
  std::cout << "=== " << figure.title << " ===\n"
            << "(" << figure.measure << "; avg of " << bench::replica_count()
            << " partition seeds)\n\n";
  const std::string unit = figure.seconds ? " (s)" : "";
  std::vector<std::string> headers{"Topology"};
  for (const char* name : kApproachNames) headers.push_back(name + unit);
  for (const auto& [from, to] : figure.changes)
    headers.push_back(std::string(kApproachNames[to]) + " vs " +
                      kApproachNames[from]);
  Table table(headers);
  for (std::size_t t = 0; t < std::size(kTable1); ++t) {
    const Cell& cell = cells[2 * t + (figure.app == App::GridNpb ? 1 : 0)];
    table.row().cell(cell.topology);
    for (const Measured& m : cell.by)
      table.cell(m.*figure.metric, figure.seconds ? 1 : 3);
    for (const auto& [from, to] : figure.changes)
      table.cell(format_percent_change(cell.by[from].*figure.metric,
                                       cell.by[to].*figure.metric));
  }
  table.print(std::cout);
  std::cout << "\npaper: " << figure.paper << "\n\n";
}

void print_fig8(const std::vector<double>& top_series,
                const std::vector<double>& profile_series, double top_mean,
                double profile_mean) {
  std::cout << "=== Figure 8: Fine-Grained Load Imbalance of GridNPB ===\n"
            << "(Campus; normalized imbalance per 2 s interval, shown in "
               "10 s steps)\n\n";
  const std::size_t buckets =
      std::min(top_series.size(), profile_series.size());
  Table table({"t (s)", "TOP", "PROFILE"});
  for (std::size_t b = 0; b < buckets; b += 5)
    table.row()
        .cell(format_double(2.0 * static_cast<double>(b), 0))
        .cell(top_series[b])
        .cell(profile_series[b]);
  table.print(std::cout);
  std::cout << "\nmean interval imbalance: TOP " << format_double(top_mean)
            << "  PROFILE " << format_double(profile_mean) << "  ("
            << format_percent_change(top_mean, profile_mean) << ")\n";
  std::cout << "paper: the profile-based approach's fine-grained imbalance "
               "is greatly improved over topology-based mapping even though "
               "overall execution time differs less.\n\n";
}

void print_table2(const Cell& cell) {
  std::cout << "=== Table 2: Results of ScaLapack on Larger Network ===\n"
            << "(BRITE, 200 routers / 364 hosts / 20 engines; avg of "
            << bench::replica_count() << " partition seeds)\n\n";
  Table table({"ScaLapack", "TOP", "PLACE", "PROFILE"});
  table.row().cell("Load Imbalance (Std. Deviation)");
  for (const Measured& m : cell.by) table.cell(m.imbalance);
  table.row().cell("Execution Time (second)");
  for (const Measured& m : cell.by) table.cell(m.emulation_time, 1);
  table.row().cell("Lookahead (ms)");
  for (const Measured& m : cell.by) table.cell(m.lookahead * 1e3, 2);
  table.print(std::cout);
  std::cout << "\npaper Table 2: imbalance 1.019 / 0.722 / 0.688 and "
               "execution time 559.3 / 484.6 / 460.5 s — PROFILE still "
               "creates the best partition at this scale.\n\n";
}

Json cell_json(const Cell& cell) {
  Json approaches;
  for (std::size_t a = 0; a < 3; ++a) {
    const Measured& m = cell.by[a];
    Json row = Json()
                   .add("imbalance", m.imbalance)
                   .add("emulation_time_s", m.emulation_time)
                   .add("network_time_s", m.network_time);
    if (cell.replays) row.add("replay_network_time_s", m.replay_time);
    approaches.add(kApproachNames[a],
                   row.add("lookahead_ms", m.lookahead * 1e3)
                       .add("windows", m.windows)
                       .add("remote_messages", m.remote_messages)
                       .add("links_cut", m.links_cut)
                       .add("run_wall_s", m.run_wall_s));
  }
  return Json()
      .add("topology", cell.topology)
      .add("app", bench::app_name(cell.app))
      .add("engines", cell.engines)
      .add("wall_s", cell.wall_s)
      .add("approaches", std::move(approaches));
}

/// The per-cell clauses, each PLACE or PROFILE against TOP (or PLACE) on
/// one metric.
void gate_cell(bench::Report& report, const Cell& cell) {
  const std::string prefix =
      cell.topology + "/" + bench::app_name(cell.app) + "/";
  const Measured& top = cell.by[0];
  const Measured& place = cell.by[1];
  const Measured& profile = cell.by[2];
  report.gate(prefix + "imbalance_place_lt_top", place.imbalance,
              top.imbalance, true, place.imbalance < top.imbalance,
              "load imbalance PLACE < TOP");
  report.gate(prefix + "imbalance_profile_lt_top", profile.imbalance,
              top.imbalance, true, profile.imbalance < top.imbalance,
              "load imbalance PROFILE < TOP");
  report.gate(prefix + "emulation_time_profile_le_top",
              profile.emulation_time, top.emulation_time, true,
              profile.emulation_time <= top.emulation_time,
              "modeled application emulation time PROFILE <= TOP");
  if (cell.replays)
    report.gate(prefix + "replay_network_time_profile_le_top",
                profile.replay_time, top.replay_time, true,
                profile.replay_time <= top.replay_time,
                "modeled replay network time PROFILE <= TOP");
  report.gate(prefix + "imbalance_profile_le_place", profile.imbalance,
              place.imbalance, false, profile.imbalance <= place.imbalance,
              "load imbalance PROFILE <= PLACE; not enforced: it does not "
              "reproduce on TeraGrid, where PLACE balances better than "
              "PROFILE for both apps");
}

}  // namespace

int main(int argc, char** argv) {
  // Mapper trials fan out over every usable CPU; the runs are sequential.
  bench::Report report("paper", static_cast<int>(util::usable_cpus()));
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_paper.json";
  const auto start = Clock::now();
  const int replicas = bench::replica_count();
  report.run_config.add("replicas", replicas)
      .add("workload_seed", kWorkloadSeed);

  std::vector<bench::TopologyCase> topologies;
  for (const PaperSetup& paper : kTable1)
    topologies.push_back(bench::make_topology_case(paper.topology));
  topologies.push_back(bench::make_topology_case("BriteLarge"));

  std::vector<Cell> cells;
  std::vector<mapping::RunMetrics> first_runs;  // Figures 2 and 8
  for (const bench::TopologyCase& topo : topologies) {
    const bool table2 = topo.name == "BriteLarge";
    for (const App app : {App::Scalapack, App::GridNpb}) {
      if (table2 && app != App::Scalapack) continue;
      const bool figures_2_8 = topo.name == "Campus" && app == App::GridNpb;
      cells.push_back(run_cell(topo, app, /*replays=*/!table2,
                               figures_2_8 ? &first_runs : nullptr));
    }
  }
  const std::vector<mapping::Segment> segments =
      mapping::cluster_segments(first_runs[0].engine_series);
  const std::vector<double> top_series = first_runs[0].imbalance_series();
  const std::vector<double> profile_series =
      first_runs[2].imbalance_series();
  const std::size_t buckets =
      std::min(top_series.size(), profile_series.size());
  const double top_mean = mean(std::span(top_series.data(), buckets));
  const double profile_mean = mean(std::span(profile_series.data(), buckets));

  const std::vector<Figure> figures = {
      {"Figure 4: Load Imbalance for ScaLapack",
       "normalized std deviation of per-engine kernel event rates",
       App::Scalapack, &Measured::imbalance, false, {{0, 2}},
       "PLACE improves significantly on TOP; PROFILE improves load "
       "imbalance up to 66% for ScaLapack and is the best approach on "
       "every topology."},
      {"Figure 5: Load Imbalance for GridNPB",
       "normalized std deviation of per-engine kernel event rates",
       App::GridNpb, &Measured::imbalance, false, {{0, 2}, {1, 2}},
       "PROFILE improves load imbalance up to 48% for GridNPB; because "
       "GridNPB traffic is irregular, the gap between PLACE and PROFILE is "
       "larger than for ScaLapack."},
      {"Figure 6: Emulation Time for ScaLapack",
       "modeled application emulation time, seconds", App::Scalapack,
       &Measured::emulation_time, true, {{0, 1}, {0, 2}},
       "PLACE reduces overall emulation time ~40% and PROFILE up to 50% for "
       "ScaLapack (communication-bound)."},
      {"Figure 7: Emulation Time for GridNPB",
       "modeled application emulation time, seconds", App::GridNpb,
       &Measured::emulation_time, true, {{0, 2}},
       "the improvement is much smaller (~17%) because GridNPB's execution "
       "is computation- rather than communication-intensive."},
      {"Figure 9: ScaLapack Isolated Network Emulation",
       "trace replay engine time, seconds", App::Scalapack,
       &Measured::replay_time, true, {{0, 2}},
       "replay emulation time improves significantly for ScaLapack, "
       "consistent with the overall emulation-time result of Figure 6."},
      {"Figure 10: GridNPB Isolated Network Emulation",
       "trace replay engine time, seconds", App::GridNpb,
       &Measured::replay_time, true, {{0, 2}},
       "GridNPB's isolated network emulation time is reduced ~30% even "
       "though the whole-application time shows less difference (Figure "
       "7)."},
  };

  // The ten sections, in the paper's order, each ending in a blank line.
  print_table1(topologies);
  print_fig2(first_runs[0], segments);
  for (std::size_t f = 0; f < 4; ++f) print_figure(figures[f], cells);
  print_fig8(top_series, profile_series, top_mean, profile_mean);
  print_table2(cells.back());
  for (std::size_t f = 4; f < figures.size(); ++f)
    print_figure(figures[f], cells);

  Json table1 = Json::array();
  for (std::size_t t = 0; t < std::size(kTable1); ++t) {
    const PaperSetup& paper = kTable1[t];
    const topology::Network& net = topologies[t].network;
    table1.push(Json()
                    .add("topology", paper.topology)
                    .add("routers", net.router_count())
                    .add("hosts", net.host_count())
                    .add("engines", topologies[t].engines)
                    .add("links", net.link_count())
                    .add("ases", net.as_count()));
    const std::string prefix = std::string("table1/") + paper.topology + "/";
    for (const auto& [what, measured, want] :
         {std::tuple{"routers", net.router_count(), paper.routers},
          std::tuple{"hosts", net.host_count(), paper.hosts},
          std::tuple{"engines", topologies[t].engines, paper.engines}})
      report.gate(prefix + what, measured, want, true, measured == want,
                  std::string(what) + " count equals the paper's Table 1");
  }

  std::set<int> dominating;
  Json segment_rows = Json::array();
  for (const auto& segment : segments) {
    dominating.insert(segment.dominating);
    segment_rows.push(
        Json()
            .add("begin_s", static_cast<double>(segment.begin) *
                                first_runs[0].bucket_width)
            .add("end_s", static_cast<double>(segment.end) *
                              first_runs[0].bucket_width)
            .add("dominating_engine", segment.dominating));
  }
  report.gate("fig2/dominating_engines", static_cast<double>(dominating.size()),
              2, true, dominating.size() >= 2,
              "segment clustering of Campus GridNPB under TOP finds segments "
              "dominated by >= 2 different engines");
  report.gate("fig8/mean_interval_imbalance_profile_lt_top", profile_mean,
              top_mean, true, profile_mean < top_mean,
              "Campus GridNPB mean per-interval imbalance PROFILE < TOP");

  Json cell_rows = Json::array();
  for (const Cell& cell : cells) {
    cell_rows.push(cell_json(cell));
    gate_cell(report, cell);
  }

  report.results.add("table1", std::move(table1))
      .add("cells", std::move(cell_rows))
      .add("fig2", Json()
                       .add("bucket_width_s", first_runs[0].bucket_width)
                       .add("segments", std::move(segment_rows)))
      .add("fig8", Json()
                       .add("top_mean_interval_imbalance", top_mean)
                       .add("profile_mean_interval_imbalance", profile_mean))
      .add("wall_s", seconds_since(start));
  return report.write(out_path);
}
