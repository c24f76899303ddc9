// Load-balancing policy shootout (EXPERIMENTS.md "LB policy shootout").
//
// Runs the canonical two-tier LB scenario (src/app/scenario.hpp) once per
// policy — round-robin, least-request, peak-EWMA, ring-hash, maglev — with
// >= 10^5 simulated users and a scheduled mid-run degradation: rack 0's
// core uplink goes down for the middle third of the run, rerouting a
// quarter of the backends over the slow backup path (10 ms / 200 Mbps
// instead of 0.5 ms / 1 Gbps). That splits the run into three fault
// epochs (healthy / degraded / recovered), and the per-epoch latency
// histograms land in BENCH_lb.json as p50/p90/p99 per policy x epoch.
//
// Acceptance checks (exit status):
//   * every policy drains: >= 99% of requests get responses by the horizon;
//   * in the degraded epoch, the latency-aware policies beat the oblivious
//     baseline: peak-EWMA p99 < round-robin p99 AND least-request p99 <
//     round-robin p99 — the paper-style claim that traffic-aware balancing
//     pays off exactly when the network stops being uniform.
//
// MASSF_LB_MAX_CLIENTS caps the simulated-user count for CI smoke runs
// (e.g. 5000). The full 10^5-user run takes a few seconds per policy.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "app/scenario.hpp"
#include "bench/common.hpp"
#include "des/kernel.hpp"
#include "fault/fault.hpp"
#include "routing/routing.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using massf::app::LbRunResult;
using massf::app::LbScenarioParams;
using massf::app::PolicyKind;

constexpr int kEngines = 4;
constexpr double kOutageFrom = 2.0;
constexpr double kOutageTo = 4.0;
constexpr std::size_t kDegradedEpoch = 1;

struct EpochRow {
  double start = 0;
  double end = 0;
  std::uint64_t count = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

struct PolicyRow {
  PolicyKind kind = PolicyKind::RoundRobin;
  double wall_s = 0;
  std::uint64_t events = 0;
  massf::app::ClientCounters clients;
  massf::app::LbCounters lb;
  std::vector<EpochRow> epochs;
  EpochRow total;
};

EpochRow summarize(const massf::LatencyHistogram& h, double start,
                   double end) {
  EpochRow row;
  row.start = start;
  row.end = end;
  row.count = h.count();
  row.p50 = h.quantile(0.50);
  row.p90 = h.quantile(0.90);
  row.p99 = h.quantile(0.99);
  return row;
}

void write_epoch(std::ofstream& out, const EpochRow& e,
                 const std::string& indent) {
  out << indent << "{\"start_s\": " << e.start << ", \"end_s\": " << e.end
      << ", \"count\": " << e.count << ", \"p50_s\": " << e.p50
      << ", \"p90_s\": " << e.p90 << ", \"p99_s\": " << e.p99 << "}";
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "bench_lb_policies: refusing to record wall time from a "
               "non-Release build\n";
  return 1;
#endif
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_lb.json";

  std::int64_t users = 100000;
  if (const char* env = std::getenv("MASSF_LB_MAX_CLIENTS")) {
    const std::int64_t cap = std::atoll(env);
    if (cap > 0 && cap < users) users = cap;
  }

  LbScenarioParams params;
  params.backends = 16;
  params.client_hosts = static_cast<int>(
      std::min<std::int64_t>(40, std::max<std::int64_t>(1, users / 250)));
  params.users_per_host = static_cast<int>(
      (users + params.client_hosts - 1) / params.client_hosts);
  // Offered load stays ~20k req/s regardless of the user cap: a capped
  // smoke run shrinks per-user state and key diversity, not the congestion
  // regime — the degraded-epoch queueing the p99 gate depends on.
  params.rate_per_user = 0.2 * (100000.0 / static_cast<double>(users));
  params.duration_s = 6.0;
  params.server.workers = 4;
  params.server.mean_s = 2e-3;

  const massf::app::LbScenario scenario = massf::app::make_lb_scenario(params);
  const auto tables = massf::routing::RoutingTables::build(scenario.net);

  // Degrade rack 0 for the middle third: three epochs, gate on the middle.
  massf::fault::FaultPlan plan;
  plan.link_outage(scenario.degraded_uplink, kOutageFrom, kOutageTo);
  const massf::fault::FaultTimeline timeline(scenario.net, plan);
  if (timeline.epoch_count() != 3) {
    std::cerr << "FAIL: expected 3 fault epochs, got "
              << timeline.epoch_count() << "\n";
    return 1;
  }

  const std::vector<PolicyKind> kinds = {
      PolicyKind::RoundRobin, PolicyKind::LeastRequest, PolicyKind::PeakEwma,
      PolicyKind::RingHash, PolicyKind::Maglev};

  bool ok = true;
  std::vector<PolicyRow> rows;
  for (const PolicyKind kind : kinds) {
    LbScenarioParams p = params;
    p.policy = kind;

    const auto t0 = Clock::now();
    const LbRunResult run = massf::app::run_lb_scenario(
        scenario, p, tables, kEngines, massf::des::ExecutionMode::Threaded,
        massf::des::SyncMode::ChannelLookahead, &timeline);
    PolicyRow row;
    row.kind = kind;
    row.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (const std::uint64_t e : run.kernel.events_per_lp) row.events += e;
    row.clients = run.clients;
    row.lb = run.lb;

    if (run.latency.size() != 1) {
      std::cerr << "FAIL: expected one latency series, got "
                << run.latency.size() << "\n";
      return 1;
    }
    const massf::emu::LatencySummary& series = run.latency.front();
    row.total = summarize(series.total, 0.0, 0.0);
    for (std::size_t e = 0; e < series.per_epoch.size(); ++e) {
      const double start = run.epochs[e].start;
      const double end = run.epochs[e].end;
      row.epochs.push_back(summarize(series.per_epoch[e], start, end));
    }

    const double drained =
        row.clients.requests_sent == 0
            ? 0.0
            : static_cast<double>(row.clients.responses_received) /
                  static_cast<double>(row.clients.requests_sent);
    if (drained < 0.99) {
      std::cerr << "FAIL: " << massf::app::policy_name(kind) << " drained only "
                << drained * 100 << "% of requests\n";
      ok = false;
    }

    std::cout << massf::app::policy_name(kind) << ": "
              << row.clients.requests_sent << " requests, "
              << row.clients.responses_received << " responses, p99 total "
              << row.total.p99 * 1e3 << " ms, degraded-epoch p99 "
              << row.epochs[kDegradedEpoch].p99 * 1e3 << " ms | "
              << row.events << " events in " << row.wall_s << " s\n";
    rows.push_back(std::move(row));
  }

  // The gate: traffic-aware policies must beat round-robin's tail exactly
  // where the network is non-uniform (the degraded epoch).
  const double rr_p99 = rows[0].epochs[kDegradedEpoch].p99;
  const double lr_p99 = rows[1].epochs[kDegradedEpoch].p99;
  const double ewma_p99 = rows[2].epochs[kDegradedEpoch].p99;
  if (!(lr_p99 < rr_p99)) {
    std::cerr << "FAIL: least-request degraded-epoch p99 " << lr_p99
              << " s is not below round-robin's " << rr_p99 << " s\n";
    ok = false;
  }
  if (!(ewma_p99 < rr_p99)) {
    std::cerr << "FAIL: peak-EWMA degraded-epoch p99 " << ewma_p99
              << " s is not below round-robin's " << rr_p99 << " s\n";
    ok = false;
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"lb_policies\",\n"
      << "  \"context\": " << massf::bench::context_json(kEngines, "  ")
      << ",\n"
      << "  \"run_config\": " << massf::bench::run_config_json(0, "  ")
      << ",\n"
      << "  \"scenario\": {\n"
      << "    \"users\": " << users << ",\n"
      << "    \"client_hosts\": " << params.client_hosts << ",\n"
      << "    \"users_per_host\": " << params.users_per_host << ",\n"
      << "    \"backends\": " << params.backends << ",\n"
      << "    \"rate_per_user_hz\": " << params.rate_per_user << ",\n"
      << "    \"duration_s\": " << params.duration_s << ",\n"
      << "    \"server_mean_s\": " << params.server.mean_s << ",\n"
      << "    \"server_workers\": " << params.server.workers << ",\n"
      << "    \"engines\": " << kEngines << ",\n"
      << "    \"outage\": [" << kOutageFrom << ", " << kOutageTo << "],\n"
      << "    \"degraded_epoch\": " << kDegradedEpoch << "\n  },\n"
      << "  \"policies\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PolicyRow& r = rows[i];
    out << "    {\n      \"policy\": \"" << massf::app::policy_name(r.kind)
        << "\",\n"
        << "      \"wall_s\": " << r.wall_s << ",\n"
        << "      \"events\": " << r.events << ",\n"
        << "      \"requests_sent\": " << r.clients.requests_sent << ",\n"
        << "      \"responses_received\": " << r.clients.responses_received
        << ",\n"
        << "      \"send_failures\": " << r.clients.send_failures << ",\n"
        << "      \"backend_errors\": " << r.lb.backend_errors << ",\n"
        << "      \"stale_responses\": "
        << r.clients.stale_responses + r.lb.stale_responses << ",\n"
        << "      \"total\": {\"count\": " << r.total.count
        << ", \"p50_s\": " << r.total.p50 << ", \"p90_s\": " << r.total.p90
        << ", \"p99_s\": " << r.total.p99 << "},\n"
        << "      \"epochs\": [\n";
    for (std::size_t e = 0; e < r.epochs.size(); ++e) {
      write_epoch(out, r.epochs[e], "        ");
      out << (e + 1 < r.epochs.size() ? "," : "") << "\n";
    }
    out << "      ]\n    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"gate\": {\n"
      << "    \"degraded_epoch\": " << kDegradedEpoch << ",\n"
      << "    \"round_robin_p99_s\": " << rr_p99 << ",\n"
      << "    \"least_request_p99_s\": " << lr_p99 << ",\n"
      << "    \"peak_ewma_p99_s\": " << ewma_p99 << ",\n"
      << "    \"passed\": " << (ok ? "true" : "false") << "\n  }\n}\n";
  out.close();

  std::cout << (ok ? "PASS" : "FAIL") << ": wrote " << out_path << "\n";
  return ok ? 0 : 1;
}
