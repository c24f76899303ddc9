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
// Gates (bench::Report; the exit status is 0 only if all pass):
//   * drain/<policy>: >= 99% of requests get responses by the horizon;
//   * in the degraded epoch, the latency-aware policies beat the oblivious
//     baseline: peak-EWMA p99 < round-robin p99 AND least-request p99 <
//     round-robin p99 — the paper-style claim that traffic-aware balancing
//     pays off exactly when the network stops being uniform.
//
// MASSF_LB_MAX_CLIENTS caps the simulated-user count for CI smoke runs
// (e.g. 5000). The full 10^5-user run takes a few seconds per policy.
#include <chrono>
#include <cstdlib>
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
using massf::bench::Json;

constexpr int kEngines = 4;
constexpr double kOutageFrom = 2.0;
constexpr double kOutageTo = 4.0;
constexpr std::size_t kDegradedEpoch = 1;

/// Appends a histogram's count and p50/p90/p99 to `row`.
Json latency_json(const massf::LatencyHistogram& h, Json row = {}) {
  return row.add("count", h.count())
      .add("p50_s", h.quantile(0.50))
      .add("p90_s", h.quantile(0.90))
      .add("p99_s", h.quantile(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  massf::bench::Report report("lb", kEngines);
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
  report.run_config.add("users", users)
      .add("client_hosts", params.client_hosts)
      .add("users_per_host", params.users_per_host)
      .add("backends", params.backends)
      .add("rate_per_user_hz", params.rate_per_user)
      .add("duration_s", params.duration_s)
      .add("server_mean_s", params.server.mean_s)
      .add("server_workers", params.server.workers)
      .add("engines", kEngines)
      .add("outage_s", Json::array({kOutageFrom, kOutageTo}))
      .add("degraded_epoch", kDegradedEpoch);

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

  Json policies = Json::array();
  std::vector<double> degraded_p99;
  for (const PolicyKind kind : kinds) {
    LbScenarioParams p = params;
    p.policy = kind;

    const auto t0 = Clock::now();
    const LbRunResult run = massf::app::run_lb_scenario(
        scenario, p, tables, kEngines, massf::des::ExecutionMode::Threaded,
        massf::des::SyncMode::ChannelLookahead, &timeline);
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::uint64_t events = 0;
    for (const std::uint64_t e : run.kernel.events_per_lp) events += e;

    if (run.latency.size() != 1) {
      std::cerr << "FAIL: expected one latency series, got "
                << run.latency.size() << "\n";
      return 1;
    }
    const massf::emu::LatencySummary& series = run.latency.front();
    Json epochs = Json::array();
    for (std::size_t e = 0; e < series.per_epoch.size(); ++e)
      epochs.push(latency_json(series.per_epoch[e],
                               Json()
                                   .add("start_s", run.epochs[e].start)
                                   .add("end_s", run.epochs[e].end)));
    degraded_p99.push_back(series.per_epoch[kDegradedEpoch].quantile(0.99));

    const massf::app::ClientCounters& clients = run.clients;
    const double drained =
        clients.requests_sent == 0
            ? 0.0
            : static_cast<double>(clients.responses_received) /
                  static_cast<double>(clients.requests_sent);
    const std::string name = massf::app::policy_name(kind);
    report.gate("drain/" + name, drained, 0.99, true, drained >= 0.99,
                "fraction of requests answered by the horizon >= 0.99");

    std::cout << name << ": " << clients.requests_sent << " requests, "
              << clients.responses_received << " responses, p99 total "
              << series.total.quantile(0.99) * 1e3 << " ms, degraded-epoch p99 "
              << degraded_p99.back() * 1e3 << " ms | " << events
              << " events in " << wall_s << " s\n";
    policies.push(Json()
                      .add("policy", name)
                      .add("wall_s", wall_s)
                      .add("events", events)
                      .add("requests_sent", clients.requests_sent)
                      .add("responses_received", clients.responses_received)
                      .add("send_failures", clients.send_failures)
                      .add("backend_errors", run.lb.backend_errors)
                      .add("stale_responses",
                           clients.stale_responses + run.lb.stale_responses)
                      .add("total", latency_json(series.total))
                      .add("epochs", std::move(epochs)));
  }
  report.results.add("policies", std::move(policies));

  // Traffic-aware policies must beat round-robin's tail exactly where the
  // network is non-uniform (the degraded epoch).
  for (const std::size_t i : {1, 2}) {
    const std::string name = massf::app::policy_name(kinds[i]);
    report.gate("degraded_p99/" + name, degraded_p99[i], degraded_p99[0],
                true, degraded_p99[i] < degraded_p99[0],
                name + " degraded-epoch p99 < round-robin's (the threshold)");
  }
  return report.write(out_path);
}
