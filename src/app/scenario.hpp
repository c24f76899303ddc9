// Canonical two-tier load-balancing scenario shared by tests and the
// policy-shootout bench (bench/bench_lb_policies.cpp).
//
// Topology: a core router with backend racks (fast core uplink) that are
// also reachable over a slow backup router — so cutting one rack's core
// uplink mid-run (a fault-plan link outage on `degraded_uplink`) degrades
// that rack's backends to a high-latency, low-bandwidth path instead of
// killing them. Latency-aware policies should route around the degraded
// rack; oblivious round-robin keeps paying the detour, which is exactly
// the p99 gap the bench gate asserts.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/rpc.hpp"
#include "des/kernel.hpp"
#include "fault/fault.hpp"
#include "routing/routing.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace massf::app {

struct LbScenarioParams {
  // ---- Topology shape -----------------------------------------------------
  int backends = 8;          // backend hosts, 4 per rack
  int client_hosts = 8;      // client hosts, 8 per client rack
  // ---- Offered load (open-loop) ------------------------------------------
  int users_per_host = 100;  // simulated users aggregated per client host
  double rate_per_user = 1.0;
  double duration_s = 10.0;
  double request_bytes = 512;
  // ---- Behavior -----------------------------------------------------------
  ServerParams server{};
  PolicyKind policy = PolicyKind::RoundRobin;
  PolicyConfig policy_config{};
  bool reliable = true;
  double reliable_timeout_s = 0.25;  // base retransmit timeout (ms-scale RTTs)
  std::uint64_t seed = 0x6c62736365ULL;  // "lbsce"
};

/// The built scenario: topology plus the node roles the workload and fault
/// plans need.
struct LbScenario {
  topology::Network net;
  topology::NodeId lb = -1;
  topology::NodeId core = -1;
  topology::NodeId backup = -1;
  std::vector<topology::NodeId> backends;
  std::vector<topology::NodeId> clients;
  /// Rack-0 → core uplink; a link outage here is the canonical mid-run
  /// degradation (rack 0 reroutes via the slow backup path).
  topology::LinkId degraded_uplink = -1;
};

LbScenario make_lb_scenario(const LbScenarioParams& params);

/// Workload installing one LoadBalancerEndpoint, one ServerEndpoint per
/// backend, and one ClientEndpoint per client host. install() registers a
/// latency series named after the policy and resets the run counters, so
/// one LbWorkload can drive several emulators back to back.
class LbWorkload : public traffic::Workload {
 public:
  LbWorkload(const LbScenario& scenario, const LbScenarioParams& params);

  void install(emu::Emulator& emulator) const override;
  std::vector<traffic::NodeId> injection_points() const override;
  double duration() const override { return params_.duration_s; }

  /// Post-run counters (valid after the emulator the workload was last
  /// installed into has finished running).
  LbCounters lb_counters() const;
  ClientCounters client_totals() const;

 private:
  LbScenario scenario_;
  LbScenarioParams params_;
  mutable std::shared_ptr<LbCounters> lb_counters_;
  mutable std::vector<std::shared_ptr<ClientCounters>> client_counters_;
};

/// One full run of the scenario under explicit kernel modes; the helper
/// tests and the bench share so their runs are comparable event-for-event.
struct LbRunResult {
  des::KernelStats kernel;
  emu::EmulatorStats stats;
  std::vector<emu::EpochStats> epochs;
  std::vector<emu::LatencySummary> latency;
  LbCounters lb;
  ClientCounters clients;
};

LbRunResult run_lb_scenario(const LbScenario& scenario,
                            const LbScenarioParams& params,
                            const routing::RoutingView& routes, int engines,
                            des::ExecutionMode mode, des::SyncMode sync,
                            const fault::FaultTimeline* timeline = nullptr,
                            double horizon_s = 0);

}  // namespace massf::app
