// RPC-style request/response application layer (DESIGN.md §14).
//
// Three endpoint roles on top of the emu::AppEndpoint framework:
//
//   ClientEndpoint        open-loop Poisson request generator (one endpoint
//                         aggregates many simulated users by superposition);
//   LoadBalancerEndpoint  front-end that forwards each request to a backend
//                         chosen by a pluggable LbPolicy and relays the
//                         response back to the requesting client;
//   ServerEndpoint        backend with a fixed-size worker pool and a
//                         seeded service-time distribution.
//
// Request/response matching rides AppMessage::corr end-to-end; each hop
// rewrites corr to its own key (client user|seq → LB flight seq → back),
// so the layer works unchanged over lossy reliable delivery where a
// retransmitted request must still match its response. All per-endpoint
// state lives on the endpoint's host and is touched only on that host's
// engine — the same race-freedom argument as every traffic model.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/lb_policy.hpp"
#include "emu/app.hpp"
#include "util/rng.hpp"
#include "util/u64_table.hpp"

namespace massf::app {

using emu::NodeId;

/// Message tags of the RPC layer (disjoint from the traffic models' tags).
constexpr int kTagRequest = 400;
constexpr int kTagResponse = 401;

/// Client corr layout: user id in the high bits, per-host sequence number
/// in the low bits. The LB hashes the user field for key-affinity policies
/// (ring-hash/maglev) while the client matches responses by the full corr.
constexpr int kUserShift = 40;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kUserShift) - 1;

inline std::uint64_t pack_corr(std::uint64_t user, std::uint64_t seq) {
  return (user << kUserShift) | (seq & kSeqMask);
}
inline std::uint64_t corr_user(std::uint64_t corr) {
  return corr >> kUserShift;
}

struct ServerParams {
  /// Mean of one request's exponentially distributed service time
  /// (seconds).
  double mean_s = 2e-3;
  /// Concurrent workers; requests beyond that queue FIFO, so response time
  /// grows with queue depth — the signal load-aware policies feed on.
  int workers = 4;
  double response_bytes = 4096;
  std::uint64_t seed = 0x73727665ULL;  // "srve", mixed with the host id
  /// Ship responses through reliable delivery.
  bool reliable = true;
};

/// Backend server: fixed worker pool, seeded service draws, one response
/// per request. Per-worker busy-until times implement the queue — a
/// request is assigned the earliest-free worker (lowest index on ties) and
/// its response fires at max(now, worker_free) + service.
class ServerEndpoint : public emu::AppEndpoint {
 public:
  ServerEndpoint(ServerParams params);

  void start(emu::AppApi& api) override;
  void receive(emu::AppApi& api, const emu::AppMessage& message) override;
  void on_timer(emu::AppApi& api, std::int64_t tag) override;

  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(const std::vector<std::uint64_t>& in) override;

 private:
  struct Job {
    NodeId reply_to = -1;
    std::uint64_t corr = 0;
  };

  ServerParams params_;
  Rng rng_;  // reseeded mix_seed(params.seed, host) in start()
  std::vector<double> worker_free_;
  std::uint64_t job_seq_ = 0;
  util::U64Table<Job> jobs_;  // by job seq
};

struct LoadBalancerParams {
  PolicyKind policy = PolicyKind::RoundRobin;
  PolicyConfig policy_config{};
  /// Backend hosts, in index order the policy sees them.
  std::vector<NodeId> backends;
  /// Ship forwarded requests / relayed responses via reliable delivery.
  bool reliable = true;
};

/// Counters a LoadBalancerEndpoint exposes after a run. Touched only on
/// the LB host's engine; read after run() completes.
struct LbCounters {
  std::uint64_t requests_forwarded = 0;
  std::uint64_t responses_relayed = 0;
  /// Forwarded requests whose reliable delivery exhausted its retries
  /// (reported to the policy as on_error; the client request is dropped).
  std::uint64_t backend_errors = 0;
  /// Relayed responses that failed on the LB → client leg.
  std::uint64_t relay_errors = 0;
  /// Responses for flights already written off as errors (the reliable
  /// layer exhausted retries on lost ACKs although a copy was delivered).
  std::uint64_t stale_responses = 0;
};

/// Front-end load balancer: one instance on one host. Requests are
/// forwarded to policy-chosen backends with a fresh flight corr; responses
/// are matched to their flight, fed back to the policy as a latency
/// observation, and relayed to the requesting client under its corr.
class LoadBalancerEndpoint : public emu::AppEndpoint {
 public:
  LoadBalancerEndpoint(LoadBalancerParams params,
                       std::shared_ptr<LbCounters> counters = nullptr);

  void receive(emu::AppApi& api, const emu::AppMessage& message) override;
  void on_send_failed(emu::AppApi& api,
                      const emu::AppMessage& message) override;

  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(const std::vector<std::uint64_t>& in) override;

  const LbPolicy& policy() const { return *policy_; }

 private:
  struct Flight {
    NodeId client = -1;
    std::uint64_t client_corr = 0;
    double bytes = 0;
    double t0 = 0;
    std::uint32_t backend = 0;
  };

  LoadBalancerParams params_;
  std::unique_ptr<LbPolicy> policy_;
  std::shared_ptr<LbCounters> counters_;
  std::uint64_t flight_seq_ = 0;
  util::U64Table<Flight> inflight_;  // by flight seq
};

struct ClientParams {
  /// Front-end host requests are sent to.
  NodeId lb = -1;
  /// Simulated users aggregated on this host (Poisson superposition: the
  /// host emits one merged arrival process of rate users × rate_per_user).
  int users = 100;
  /// Per-user request rate (requests / second).
  double rate_per_user = 1.0;
  /// Stop generating at this sim time (responses may arrive later).
  double duration_s = 10.0;
  double request_bytes = 512;
  /// Latency series id from Emulator::register_latency_series.
  int series = 0;
  /// First user id on this host (so user ids are globally unique).
  std::uint64_t user_base = 0;
  std::uint64_t seed = 0x636c6e74ULL;  // "clnt", mixed with the host id
  /// Ship requests via reliable delivery.
  bool reliable = true;
};

/// Per-client-host counters (same ownership rule as LbCounters).
struct ClientCounters {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  /// Requests whose client → LB reliable send exhausted its retries.
  std::uint64_t send_failures = 0;
  /// Responses for requests already written off as send failures.
  std::uint64_t stale_responses = 0;
};

/// Open-loop Poisson client host. Arrivals are one exponential-gap timer
/// chain (rate = users × rate_per_user); each arrival is attributed to a
/// uniformly drawn user id so key-affinity policies see the full user
/// population. Open-loop: arrivals never wait for responses, so a slow
/// backend builds queue instead of throttling offered load.
class ClientEndpoint : public emu::AppEndpoint {
 public:
  ClientEndpoint(ClientParams params,
                 std::shared_ptr<ClientCounters> counters = nullptr);

  void start(emu::AppApi& api) override;
  void receive(emu::AppApi& api, const emu::AppMessage& message) override;
  void on_timer(emu::AppApi& api, std::int64_t tag) override;
  void on_send_failed(emu::AppApi& api,
                      const emu::AppMessage& message) override;

  void save_state(std::vector<std::uint64_t>& out) const override;
  void load_state(const std::vector<std::uint64_t>& in) override;

 private:
  void arm_next(emu::AppApi& api);

  ClientParams params_;
  Rng rng_;  // reseeded mix_seed(params.seed, host) in start()
  std::uint64_t seq_ = 0;
  std::shared_ptr<ClientCounters> counters_;
  /// corr → send time of requests awaiting a response.
  util::U64Table<double> outstanding_;
};

}  // namespace massf::app
