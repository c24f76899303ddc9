// HTTP background-traffic generator (paper §4.1.4).
//
// Reproduces the paper's user-facing description:
//
//   Traffic name        HTTP
//   request_size        200KByte
//   think_time          12
//   client_per_server   10
//   server_number       107
//
// "HTTP clients and servers are selected randomly from endpoints in the
// virtual network." Each client loops: send a small GET to its server; the
// server replies with a Pareto-distributed object around request_size (the
// Barford–Crovella heavy-tail insight); the client thinks for an
// exponential think_time and repeats. All randomness is seeded.
#pragma once

#include <cstdint>

#include "traffic/workload.hpp"

namespace massf::traffic {

struct HttpParams {
  double request_size_bytes = 200e3;  // mean response (page) size
  double think_time_s = 12;           // mean client think time
  int clients_per_server = 10;
  int server_number = 107;            // capped at available hosts
  double get_bytes = 400;             // request message size
  /// Zipf exponent for server popularity (Barford–Crovella): the total
  /// client-session population is distributed across servers
  /// proportionally to 1/rank^zipf_exponent. 0 = uniform popularity.
  double zipf_exponent = 0.8;
  double duration_s = 600;
  /// Selects servers/clients (the *placement*).
  std::uint64_t seed = 7;
  /// Drives the run's dynamics (think times, response sizes, start
  /// offsets). 0 = derive from `seed`. Re-running the same placement with
  /// a different dynamics seed models run-to-run traffic variation — the
  /// situation the paper's §6 profile-reuse discussion cares about.
  std::uint64_t dynamics_seed = 0;
};

class HttpBackground : public Workload {
 public:
  /// Selects servers/clients deterministically from the network's hosts.
  /// Hosts in `excluded` (e.g. the foreground application's nodes) are not
  /// used for either role.
  HttpBackground(const topology::Network& network, HttpParams params,
                 std::vector<NodeId> excluded = {});

  void install(emu::Emulator& emulator) const override;
  std::vector<Flow> predicted_background(
      const topology::Network& network) const override;
  double duration() const override { return params_.duration_s; }

  /// (client, server) pairs in use — exposed for tests.
  const std::vector<std::pair<NodeId, NodeId>>& pairs() const {
    return pairs_;
  }

 private:
  HttpParams params_;
  std::vector<std::pair<NodeId, NodeId>> pairs_;  // (client, server)
};

}  // namespace massf::traffic
