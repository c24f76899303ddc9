#include "emu/icmp.hpp"

#include <algorithm>

#include "emu/emulator.hpp"
#include "util/error.hpp"

namespace massf::emu {

using topology::NodeId;

namespace {
/// Probes per pair (TTL 1..kMaxTtl); longer paths are reported as failed.
constexpr int kMaxTtl = 40;
/// Gap between successive probe batches (keeps ICMP traffic trivial).
constexpr double kProbeSpacing = 1e-3;
}  // namespace

std::vector<DiscoveredRoute> discover_routes(
    const topology::Network& network, const routing::RoutingView& routes,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  // Dedicated single-engine emulation: route discovery is a setup step, not
  // part of the measured run.
  EmulatorConfig config;
  config.collect_netflow = false;
  std::vector<int> all_zero(static_cast<std::size_t>(network.node_count()),
                            0);
  Emulator emulator(network, routes, std::move(all_zero), 1, config);

  // probe_id encodes (pair index, ttl).
  const auto encode = [&](std::size_t pair, int ttl) -> std::uint64_t {
    return pair * static_cast<std::uint64_t>(kMaxTtl + 1) +
           static_cast<std::uint64_t>(ttl);
  };

  struct PairState {
    std::vector<NodeId> hop;  // hop[ttl] = reporting router (index 1..)
    int reply_ttl = -1;       // smallest ttl whose probe reached dst
  };
  std::vector<PairState> state(pairs.size());
  for (auto& s : state)
    s.hop.assign(static_cast<std::size_t>(kMaxTtl + 1), -1);

  emulator.set_icmp_handler([&](const Packet& packet, SimTime) {
    const std::size_t pair = packet.probe_id /
                             static_cast<std::uint64_t>(kMaxTtl + 1);
    const int ttl = static_cast<int>(
        packet.probe_id % static_cast<std::uint64_t>(kMaxTtl + 1));
    MASSF_CHECK(pair < state.size(), "unknown probe id");
    PairState& s = state[pair];
    if (packet.kind == PacketKind::IcmpTtlExceeded) {
      s.hop[static_cast<std::size_t>(ttl)] = packet.reporter;
    } else if (packet.kind == PacketKind::IcmpEchoReply) {
      if (s.reply_ttl < 0 || ttl < s.reply_ttl) s.reply_ttl = ttl;
    }
  });

  // Launch the full probe fan for every pair (real traceroute probes
  // incrementally; batching is equivalent here and keeps the run short).
  double at = 0;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const auto [src, dst] = pairs[p];
    for (int ttl = 1; ttl <= kMaxTtl; ++ttl)
      emulator.send_probe(src, dst, ttl, encode(p, ttl), at);
    at += kProbeSpacing;
  }

  emulator.run(at + 60.0);  // generous horizon; the run ends when quiet

  std::vector<DiscoveredRoute> result(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const PairState& s = state[p];
    if (s.reply_ttl < 0) continue;  // discovery failed; leave empty
    DiscoveredRoute route;
    route.push_back(pairs[p].first);
    bool complete = true;
    for (int ttl = 1; ttl < s.reply_ttl; ++ttl) {
      const NodeId hop = s.hop[static_cast<std::size_t>(ttl)];
      if (hop < 0) {
        complete = false;  // a report was lost; treat as failed
        break;
      }
      route.push_back(hop);
    }
    if (!complete) continue;
    route.push_back(pairs[p].second);
    result[p] = std::move(route);
  }
  return result;
}

}  // namespace massf::emu
