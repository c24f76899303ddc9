// Traceroute-based route discovery (paper §3.2).
//
// "To get the routing information, we implement the ICMP protocol inside
// MaSSF, and use the real Linux traceroute tool to discover the routing
// paths between each source-destination pair." Our equivalent: a
// traceroute driver that sends TTL-limited ICMP echo probes *through the
// emulator* and assembles each path from the TTL-exceeded reports and the
// final echo reply — i.e. PLACE learns routes by observing the emulated
// network, never by peeking at the routing tables.
#pragma once

#include <utility>
#include <vector>

#include "routing/routing.hpp"
#include "topology/network.hpp"

namespace massf::emu {

/// Result of one traceroute: the full node path src → dst (inclusive), or
/// empty if discovery failed (e.g. the path is longer than 40 hops).
using DiscoveredRoute = std::vector<topology::NodeId>;

/// Discover routes for all given (src, dst) pairs by running a dedicated
/// single-engine emulation that exchanges real ICMP packets over the
/// virtual network. Returns one route per input pair (same order).
std::vector<DiscoveredRoute> discover_routes(
    const topology::Network& network, const routing::RoutingView& routes,
    const std::vector<std::pair<topology::NodeId, topology::NodeId>>& pairs);

}  // namespace massf::emu
