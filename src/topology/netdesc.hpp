// Plain-text network description format (MaSSF-DML substitute).
//
// Grammar (line oriented; '#' starts a comment; blank lines ignored):
//
//   router <name> as=<int>
//   host   <name> as=<int>
//   link   <nameA> <nameB> <bandwidth> <latency>
//
// Bandwidth accepts a suffix: bps, Kbps, Mbps, Gbps (decimal multipliers).
// Latency accepts: s, ms, us.
//
// Example:
//   router core0 as=0
//   host h0 as=0
//   link h0 core0 100Mbps 0.1ms
#pragma once

#include <iosfwd>
#include <string>

#include "topology/network.hpp"

namespace massf::topology {

/// Serialize a network to the text format (stable order: nodes then links).
std::string write_netdesc(const Network& network);

/// Parse the text format; throws std::invalid_argument with a line number
/// on malformed input. The result is validated (connected, unique names).
Network read_netdesc(const std::string& text);

/// Read a file and parse it with read_netdesc.
Network load_netdesc(const std::string& path);

/// Parse "100Mbps"-style bandwidth to bits/second.
double parse_bandwidth(const std::string& text);

/// Parse "2ms"-style latency to seconds.
double parse_latency(const std::string& text);

}  // namespace massf::topology
