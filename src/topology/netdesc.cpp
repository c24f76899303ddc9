#include "topology/netdesc.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/string_util.hpp"

namespace massf::topology {

namespace {

/// Split "<number><suffix>", returning the numeric part and suffix.
std::pair<double, std::string> split_unit(const std::string& text) {
  std::size_t pos = 0;
  while (pos < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
          text[pos] == '.' || text[pos] == '+' || text[pos] == '-' ||
          text[pos] == 'e' || text[pos] == 'E')) {
    // Keep 'e'/'E' only when part of an exponent (digit follows).
    if ((text[pos] == 'e' || text[pos] == 'E') &&
        !(pos + 1 < text.size() &&
          (std::isdigit(static_cast<unsigned char>(text[pos + 1])) != 0 ||
           text[pos + 1] == '+' || text[pos + 1] == '-')))
      break;
    ++pos;
  }
  if (pos == 0) throw std::invalid_argument("no number in '" + text + "'");
  return {parse_double(text.substr(0, pos)), text.substr(pos)};
}

}  // namespace

double parse_bandwidth(const std::string& text) {
  const auto [value, unit] = split_unit(trim(text));
  if (unit == "bps" || unit.empty()) return value;
  if (unit == "Kbps" || unit == "kbps") return value * 1e3;
  if (unit == "Mbps" || unit == "mbps") return value * 1e6;
  if (unit == "Gbps" || unit == "gbps") return value * 1e9;
  throw std::invalid_argument("unknown bandwidth unit '" + unit + "'");
}

double parse_latency(const std::string& text) {
  const auto [value, unit] = split_unit(trim(text));
  if (unit == "s" || unit.empty()) return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  throw std::invalid_argument("unknown latency unit '" + unit + "'");
}

std::string write_netdesc(const Network& network) {
  std::ostringstream os;
  os.precision(17);  // round-trip doubles exactly
  os << "# massf network description: " << network.node_count() << " nodes, "
     << network.link_count() << " links\n";
  for (NodeId id = 0; id < network.node_count(); ++id) {
    const Node& n = network.node(id);
    os << (n.kind == NodeKind::Router ? "router " : "host ") << n.name
       << " as=" << n.as_id << '\n';
  }
  for (LinkId id = 0; id < network.link_count(); ++id) {
    const Link& l = network.link(id);
    os << "link " << network.node(l.a).name << ' ' << network.node(l.b).name
       << ' ' << l.bandwidth_bps << "bps " << l.latency_s << "s\n";
  }
  return os.str();
}

Network read_netdesc(const std::string& text) {
  Network net;
  std::istringstream is(text);
  std::string line;
  int line_number = 0;

  auto fail = [&](const std::string& why) -> void {
    throw std::invalid_argument("netdesc line " + std::to_string(line_number) +
                                ": " + why);
  };

  auto parse_as = [&](const std::string& token) -> int {
    if (!starts_with(token, "as=")) fail("expected as=<int>, got '" + token + "'");
    const long long as_id = parse_int(token.substr(3));
    if (as_id < 0 || as_id > std::numeric_limits<int>::max())
      fail("AS id out of range in '" + token + "'");
    return static_cast<int>(as_id);
  };

  while (std::getline(is, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> tokens = split_whitespace(line);
    if (tokens.empty()) continue;

    try {
      if (tokens[0] == "router" || tokens[0] == "host") {
        if (tokens.size() != 3) fail("expected: " + tokens[0] + " <name> as=<int>");
        if (net.find_node(tokens[1]) >= 0)
          fail("duplicate node name '" + tokens[1] + "'");
        const int as_id = parse_as(tokens[2]);
        if (tokens[0] == "router")
          net.add_router(tokens[1], as_id);
        else
          net.add_host(tokens[1], as_id);
      } else if (tokens[0] == "link") {
        if (tokens.size() != 5)
          fail("expected: link <a> <b> <bandwidth> <latency>");
        const NodeId a = net.find_node(tokens[1]);
        const NodeId b = net.find_node(tokens[2]);
        if (a < 0) fail("unknown node '" + tokens[1] + "'");
        if (b < 0) fail("unknown node '" + tokens[2] + "'");
        if (a == b)
          fail("self-loop link on node '" + tokens[1] + "' (a link must join "
               "two distinct nodes)");
        const double bandwidth = parse_bandwidth(tokens[3]);
        const double latency = parse_latency(tokens[4]);
        if (!(bandwidth > 0) || !std::isfinite(bandwidth))
          fail("link bandwidth must be positive and finite, got " + tokens[3]);
        if (!(latency > 0) || !std::isfinite(latency))
          fail("link latency must be positive and finite, got " + tokens[4]);
        net.add_link(a, b, bandwidth, latency);
      } else {
        fail("unknown directive '" + tokens[0] + "'");
      }
    } catch (const std::invalid_argument& e) {
      if (starts_with(e.what(), "netdesc line")) throw;
      fail(e.what());
    }
  }

  validate_network(net);
  return net;
}

Network load_netdesc(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return read_netdesc(buffer.str());
}

}  // namespace massf::topology
