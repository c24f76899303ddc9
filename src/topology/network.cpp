#include "topology/network.hpp"

#include <algorithm>
#include <limits>
#include <string_view>
#include <vector>

#include "graph/algorithms.hpp"
#include "util/error.hpp"

namespace massf::topology {

NodeId Network::add_node(NodeKind kind, std::string name, int as_id) {
  MASSF_REQUIRE(as_id >= 0, "AS id must be non-negative");
  MASSF_REQUIRE(!name.empty(), "node name must not be empty");
  nodes_.push_back({kind, std::move(name), as_id});
  incident_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Network::add_router(std::string name, int as_id) {
  return add_node(NodeKind::Router, std::move(name), as_id);
}

NodeId Network::add_host(std::string name, int as_id) {
  return add_node(NodeKind::Host, std::move(name), as_id);
}

LinkId Network::add_link(NodeId a, NodeId b, double bandwidth_bps,
                         double latency_s) {
  MASSF_REQUIRE(a >= 0 && a < node_count(), "link endpoint a out of range");
  MASSF_REQUIRE(b >= 0 && b < node_count(), "link endpoint b out of range");
  MASSF_REQUIRE(a != b, "link endpoints must differ");
  MASSF_REQUIRE(bandwidth_bps > 0, "link bandwidth must be positive");
  MASSF_REQUIRE(latency_s > 0, "link latency must be positive");
  links_.push_back({a, b, bandwidth_bps, latency_s});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  incident_[static_cast<std::size_t>(a)].push_back(id);
  incident_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

const Node& Network::node(NodeId id) const {
  MASSF_REQUIRE(id >= 0 && id < node_count(), "node id out of range");
  return nodes_[static_cast<std::size_t>(id)];
}

const Link& Network::link(LinkId id) const {
  MASSF_REQUIRE(id >= 0 && id < link_count(), "link id out of range");
  return links_[static_cast<std::size_t>(id)];
}

const std::vector<LinkId>& Network::incident_links(NodeId id) const {
  MASSF_REQUIRE(id >= 0 && id < node_count(), "node id out of range");
  return incident_[static_cast<std::size_t>(id)];
}

NodeId Network::link_other_end(LinkId id, NodeId from) const {
  const Link& l = link(id);
  MASSF_REQUIRE(l.a == from || l.b == from,
                "node " << from << " is not an endpoint of link " << id);
  return l.a == from ? l.b : l.a;
}

std::optional<LinkId> Network::find_link(NodeId a, NodeId b) const {
  MASSF_REQUIRE(a >= 0 && a < node_count(), "node id out of range");
  for (LinkId id : incident_[static_cast<std::size_t>(a)]) {
    const Link& l = link(id);
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return id;
  }
  return std::nullopt;
}

std::vector<NodeId> Network::hosts() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < node_count(); ++id)
    if (node(id).kind == NodeKind::Host) out.push_back(id);
  return out;
}

std::vector<NodeId> Network::routers() const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < node_count(); ++id)
    if (node(id).kind == NodeKind::Router) out.push_back(id);
  return out;
}

int Network::host_count() const {
  return static_cast<int>(hosts().size());
}

int Network::router_count() const {
  return static_cast<int>(routers().size());
}

void Network::set_node_domain(NodeId id, int domain) {
  MASSF_REQUIRE(id >= 0 && id < node_count(), "node id out of range");
  MASSF_REQUIRE(domain >= 0, "domain id must be non-negative");
  nodes_[static_cast<std::size_t>(id)].domain_id = domain;
}

int Network::domain_count() const {
  int max_domain = 0;
  for (const Node& n : nodes_) max_domain = std::max(max_domain, n.domain_id);
  return max_domain + 1;
}

std::vector<int> Network::domain_of_nodes() const {
  std::vector<int> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) out.push_back(n.domain_id);
  return out;
}

int Network::as_count() const {
  // Sort + unique instead of a hash set: same complexity class for this
  // setup-time query, and massf-check's unordered-container rule stays
  // trivially satisfied (no hash-ordered state anywhere near topology).
  std::vector<int> ids;
  ids.reserve(nodes_.size());
  for (const Node& n : nodes_) ids.push_back(n.as_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return static_cast<int>(ids.size());
}

double Network::total_incident_bandwidth(NodeId id) const {
  double total = 0;
  for (LinkId l : incident_links(id)) total += link(l).bandwidth_bps;
  return total;
}

double Network::min_link_latency() const {
  double lo = std::numeric_limits<double>::infinity();
  for (const Link& l : links_) lo = std::min(lo, l.latency_s);
  return lo;
}

graph::Graph Network::to_graph() const {
  graph::GraphBuilder builder(1);
  for (NodeId id = 0; id < node_count(); ++id) builder.add_vertex(1.0);
  for (const Link& l : links_) builder.add_edge(l.a, l.b, 1.0);
  return builder.build();
}

NodeId Network::find_node(const std::string& name) const {
  for (NodeId id = 0; id < node_count(); ++id)
    if (nodes_[static_cast<std::size_t>(id)].name == name) return id;
  return -1;
}

void validate_network(const Network& network) {
  MASSF_REQUIRE(network.node_count() > 0, "network has no nodes");
  // Duplicate-name check via sorted views (node names are stable for the
  // duration of the call), keeping validation free of hash-ordered state.
  std::vector<std::string_view> names;
  names.reserve(static_cast<std::size_t>(network.node_count()));
  for (NodeId id = 0; id < network.node_count(); ++id)
    names.push_back(network.node(id).name);
  std::sort(names.begin(), names.end());
  const auto dup = std::adjacent_find(names.begin(), names.end());
  MASSF_REQUIRE(dup == names.end(),
                "duplicate node name '" << *dup << "'");
  // Hosts should be stubs: exactly one access link keeps routing and the
  // emulator's host model simple. (Routers may have any degree.)
  for (NodeId id = 0; id < network.node_count(); ++id) {
    if (network.node(id).kind == NodeKind::Host)
      MASSF_REQUIRE(!network.incident_links(id).empty(),
                    "host '" << network.node(id).name << "' has no link");
  }
  MASSF_REQUIRE(graph::is_connected(network.to_graph()),
                "network is not connected");
}

CutLatency cut_latency(const Network& network,
                       const std::vector<int>& node_engine, int engines) {
  constexpr double kNone = std::numeric_limits<double>::infinity();
  const auto n = static_cast<std::size_t>(engines);
  CutLatency cut{engines, 0, kNone, std::vector<double>(n * n, kNone)};
  for (LinkId l = 0; l < network.link_count(); ++l) {
    const Link& link = network.link(l);
    const auto a = static_cast<std::size_t>(
        node_engine[static_cast<std::size_t>(link.a)]);
    const auto b = static_cast<std::size_t>(
        node_engine[static_cast<std::size_t>(link.b)]);
    if (a == b) continue;
    ++cut.links;
    cut.min = std::min(cut.min, link.latency_s);
    cut.pair[a * n + b] = std::min(cut.pair[a * n + b], link.latency_s);
    cut.pair[b * n + a] = cut.pair[a * n + b];
  }
  return cut;
}

}  // namespace massf::topology
