// Virtual-network model: the emulation target MaSSF reads from its network
// description file (§2.2.1). Hosts and routers are nodes grouped into
// autonomous systems (ASes); links are full duplex with a bandwidth and a
// propagation latency.
//
// The Network owns only *structure*; traffic estimates and partitioning
// weights are layered on top by mapping::*. to_graph() exports the
// structure to the partitioner (one vertex per node, one edge per link) and
// keeps node ids == vertex ids so assignments translate directly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace massf::topology {

using NodeId = std::int32_t;
using LinkId = std::int32_t;

enum class NodeKind { Host, Router };

/// One virtual network node (endpoint or router).
struct Node {
  NodeKind kind = NodeKind::Host;
  std::string name;
  int as_id = 0;
  /// Routing/partitioning domain (hierarchical locality unit). Defaults to
  /// a single flat domain; hierarchical generators tag every node so the
  /// hierarchical routing backend and the coarsen-once partitioner can
  /// treat whole domains as units. Dense ids [0, domain_count()) expected.
  int domain_id = 0;
};

/// One full-duplex virtual link.
struct Link {
  NodeId a = -1;
  NodeId b = -1;
  double bandwidth_bps = 0;  // per direction
  double latency_s = 0;      // propagation delay per direction
};

/// Convenience bandwidth/latency constructors.
constexpr double Mbps(double v) { return v * 1e6; }
constexpr double Gbps(double v) { return v * 1e9; }
constexpr double milliseconds(double v) { return v * 1e-3; }
constexpr double microseconds(double v) { return v * 1e-6; }

/// Mutable virtual-network description.
class Network {
 public:
  NodeId add_router(std::string name, int as_id = 0);
  NodeId add_host(std::string name, int as_id = 0);
  LinkId add_link(NodeId a, NodeId b, double bandwidth_bps, double latency_s);

  NodeId node_count() const { return static_cast<NodeId>(nodes_.size()); }
  LinkId link_count() const { return static_cast<LinkId>(links_.size()); }
  const Node& node(NodeId id) const;
  const Link& link(LinkId id) const;

  /// Links incident to a node, in insertion order.
  const std::vector<LinkId>& incident_links(NodeId id) const;

  /// The link's endpoint that is not `from`.
  NodeId link_other_end(LinkId id, NodeId from) const;

  /// Find the link joining a and b, if any (first match).
  std::optional<LinkId> find_link(NodeId a, NodeId b) const;

  std::vector<NodeId> hosts() const;
  std::vector<NodeId> routers() const;
  int host_count() const;
  int router_count() const;

  /// Assign a node to a domain (see Node::domain_id).
  void set_node_domain(NodeId id, int domain);
  /// Max domain id in use + 1 (1 for a flat network).
  int domain_count() const;
  /// Domain id per node, indexed by NodeId — the form the hierarchical
  /// partitioner consumes.
  std::vector<int> domain_of_nodes() const;

  /// Number of distinct AS ids in use.
  int as_count() const;

  /// Sum of incident link bandwidth (both directions counted once each
  /// direction? No: per-link per-direction bandwidth, summed over incident
  /// links) — the TOP vertex weight ("total bandwidth in and out", §3.1).
  double total_incident_bandwidth(NodeId id) const;

  /// Minimum link latency over all links (used for lookahead lower bounds).
  double min_link_latency() const;

  /// Export structure to a partitioning graph: vertex i == node i, one edge
  /// per link. Vertex weights default to 1.0 (single constraint); arc
  /// weights default to 1.0. Callers overlay real weights with
  /// Graph::with_*_weights.
  graph::Graph to_graph() const;

  /// Look up a node by (unique) name; -1 if absent.
  NodeId find_node(const std::string& name) const;

 private:
  NodeId add_node(NodeKind kind, std::string name, int as_id);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> incident_;
};

/// Verify basic sanity: connected, positive bandwidths/latencies, unique
/// names. Throws std::invalid_argument describing the first violation.
void validate_network(const Network& network);

/// The links an assignment of nodes to engines cuts and their latencies:
/// the conservative lookaheads the assignment yields, globally and per
/// engine pair. A latency is infinity where no link crosses.
struct CutLatency {
  int engines = 0;
  /// Links whose ends lie on different engines.
  int links = 0;
  /// Minimum latency over those links.
  double min = 0;
  /// engines × engines, symmetric: the minimum latency over the links
  /// joining engines a and b at [a * engines + b].
  std::vector<double> pair;

  double between(int a, int b) const {
    return pair[static_cast<std::size_t>(a) *
                    static_cast<std::size_t>(engines) +
                static_cast<std::size_t>(b)];
  }
};

/// One scan of `network`'s links under `node_engine` (one engine id in
/// [0, engines) per node).
CutLatency cut_latency(const Network& network,
                       const std::vector<int>& node_engine, int engines);

}  // namespace massf::topology
