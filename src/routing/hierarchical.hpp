// Hierarchical routing tables: million-node routing state without the n².
//
// The dense RoutingTables stores every (src, dst) next hop explicitly —
// 8 n² bytes, fatal at 10⁵–10⁶ nodes (80 GB at 10⁵). This backend exploits
// the domain structure hierarchical topologies carry (Network::domain_id):
//
//   * per domain i: an exact *domain-restricted* all-pairs table
//     (dᵢ² distances + first hops over paths that stay inside the domain);
//   * globally: exact full-graph distances between all *border* nodes
//     (nodes with an inter-domain link), computed by Dijkstra over a border
//     quotient graph whose edges are the restricted intra-domain
//     border-to-border distances plus the actual inter-domain links.
//
// Memory is O(Σ dᵢ² + B²) instead of O(n²). Queries recover exact
// shortest-path distances from the decomposition
//
//   dist(s, t) = min over borders a ∈ B(dom s), b ∈ B(dom t) of
//                dist_dom(s, a) + BD(a, b) + dist_dom(b, t)
//
// (same-domain pairs also consider the direct restricted distance), which
// is exact for any graph and any domain partition: the maximal prefix of a
// shortest path before its first inter-domain hop stays inside dom(s) and
// ends at a border, the maximal suffix likewise, and the middle is a
// border-to-border path the quotient Dijkstra bounds exactly. Forwarding
// picks the neighbor minimizing link latency + dist(neighbor, t) with
// lowest-id tie-breaking, so when shortest paths are unique (the hierarchy
// generator jitters latencies to guarantee this) the chosen next hops match
// the dense backend's exactly and emulation history hashes are
// bit-identical. Same-domain pairs whose restricted path is already optimal
// short-circuit to the O(1) intra-domain first-hop table.
//
// Degraded-mode (fault-epoch) semantics mirror RoutingTables::build_partial:
// masked links/nodes are excluded, unreachable pairs answer -1, and a
// Reachability summary is produced. Rebuilds against a `previous` instance
// share every DomainTable whose node/link masks did not change (the same
// shared_ptr trick FaultTimeline uses for whole tables), so a fault that
// touches one domain re-solves only that domain plus the border graph.
//
// Lookup cost and the memo. Answering a pair from the tables costs a
// neighbor argmin: one distance() per neighbor of src, each a scan over
// the border pairs of two domains (~1 µs at 10⁵ nodes). Forwarding asks
// the same few (node, destination) pairs over and over — every train of a
// flow repeats its path — so next_hop/next_link first consult a memo: a
// direct-mapped table of 2¹⁴ entries × 16 bytes (256 KiB) indexed by a
// hash of (src, dst). An entry holds the adjacency slot of the answer, which
// gives both the hop and the link, tagged with the id build_partial gave
// the instance, so fault-epoch and rebuilt views never share answers, even
// when one is built in another's storage. A miss (or a collision, which
// evicts) runs the full computation and only then writes the entry; a hit
// costs a hash, one memo line and the adjacency reads. The memo is
// thread_local static storage: each thread that forwards has its own, so
// the const view stays safe to call from any thread without locks, and
// nothing is allocated on the forwarding path. memory_bytes() does not
// count the memo — it is per thread, not per view.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/routing.hpp"

namespace massf::routing {

class HierarchicalRoutingTables final : public RoutingView {
 public:
  /// Build for the whole network. Throws std::invalid_argument if the
  /// network is not connected — use build_partial when disconnection is an
  /// expected input. Requires every domain to have < 65535 nodes.
  static HierarchicalRoutingTables build(const Network& network);

  /// Build for the surviving subgraph (null masks mean "everything up").
  /// Never throws on disconnection. `previous` (if non-null, built from the
  /// same network) donates the DomainTables of domains whose masks did not
  /// change; shared_domains() reports how many were reused.
  static HierarchicalRoutingTables build_partial(
      const Network& network, Reachability* reachability = nullptr,
      const std::vector<char>* links_up = nullptr,
      const std::vector<char>* nodes_up = nullptr,
      const HierarchicalRoutingTables* previous = nullptr);

  NodeId node_count() const override { return n_; }
  NodeId next_hop(NodeId src, NodeId dst) const override;
  LinkId next_link(NodeId src, NodeId dst) const override;
  std::size_t memory_bytes() const override;

  /// Exact shortest-path latency src → dst (+inf when unreachable). O(1)
  /// same-domain; O(|B(dom src)| · |B(dom dst)|) cross-domain.
  double distance(NodeId src, NodeId dst) const;

  /// Component structure of the active subgraph (labels identical to the
  /// dense backend's).
  const Reachability& reachability() const { return reach_; }

  int domain_count() const;
  /// Number of border nodes (nodes with an inter-domain link).
  int border_count() const;
  /// DomainTables donated by `previous` in the last build_partial.
  int shared_domains() const { return shared_domains_; }

 private:
  /// Local first-hop marker for "no path".
  static constexpr std::uint16_t kNoHop = 0xFFFF;

  /// Mask-independent structure shared across epochs (node → domain/local
  /// ids, per-domain node/link lists, the border set). Built once per
  /// network; rebuilds against a `previous` instance share it.
  struct Topo;

  /// One domain's restricted all-pairs solution under one mask signature.
  struct DomainTable {
    int size = 0;                     // nodes in the domain
    std::vector<double> dist;         // size² restricted distances (+inf)
    std::vector<std::uint16_t> next;  // size² restricted first hops (local)
    std::vector<char> node_mask;      // signature: this domain's nodes_up
    std::vector<char> link_mask;      // signature: this domain's intra links
  };

  HierarchicalRoutingTables() = default;

  const DomainTable& domain_table(int domain) const {
    return *domains_[static_cast<std::size_t>(domain)];
  }
  /// Restricted distance from node x to the border with global index b,
  /// both in domain i (+inf when no intra path).
  double dist_to_border(int domain, NodeId x, int border) const;
  /// Neighbor argmin: the adjacency slot of the best next hop toward dst,
  /// or -1 when no active neighbor reaches it.
  std::int64_t best_neighbor(NodeId src, NodeId dst) const;
  /// slot() answers for src == dst (active): the hop is src, no link.
  static constexpr std::int64_t kSelf = -2;
  /// The answer for (src, dst) computed from the tables, bypassing the
  /// memo: an adjacency slot of src, kSelf, or -1 (no route).
  std::int64_t slot(NodeId src, NodeId dst) const;
  /// slot() through this thread's memo, decoded into hop and link.
  void lookup(NodeId src, NodeId dst, NodeId* hop, LinkId* link) const;

  std::uint32_t view_id_ = 0;  // memo tag; build_partial hands out ids ≥ 1
  NodeId n_ = 0;
  std::shared_ptr<const Topo> topo_;
  std::vector<std::shared_ptr<const DomainTable>> domains_;
  std::vector<double> border_dist_;  // B² exact border-to-border distances
  std::vector<char> active_;         // node up under the mask
  Reachability reach_;
  int shared_domains_ = 0;

  // Active adjacency, one slot per (node, distinct neighbor): ascending
  // neighbor id, carrying the minimum-latency live link (ties: lower link
  // id) — exactly the arc a latency-metric shortest path would use.
  std::vector<std::int64_t> adj_off_;
  std::vector<NodeId> adj_to_;
  std::vector<LinkId> adj_link_;
  std::vector<double> adj_lat_;
};

/// Networks below this node count (or with a single domain) get the dense
/// backend from make_routing_view: bit-identical to the historical tables
/// and O(1) per lookup.
inline constexpr NodeId kDenseRoutingMaxNodes = 2048;

/// The routing view for code that just needs *a* RoutingView: the dense
/// backend below kDenseRoutingMaxNodes nodes (or when the network has no
/// domain structure), the hierarchical backend otherwise.
std::shared_ptr<const RoutingView> make_routing_view(const Network& network);

}  // namespace massf::routing
