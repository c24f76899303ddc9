#include "routing/hierarchical.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace massf::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---- Lookup memo (see the header comment) ----
// One entry: the answer slot() gave for (src, dst) in the view whose id is
// `view`. Zero-filled entries are empty: view ids start at 1.
struct MemoEntry {
  std::uint32_t view;
  NodeId src;
  NodeId dst;
  std::int32_t slot;
};
static_assert(sizeof(MemoEntry) == 16, "memo entries are 16 bytes");
constexpr int kMemoBits = 14;
// Static thread-local storage, zeroed when each thread starts: the
// forwarding path never allocates for it, but every thread the process
// starts pays the zeroing. 2¹⁴ entries held hier_cbr's ~5.4k hot pairs as
// well as 2¹⁶ did, and 1 MiB per thread start showed in short set-ups.
thread_local MemoEntry t_memo[std::size_t{1} << kMemoBits];

std::size_t memo_index(NodeId src, NodeId dst) {
  const std::uint64_t key =
      (std::uint64_t{static_cast<std::uint32_t>(src)} << 32) |
      static_cast<std::uint32_t>(dst);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - kMemoBits));
}

// Memo tags already handed out by build_partial (from any thread). Tags
// start at 1 and stay unique for 2³² − 1 builds.
std::atomic<std::uint32_t> g_view_ids{0};
}  // namespace

// Mask-independent decomposition of the network: node → (domain, local id),
// per-domain node/link lists, the border set. Shared across fault epochs.
struct HierarchicalRoutingTables::Topo {
  NodeId nodes = 0;
  LinkId links = 0;
  int domains = 0;
  std::vector<int> domain_of;              // per node
  std::vector<int> local_of;               // per node, position in its domain
  std::vector<std::int64_t> dom_node_off;  // domains + 1
  std::vector<NodeId> dom_nodes;           // ascending global ids per domain
  std::vector<std::int64_t> dom_link_off;  // domains + 1
  std::vector<LinkId> dom_links;           // intra-domain links per domain
  std::vector<LinkId> inter_links;         // links joining two domains
  std::vector<NodeId> borders;             // ascending global ids
  std::vector<int> border_index;           // per node; -1 = not a border
  std::vector<std::int64_t> dom_border_off;  // domains + 1
  std::vector<int> dom_borders;            // border indices per domain

  static std::shared_ptr<const Topo> make(const Network& network);
};

std::shared_ptr<const HierarchicalRoutingTables::Topo>
HierarchicalRoutingTables::Topo::make(const Network& network) {
  auto topo = std::make_shared<Topo>();
  const NodeId n = network.node_count();
  topo->nodes = n;
  topo->links = network.link_count();
  topo->domain_of = network.domain_of_nodes();
  int domains = 0;
  for (int d : topo->domain_of) {
    MASSF_REQUIRE(d >= 0, "node domain ids must be non-negative");
    domains = std::max(domains, d + 1);
  }
  topo->domains = domains;

  // Group nodes by domain (ascending global id within each group).
  topo->dom_node_off.assign(static_cast<std::size_t>(domains) + 1, 0);
  for (int d : topo->domain_of) topo->dom_node_off[static_cast<std::size_t>(d) + 1]++;
  for (int i = 0; i < domains; ++i)
    topo->dom_node_off[static_cast<std::size_t>(i) + 1] +=
        topo->dom_node_off[static_cast<std::size_t>(i)];
  topo->dom_nodes.resize(static_cast<std::size_t>(n));
  topo->local_of.resize(static_cast<std::size_t>(n));
  {
    std::vector<std::int64_t> cursor(topo->dom_node_off.begin(),
                                     topo->dom_node_off.end() - 1);
    for (NodeId v = 0; v < n; ++v) {
      const auto d = static_cast<std::size_t>(
          topo->domain_of[static_cast<std::size_t>(v)]);
      const std::int64_t at = cursor[d]++;
      topo->dom_nodes[static_cast<std::size_t>(at)] = v;
      topo->local_of[static_cast<std::size_t>(v)] =
          static_cast<int>(at - topo->dom_node_off[d]);
    }
  }
  for (int i = 0; i < domains; ++i) {
    const std::int64_t size = topo->dom_node_off[static_cast<std::size_t>(i) + 1] -
                              topo->dom_node_off[static_cast<std::size_t>(i)];
    MASSF_REQUIRE(size < 0xFFFF,
                  "domain " << i << " has " << size
                            << " nodes; hierarchical routing supports at most "
                               "65534 per domain — split the domain");
  }

  // Split links into intra-domain (grouped by domain) and inter-domain;
  // endpoints of inter-domain links are the borders.
  std::vector<char> is_border(static_cast<std::size_t>(n), 0);
  topo->dom_link_off.assign(static_cast<std::size_t>(domains) + 1, 0);
  for (LinkId l = 0; l < topo->links; ++l) {
    const topology::Link& link = network.link(l);
    const int da = topo->domain_of[static_cast<std::size_t>(link.a)];
    const int db = topo->domain_of[static_cast<std::size_t>(link.b)];
    if (da == db) {
      topo->dom_link_off[static_cast<std::size_t>(da) + 1]++;
    } else {
      topo->inter_links.push_back(l);
      is_border[static_cast<std::size_t>(link.a)] = 1;
      is_border[static_cast<std::size_t>(link.b)] = 1;
    }
  }
  for (int i = 0; i < domains; ++i)
    topo->dom_link_off[static_cast<std::size_t>(i) + 1] +=
        topo->dom_link_off[static_cast<std::size_t>(i)];
  topo->dom_links.resize(static_cast<std::size_t>(topo->links) -
                         topo->inter_links.size());
  {
    std::vector<std::int64_t> cursor(topo->dom_link_off.begin(),
                                     topo->dom_link_off.end() - 1);
    for (LinkId l = 0; l < topo->links; ++l) {
      const topology::Link& link = network.link(l);
      const int da = topo->domain_of[static_cast<std::size_t>(link.a)];
      if (da != topo->domain_of[static_cast<std::size_t>(link.b)]) continue;
      topo->dom_links[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(da)]++)] = l;
    }
  }

  topo->border_index.assign(static_cast<std::size_t>(n), -1);
  topo->dom_border_off.assign(static_cast<std::size_t>(domains) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!is_border[static_cast<std::size_t>(v)]) continue;
    topo->border_index[static_cast<std::size_t>(v)] =
        static_cast<int>(topo->borders.size());
    topo->borders.push_back(v);
    topo->dom_border_off[static_cast<std::size_t>(
        topo->domain_of[static_cast<std::size_t>(v)]) + 1]++;
  }
  for (int i = 0; i < domains; ++i)
    topo->dom_border_off[static_cast<std::size_t>(i) + 1] +=
        topo->dom_border_off[static_cast<std::size_t>(i)];
  topo->dom_borders.resize(topo->borders.size());
  {
    std::vector<std::int64_t> cursor(topo->dom_border_off.begin(),
                                     topo->dom_border_off.end() - 1);
    for (int b = 0; b < static_cast<int>(topo->borders.size()); ++b) {
      const auto d = static_cast<std::size_t>(topo->domain_of[
          static_cast<std::size_t>(topo->borders[static_cast<std::size_t>(b)])]);
      topo->dom_borders[static_cast<std::size_t>(cursor[d]++)] = b;
    }
  }
  return topo;
}

HierarchicalRoutingTables HierarchicalRoutingTables::build(
    const Network& network) {
  Reachability reach;
  HierarchicalRoutingTables tables = build_partial(network, &reach);
  MASSF_REQUIRE(reach.fully_connected(),
                "network is not connected ("
                    << reach.component_count
                    << " components); use build_partial (or a "
                       "fault::FaultTimeline) to route the surviving "
                       "components explicitly");
  return tables;
}

HierarchicalRoutingTables HierarchicalRoutingTables::build_partial(
    const Network& network, Reachability* reachability,
    const std::vector<char>* links_up, const std::vector<char>* nodes_up,
    const HierarchicalRoutingTables* previous) {
  const NodeId n = network.node_count();
  MASSF_REQUIRE(n > 0, "cannot route an empty network");
  MASSF_REQUIRE(!links_up ||
                    links_up->size() ==
                        static_cast<std::size_t>(network.link_count()),
                "links_up mask size must equal link count");
  MASSF_REQUIRE(!nodes_up ||
                    nodes_up->size() == static_cast<std::size_t>(n),
                "nodes_up mask size must equal node count");

  HierarchicalRoutingTables h;
  h.view_id_ = g_view_ids.fetch_add(1) + 1;
  h.n_ = n;
  if (previous != nullptr) {
    MASSF_REQUIRE(previous->topo_ && previous->topo_->nodes == n &&
                      previous->topo_->links == network.link_count(),
                  "previous hierarchical tables were built from a different "
                  "network");
    h.topo_ = previous->topo_;
  } else {
    h.topo_ = Topo::make(network);
  }
  const Topo& topo = *h.topo_;
  const int domains = topo.domains;

  h.active_.assign(static_cast<std::size_t>(n), 1);
  if (nodes_up) {
    for (NodeId v = 0; v < n; ++v)
      h.active_[static_cast<std::size_t>(v)] =
          (*nodes_up)[static_cast<std::size_t>(v)] ? 1 : 0;
  }
  const auto link_active = [&](LinkId l) {
    return !links_up || (*links_up)[static_cast<std::size_t>(l)] != 0;
  };
  const auto node_active = [&](NodeId v) {
    return h.active_[static_cast<std::size_t>(v)] != 0;
  };

  // ---- Global active adjacency, one slot per distinct live neighbor ----
  // (ascending neighbor; the slot carries the minimum-latency live link,
  // ties broken toward the lower link id — the arc a latency-metric
  // shortest path would take).
  {
    struct Half {
      NodeId to;
      double lat;
      LinkId link;
    };
    std::vector<std::int64_t> deg(static_cast<std::size_t>(n) + 1, 0);
    for (LinkId l = 0; l < network.link_count(); ++l) {
      const topology::Link& link = network.link(l);
      if (!link_active(l) || !node_active(link.a) || !node_active(link.b))
        continue;
      deg[static_cast<std::size_t>(link.a) + 1]++;
      deg[static_cast<std::size_t>(link.b) + 1]++;
    }
    for (NodeId v = 0; v < n; ++v)
      deg[static_cast<std::size_t>(v) + 1] += deg[static_cast<std::size_t>(v)];
    std::vector<Half> halves(static_cast<std::size_t>(deg.back()));
    std::vector<std::int64_t> cursor(deg.begin(), deg.end() - 1);
    for (LinkId l = 0; l < network.link_count(); ++l) {
      const topology::Link& link = network.link(l);
      if (!link_active(l) || !node_active(link.a) || !node_active(link.b))
        continue;
      halves[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(link.a)]++)] = {link.b,
                                                          link.latency_s, l};
      halves[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(link.b)]++)] = {link.a,
                                                          link.latency_s, l};
    }
    h.adj_off_.assign(static_cast<std::size_t>(n) + 1, 0);
    h.adj_to_.reserve(halves.size());
    h.adj_link_.reserve(halves.size());
    h.adj_lat_.reserve(halves.size());
    for (NodeId v = 0; v < n; ++v) {
      const auto begin = halves.begin() + deg[static_cast<std::size_t>(v)];
      const auto end = halves.begin() + deg[static_cast<std::size_t>(v) + 1];
      std::sort(begin, end, [](const Half& x, const Half& y) {
        if (x.to != y.to) return x.to < y.to;
        if (x.lat != y.lat) return x.lat < y.lat;
        return x.link < y.link;
      });
      for (auto it = begin; it != end; ++it) {
        if (it != begin && it->to == (it - 1)->to) continue;  // keep best
        h.adj_to_.push_back(it->to);
        h.adj_link_.push_back(it->link);
        h.adj_lat_.push_back(it->lat);
      }
      h.adj_off_[static_cast<std::size_t>(v) + 1] =
          static_cast<std::int64_t>(h.adj_to_.size());
    }
    constexpr auto kMaxSlots = static_cast<std::size_t>(
        std::numeric_limits<std::int32_t>::max());
    MASSF_REQUIRE(h.adj_to_.size() <= kMaxSlots,
                  "adjacency slots must fit the 32-bit lookup memo");
  }

  // ---- Per-domain restricted all-pairs tables ----
  // The calling thread decides sharing and allocates every new table in
  // domain order (the lookups read these tables over a whole run, so their
  // layout must not depend on the worker count); the workers only fill
  // them, each domain from its own scratch. Every table cell is written by
  // exactly one job with the same operations as the plain loop, so the
  // tables are bit-identical for every W.
  h.domains_.resize(static_cast<std::size_t>(domains));
  h.shared_domains_ = 0;
  std::vector<std::pair<int, DomainTable*>> to_fill;  // (domain, table)
  for (int i = 0; i < domains; ++i) {
    const std::int64_t node_lo = topo.dom_node_off[static_cast<std::size_t>(i)];
    const int d = static_cast<int>(
        topo.dom_node_off[static_cast<std::size_t>(i) + 1] - node_lo);
    const std::int64_t link_lo = topo.dom_link_off[static_cast<std::size_t>(i)];
    const std::int64_t link_hi =
        topo.dom_link_off[static_cast<std::size_t>(i) + 1];

    std::vector<char> node_mask(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k)
      node_mask[static_cast<std::size_t>(k)] = h.active_[static_cast<std::size_t>(
          topo.dom_nodes[static_cast<std::size_t>(node_lo + k)])];
    std::vector<char> link_mask(static_cast<std::size_t>(link_hi - link_lo));
    for (std::int64_t k = link_lo; k < link_hi; ++k)
      link_mask[static_cast<std::size_t>(k - link_lo)] =
          link_active(topo.dom_links[static_cast<std::size_t>(k)]) ? 1 : 0;

    if (previous != nullptr) {
      const auto& prior = previous->domains_[static_cast<std::size_t>(i)];
      if (prior && prior->node_mask == node_mask &&
          prior->link_mask == link_mask) {
        h.domains_[static_cast<std::size_t>(i)] = prior;
        h.shared_domains_++;
        continue;
      }
    }

    DomainTable dt;
    dt.size = d;
    dt.dist.assign(static_cast<std::size_t>(d) * static_cast<std::size_t>(d),
                   kInf);
    dt.next.assign(static_cast<std::size_t>(d) * static_cast<std::size_t>(d),
                   kNoHop);
    dt.node_mask = std::move(node_mask);
    dt.link_mask = std::move(link_mask);
    auto table = std::make_shared<DomainTable>(std::move(dt));
    to_fill.push_back({i, table.get()});
    h.domains_[static_cast<std::size_t>(i)] = std::move(table);
  }

  // Per-worker scratch, reused across the jobs one worker runs. The heap
  // is a plain vector under push_heap/pop_heap with std::greater — the
  // operations std::priority_queue performs — so pop order is unchanged,
  // without an allocation per Dijkstra source.
  using Item = std::pair<double, int>;
  struct Scratch {
    std::vector<double> sdist;
    std::vector<int> parent;
    std::vector<char> done;
    std::vector<int> settle;
    std::vector<Item> heap;
    std::vector<std::int64_t> ladj_off;
    std::vector<std::int64_t> cursor;
    std::vector<int> ladj_to;
    std::vector<double> ladj_lat;
  };
  std::vector<Scratch> scratch(util::usable_cpus());
  const auto heap_push = [](std::vector<Item>& heap, double dist, int node) {
    heap.emplace_back(dist, node);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };
  const auto heap_pop = [](std::vector<Item>& heap) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const Item top = heap.back();
    heap.pop_back();
    return top;
  };

  util::parallel_for(to_fill.size(), [&](std::size_t worker, std::size_t job) {
    const auto [i, table] = to_fill[job];
    DomainTable& dt = *table;
    Scratch& s = scratch[worker];
    const int d = dt.size;
    const std::int64_t link_lo = topo.dom_link_off[static_cast<std::size_t>(i)];
    const std::int64_t link_hi =
        topo.dom_link_off[static_cast<std::size_t>(i) + 1];
    if (s.sdist.size() < static_cast<std::size_t>(d)) {
      s.sdist.resize(static_cast<std::size_t>(d));
      s.parent.resize(static_cast<std::size_t>(d));
      s.done.resize(static_cast<std::size_t>(d));
      s.settle.reserve(static_cast<std::size_t>(d));
    }

    // Local adjacency over the domain's live intra links (both
    // directions; parallel links kept — the Dijkstra relaxes each).
    s.ladj_off.assign(static_cast<std::size_t>(d) + 1, 0);
    for (std::int64_t k = link_lo; k < link_hi; ++k) {
      if (!dt.link_mask[static_cast<std::size_t>(k - link_lo)]) continue;
      const topology::Link& link =
          network.link(topo.dom_links[static_cast<std::size_t>(k)]);
      if (!node_active(link.a) || !node_active(link.b)) continue;
      s.ladj_off[static_cast<std::size_t>(
          topo.local_of[static_cast<std::size_t>(link.a)]) + 1]++;
      s.ladj_off[static_cast<std::size_t>(
          topo.local_of[static_cast<std::size_t>(link.b)]) + 1]++;
    }
    for (int v = 0; v < d; ++v)
      s.ladj_off[static_cast<std::size_t>(v) + 1] +=
          s.ladj_off[static_cast<std::size_t>(v)];
    s.ladj_to.resize(
        static_cast<std::size_t>(s.ladj_off[static_cast<std::size_t>(d)]));
    s.ladj_lat.resize(s.ladj_to.size());
    s.cursor.assign(s.ladj_off.begin(), s.ladj_off.end() - 1);
    for (std::int64_t k = link_lo; k < link_hi; ++k) {
      if (!dt.link_mask[static_cast<std::size_t>(k - link_lo)]) continue;
      const topology::Link& link =
          network.link(topo.dom_links[static_cast<std::size_t>(k)]);
      if (!node_active(link.a) || !node_active(link.b)) continue;
      const int la = topo.local_of[static_cast<std::size_t>(link.a)];
      const int lb = topo.local_of[static_cast<std::size_t>(link.b)];
      std::int64_t at = s.cursor[static_cast<std::size_t>(la)]++;
      s.ladj_to[static_cast<std::size_t>(at)] = lb;
      s.ladj_lat[static_cast<std::size_t>(at)] = link.latency_s;
      at = s.cursor[static_cast<std::size_t>(lb)]++;
      s.ladj_to[static_cast<std::size_t>(at)] = la;
      s.ladj_lat[static_cast<std::size_t>(at)] = link.latency_s;
    }

    // Restricted Dijkstra from every live local source, with the dense
    // backend's tie-break (strict improvement, or equal cost with a
    // lower-id parent) so restricted first hops match it bit-for-bit.
    for (int ls = 0; ls < d; ++ls) {
      if (!dt.node_mask[static_cast<std::size_t>(ls)]) continue;
      std::fill(s.sdist.begin(), s.sdist.begin() + d, kInf);
      std::fill(s.parent.begin(), s.parent.begin() + d, -1);
      std::fill(s.done.begin(), s.done.begin() + d, 0);
      s.settle.clear();
      s.heap.clear();
      s.sdist[static_cast<std::size_t>(ls)] = 0;
      heap_push(s.heap, 0.0, ls);
      while (!s.heap.empty()) {
        const auto [dd, u] = heap_pop(s.heap);
        if (s.done[static_cast<std::size_t>(u)]) continue;
        s.done[static_cast<std::size_t>(u)] = 1;
        s.settle.push_back(u);
        for (std::int64_t k = s.ladj_off[static_cast<std::size_t>(u)];
             k < s.ladj_off[static_cast<std::size_t>(u) + 1]; ++k) {
          const int to = s.ladj_to[static_cast<std::size_t>(k)];
          const double cand = dd + s.ladj_lat[static_cast<std::size_t>(k)];
          double& best = s.sdist[static_cast<std::size_t>(to)];
          const bool improves =
              cand < best ||
              (cand == best && s.parent[static_cast<std::size_t>(to)] >= 0 &&
               u < s.parent[static_cast<std::size_t>(to)]);
          if (improves && !s.done[static_cast<std::size_t>(to)]) {
            best = cand;
            s.parent[static_cast<std::size_t>(to)] = u;
            heap_push(s.heap, cand, to);
          }
        }
      }
      double* drow = dt.dist.data() +
                     static_cast<std::size_t>(ls) * static_cast<std::size_t>(d);
      std::uint16_t* nrow = dt.next.data() + static_cast<std::size_t>(ls) *
                                                 static_cast<std::size_t>(d);
      for (const int v : s.settle) {
        drow[v] = s.sdist[static_cast<std::size_t>(v)];
        if (v == ls) {
          nrow[v] = static_cast<std::uint16_t>(ls);
          continue;
        }
        const int p = s.parent[static_cast<std::size_t>(v)];
        nrow[v] = p == ls ? static_cast<std::uint16_t>(v) : nrow[p];
      }
    }
  });

  // ---- Exact border-to-border distances over the quotient graph ----
  // (vertices: borders; edges: restricted intra-domain border pairs plus
  // live inter-domain links — exact because every shortest path decomposes
  // into maximal intra-domain segments between borders). The graph is built
  // here; the rows, one Dijkstra per live border, fan out like the domains.
  const int B = static_cast<int>(topo.borders.size());
  h.border_dist_.assign(static_cast<std::size_t>(B) * static_cast<std::size_t>(B),
                        kInf);
  if (B > 0) {
    std::vector<std::vector<std::pair<int, double>>> badj(
        static_cast<std::size_t>(B));
    for (int i = 0; i < domains; ++i) {
      const DomainTable& dt = h.domain_table(i);
      const std::int64_t blo = topo.dom_border_off[static_cast<std::size_t>(i)];
      const std::int64_t bhi =
          topo.dom_border_off[static_cast<std::size_t>(i) + 1];
      for (std::int64_t x = blo; x < bhi; ++x) {
        const int a = topo.dom_borders[static_cast<std::size_t>(x)];
        const int la = topo.local_of[static_cast<std::size_t>(
            topo.borders[static_cast<std::size_t>(a)])];
        for (std::int64_t y = x + 1; y < bhi; ++y) {
          const int b = topo.dom_borders[static_cast<std::size_t>(y)];
          const int lb = topo.local_of[static_cast<std::size_t>(
              topo.borders[static_cast<std::size_t>(b)])];
          const double w = dt.dist[static_cast<std::size_t>(la) *
                                       static_cast<std::size_t>(dt.size) +
                                   static_cast<std::size_t>(lb)];
          if (!(w < kInf)) continue;
          badj[static_cast<std::size_t>(a)].emplace_back(b, w);
          badj[static_cast<std::size_t>(b)].emplace_back(a, w);
        }
      }
    }
    for (const LinkId l : topo.inter_links) {
      if (!link_active(l)) continue;
      const topology::Link& link = network.link(l);
      if (!node_active(link.a) || !node_active(link.b)) continue;
      const int a = topo.border_index[static_cast<std::size_t>(link.a)];
      const int b = topo.border_index[static_cast<std::size_t>(link.b)];
      badj[static_cast<std::size_t>(a)].emplace_back(b, link.latency_s);
      badj[static_cast<std::size_t>(b)].emplace_back(a, link.latency_s);
    }

    util::parallel_for(static_cast<std::size_t>(B), [&](std::size_t worker,
                                                         std::size_t source) {
      const int a = static_cast<int>(source);
      if (!node_active(topo.borders[source])) return;
      Scratch& s = scratch[worker];
      double* row = h.border_dist_.data() +
                    static_cast<std::size_t>(a) * static_cast<std::size_t>(B);
      s.done.assign(static_cast<std::size_t>(B), 0);
      s.heap.clear();
      row[a] = 0;
      heap_push(s.heap, 0.0, a);
      while (!s.heap.empty()) {
        const auto [dd, u] = heap_pop(s.heap);
        if (s.done[static_cast<std::size_t>(u)]) continue;
        s.done[static_cast<std::size_t>(u)] = 1;
        for (const auto& [to, w] : badj[static_cast<std::size_t>(u)]) {
          const double cand = dd + w;
          if (cand < row[to] && !s.done[static_cast<std::size_t>(to)]) {
            row[to] = cand;
            heap_push(s.heap, cand, to);
          }
        }
      }
    });
  }

  // ---- Reachability: BFS component labels over the live adjacency ----
  // (ascending source order, so labels match the dense backend's).
  h.reach_.component.assign(static_cast<std::size_t>(n), -1);
  h.reach_.component_count = 0;
  h.reach_.inactive_nodes = 0;
  {
    std::vector<NodeId> queue;
    for (NodeId v = 0; v < n; ++v) {
      if (!node_active(v)) {
        h.reach_.inactive_nodes++;
        continue;
      }
      if (h.reach_.component[static_cast<std::size_t>(v)] >= 0) continue;
      const int label = h.reach_.component_count++;
      queue.clear();
      queue.push_back(v);
      h.reach_.component[static_cast<std::size_t>(v)] = label;
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const NodeId u = queue[head];
        for (std::int64_t k = h.adj_off_[static_cast<std::size_t>(u)];
             k < h.adj_off_[static_cast<std::size_t>(u) + 1]; ++k) {
          const NodeId to = h.adj_to_[static_cast<std::size_t>(k)];
          if (h.reach_.component[static_cast<std::size_t>(to)] >= 0) continue;
          h.reach_.component[static_cast<std::size_t>(to)] = label;
          queue.push_back(to);
        }
      }
    }
  }
  if (reachability) *reachability = h.reach_;
  return h;
}

double HierarchicalRoutingTables::dist_to_border(int domain, NodeId x,
                                                 int border) const {
  const Topo& topo = *topo_;
  const DomainTable& dt = domain_table(domain);
  const int lx = topo.local_of[static_cast<std::size_t>(x)];
  const int lb = topo.local_of[static_cast<std::size_t>(
      topo.borders[static_cast<std::size_t>(border)])];
  return dt.dist[static_cast<std::size_t>(lx) *
                     static_cast<std::size_t>(dt.size) +
                 static_cast<std::size_t>(lb)];
}

double HierarchicalRoutingTables::distance(NodeId src, NodeId dst) const {
  MASSF_REQUIRE(src >= 0 && src < n_, "source out of range");
  MASSF_REQUIRE(dst >= 0 && dst < n_, "destination out of range");
  if (!active_[static_cast<std::size_t>(src)] ||
      !active_[static_cast<std::size_t>(dst)]) {
    return kInf;
  }
  if (src == dst) return 0.0;
  if (!reach_.pair_reachable(src, dst)) return kInf;
  const Topo& topo = *topo_;
  const int i = topo.domain_of[static_cast<std::size_t>(src)];
  const int j = topo.domain_of[static_cast<std::size_t>(dst)];
  double best = kInf;
  if (i == j) {
    const DomainTable& dt = domain_table(i);
    best = dt.dist[static_cast<std::size_t>(
                       topo.local_of[static_cast<std::size_t>(src)]) *
                       static_cast<std::size_t>(dt.size) +
                   static_cast<std::size_t>(
                       topo.local_of[static_cast<std::size_t>(dst)])];
  }
  const int B = static_cast<int>(topo.borders.size());
  const std::int64_t ilo = topo.dom_border_off[static_cast<std::size_t>(i)];
  const std::int64_t ihi = topo.dom_border_off[static_cast<std::size_t>(i) + 1];
  const std::int64_t jlo = topo.dom_border_off[static_cast<std::size_t>(j)];
  const std::int64_t jhi = topo.dom_border_off[static_cast<std::size_t>(j) + 1];
  for (std::int64_t x = ilo; x < ihi; ++x) {
    const int a = topo.dom_borders[static_cast<std::size_t>(x)];
    const double da = dist_to_border(i, src, a);
    if (!(da < best)) continue;  // da >= best (or inf) can't improve
    const double* row = border_dist_.data() +
                        static_cast<std::size_t>(a) * static_cast<std::size_t>(B);
    for (std::int64_t y = jlo; y < jhi; ++y) {
      const int b = topo.dom_borders[static_cast<std::size_t>(y)];
      const double bd = row[b];
      if (!(bd < kInf)) continue;
      const double db = dist_to_border(j, dst, b);
      const double total = da + bd + db;
      if (total < best) best = total;
    }
  }
  return best;
}

std::int64_t HierarchicalRoutingTables::best_neighbor(NodeId src,
                                                      NodeId dst) const {
  std::int64_t best = -1;
  double best_cost = kInf;
  for (std::int64_t k = adj_off_[static_cast<std::size_t>(src)];
       k < adj_off_[static_cast<std::size_t>(src) + 1]; ++k) {
    const double dv = distance(adj_to_[static_cast<std::size_t>(k)], dst);
    if (!(dv < kInf)) continue;
    const double cost = adj_lat_[static_cast<std::size_t>(k)] + dv;
    // Strict improvement over ascending neighbor ids: exact ties resolve to
    // the lowest-id neighbor, like the dense backend.
    if (cost < best_cost) {
      best_cost = cost;
      best = k;
    }
  }
  return best;
}

std::int64_t HierarchicalRoutingTables::slot(NodeId src, NodeId dst) const {
  MASSF_REQUIRE(src >= 0 && src < n_, "source out of range");
  MASSF_REQUIRE(dst >= 0 && dst < n_, "destination out of range");
  if (src == dst) return active_[static_cast<std::size_t>(src)] ? kSelf : -1;
  if (!active_[static_cast<std::size_t>(src)] ||
      !active_[static_cast<std::size_t>(dst)] ||
      !reach_.pair_reachable(src, dst)) {
    return -1;
  }
  const Topo& topo = *topo_;
  const int i = topo.domain_of[static_cast<std::size_t>(src)];
  const int j = topo.domain_of[static_cast<std::size_t>(dst)];
  if (i == j) {
    // Same-domain fast path: when the restricted intra-domain route is
    // already optimal (it almost always is), answer from the O(1) local
    // first-hop table. Only when leaving the domain is strictly shorter
    // does the neighbor argmin below take over.
    const DomainTable& dt = domain_table(i);
    const int ls = topo.local_of[static_cast<std::size_t>(src)];
    const int lt = topo.local_of[static_cast<std::size_t>(dst)];
    const double intra = dt.dist[static_cast<std::size_t>(ls) *
                                     static_cast<std::size_t>(dt.size) +
                                 static_cast<std::size_t>(lt)];
    double detour = kInf;
    const int B = static_cast<int>(topo.borders.size());
    const std::int64_t blo = topo.dom_border_off[static_cast<std::size_t>(i)];
    const std::int64_t bhi =
        topo.dom_border_off[static_cast<std::size_t>(i) + 1];
    for (std::int64_t x = blo; x < bhi; ++x) {
      const int a = topo.dom_borders[static_cast<std::size_t>(x)];
      const double da = dist_to_border(i, src, a);
      if (!(da < detour)) continue;
      const double* row = border_dist_.data() + static_cast<std::size_t>(a) *
                                                    static_cast<std::size_t>(B);
      for (std::int64_t y = blo; y < bhi; ++y) {
        const int b = topo.dom_borders[static_cast<std::size_t>(y)];
        if (!(row[b] < kInf)) continue;
        const double total = da + row[b] + dist_to_border(i, dst, b);
        if (total < detour) detour = total;
      }
    }
    if (intra <= detour) {
      const std::uint16_t local = dt.next[static_cast<std::size_t>(ls) *
                                              static_cast<std::size_t>(dt.size) +
                                          static_cast<std::size_t>(lt)];
      MASSF_CHECK(local != kNoHop, "reachable intra pair without a first hop");
      const NodeId hop = topo.dom_nodes[static_cast<std::size_t>(
          topo.dom_node_off[static_cast<std::size_t>(i)] + local)];
      // The hop's adjacency slot (ascending neighbor ids).
      const auto begin = adj_to_.begin() + adj_off_[static_cast<std::size_t>(src)];
      const auto end = adj_to_.begin() + adj_off_[static_cast<std::size_t>(src) + 1];
      const auto it = std::lower_bound(begin, end, hop);
      MASSF_CHECK(it != end && *it == hop, "intra first hop missing from adjacency");
      return it - adj_to_.begin();
    }
  }
  const std::int64_t k = best_neighbor(src, dst);
  MASSF_CHECK(k >= 0, "reachable pair without a best neighbor");
  return k;
}

void HierarchicalRoutingTables::lookup(NodeId src, NodeId dst, NodeId* hop,
                                       LinkId* link) const {
  // Written only after slot() returns: a pair it rejects is never cached.
  MemoEntry& e = t_memo[memo_index(src, dst)];
  if (e.view != view_id_ || e.src != src || e.dst != dst)
    e = MemoEntry{view_id_, src, dst,
                  static_cast<std::int32_t>(slot(src, dst))};
  if (e.slot >= 0) {
    *hop = adj_to_[static_cast<std::size_t>(e.slot)];
    *link = adj_link_[static_cast<std::size_t>(e.slot)];
  } else {
    *hop = e.slot == kSelf ? src : -1;
    *link = -1;
  }
}

NodeId HierarchicalRoutingTables::next_hop(NodeId src, NodeId dst) const {
  NodeId hop;
  LinkId link;
  lookup(src, dst, &hop, &link);
  return hop;
}

LinkId HierarchicalRoutingTables::next_link(NodeId src, NodeId dst) const {
  NodeId hop;
  LinkId link;
  lookup(src, dst, &hop, &link);
  return link;
}

std::size_t HierarchicalRoutingTables::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& dt : domains_) {
    if (!dt) continue;
    total += dt->dist.capacity() * sizeof(double) +
             dt->next.capacity() * sizeof(std::uint16_t) +
             dt->node_mask.capacity() + dt->link_mask.capacity();
  }
  total += border_dist_.capacity() * sizeof(double);
  total += active_.capacity();
  total += reach_.component.capacity() * sizeof(int);
  total += adj_off_.capacity() * sizeof(std::int64_t) +
           adj_to_.capacity() * sizeof(NodeId) +
           adj_link_.capacity() * sizeof(LinkId) +
           adj_lat_.capacity() * sizeof(double);
  if (topo_) {
    const Topo& t = *topo_;
    total += t.domain_of.capacity() * sizeof(int) +
             t.local_of.capacity() * sizeof(int) +
             t.dom_node_off.capacity() * sizeof(std::int64_t) +
             t.dom_nodes.capacity() * sizeof(NodeId) +
             t.dom_link_off.capacity() * sizeof(std::int64_t) +
             t.dom_links.capacity() * sizeof(LinkId) +
             t.inter_links.capacity() * sizeof(LinkId) +
             t.borders.capacity() * sizeof(NodeId) +
             t.border_index.capacity() * sizeof(int) +
             t.dom_border_off.capacity() * sizeof(std::int64_t) +
             t.dom_borders.capacity() * sizeof(int);
  }
  return total;
}

int HierarchicalRoutingTables::domain_count() const { return topo_->domains; }

int HierarchicalRoutingTables::border_count() const {
  return static_cast<int>(topo_->borders.size());
}

std::shared_ptr<const RoutingView> make_routing_view(const Network& network) {
  if (network.node_count() < kDenseRoutingMaxNodes ||
      network.domain_count() <= 1)
    return std::make_shared<const RoutingTables>(
        RoutingTables::build_partial(network));
  return std::make_shared<const HierarchicalRoutingTables>(
      HierarchicalRoutingTables::build_partial(network));
}

}  // namespace massf::routing
