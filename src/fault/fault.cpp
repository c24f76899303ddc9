#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace massf::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::LinkDown:
      return "link-down";
    case FaultKind::LinkUp:
      return "link-up";
    case FaultKind::RouterDown:
      return "router-down";
    case FaultKind::RouterUp:
      return "router-up";
  }
  return "?";
}

void FaultPlan::link_down(LinkId link, double at) {
  events_.push_back({at, FaultKind::LinkDown, link});
}

void FaultPlan::link_up(LinkId link, double at) {
  // massf-check: allow(hot-path-alloc) — fault scripts are built before
  // run(); the apparent hot edge is a short-name collision with the const
  // query FaultTimeline::link_up (the analyzer resolves by name, not type).
  events_.push_back({at, FaultKind::LinkUp, link});
}

void FaultPlan::router_down(NodeId node, double at) {
  events_.push_back({at, FaultKind::RouterDown, node});
}

void FaultPlan::router_up(NodeId node, double at) {
  events_.push_back({at, FaultKind::RouterUp, node});
}

void FaultPlan::link_outage(LinkId link, double from, double to) {
  MASSF_REQUIRE(from < to, "link_outage requires from < to");
  link_down(link, from);
  link_up(link, to);
}

void FaultPlan::router_outage(NodeId node, double from, double to) {
  MASSF_REQUIRE(from < to, "router_outage requires from < to");
  router_down(node, from);
  router_up(node, to);
}

std::vector<FaultEvent> FaultPlan::events() const {
  std::vector<FaultEvent> sorted = events_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return std::tie(x.time, x.kind, x.id) <
                            std::tie(y.time, y.kind, y.id);
                   });
  return sorted;
}

void FaultPlan::validate(const Network& network) const {
  for (const FaultEvent& e : events_) {
    MASSF_REQUIRE(std::isfinite(e.time) && e.time >= 0,
                  to_string(e.kind) << " event time must be finite and >= 0, "
                                       "got "
                                    << e.time);
    switch (e.kind) {
      case FaultKind::LinkDown:
      case FaultKind::LinkUp:
        MASSF_REQUIRE(e.id >= 0 && e.id < network.link_count(),
                      to_string(e.kind) << " link id " << e.id
                                        << " out of range (network has "
                                        << network.link_count() << " links)");
        break;
      case FaultKind::RouterDown:
      case FaultKind::RouterUp:
        MASSF_REQUIRE(e.id >= 0 && e.id < network.node_count(),
                      to_string(e.kind) << " node id " << e.id
                                        << " out of range (network has "
                                        << network.node_count() << " nodes)");
        MASSF_REQUIRE(
            network.node(e.id).kind == topology::NodeKind::Router,
            to_string(e.kind) << " target " << network.node(e.id).name
                              << " is a host, not a router");
        break;
    }
  }
}

FaultPlan FaultPlan::random(const Network& network,
                            const RandomFaultParams& params) {
  MASSF_REQUIRE(params.horizon_s > 0, "fault horizon must be positive");
  MASSF_REQUIRE(params.mttr_s > 0, "mttr_s must be positive");
  MASSF_REQUIRE(params.min_repair_s > 0, "min_repair_s must be positive");
  MASSF_REQUIRE(params.link_faults >= 0 && params.router_faults >= 0,
                "fault counts must be non-negative");

  std::vector<LinkId> link_candidates;
  for (LinkId l = 0; l < network.link_count(); ++l) {
    const topology::Link& link = network.link(l);
    const bool router_router =
        network.node(link.a).kind == topology::NodeKind::Router &&
        network.node(link.b).kind == topology::NodeKind::Router;
    if (!params.routers_only || router_router) link_candidates.push_back(l);
  }
  std::vector<NodeId> router_candidates = network.routers();

  MASSF_REQUIRE(params.link_faults == 0 || !link_candidates.empty(),
                "no candidate links for random fault plan");
  MASSF_REQUIRE(params.router_faults == 0 || !router_candidates.empty(),
                "no candidate routers for random fault plan");

  Rng rng(mix_seed(params.seed, 0x8fau));
  FaultPlan plan;
  plan.seed_ = params.seed;

  // Track repair time per resource so outages on one resource never
  // overlap: overlapping set-state events would silently merge and the
  // resulting epochs would not match MTBF/MTTR intent.
  std::vector<double> link_busy_until(
      static_cast<std::size_t>(network.link_count()), 0.0);
  std::vector<double> node_busy_until(
      static_cast<std::size_t>(network.node_count()), 0.0);

  const auto draw_outage = [&](double busy_until, double* from, double* to) {
    // Bounded retries keep generation deterministic even when the horizon
    // is crowded; on exhaustion the fault is simply skipped.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double start = rng.next_double(0.0, params.horizon_s);
      if (start < busy_until) continue;
      const double duration = std::max(params.min_repair_s,
                                       rng.next_exponential(params.mttr_s));
      *from = start;
      *to = start + duration;
      return true;
    }
    return false;
  };

  for (int i = 0; i < params.link_faults; ++i) {
    const LinkId link = rng.pick(link_candidates);
    double from = 0, to = 0;
    if (!draw_outage(link_busy_until[static_cast<std::size_t>(link)], &from,
                     &to)) {
      continue;
    }
    link_busy_until[static_cast<std::size_t>(link)] = to;
    plan.link_outage(link, from, to);
  }
  for (int i = 0; i < params.router_faults; ++i) {
    const NodeId node = rng.pick(router_candidates);
    double from = 0, to = 0;
    if (!draw_outage(node_busy_until[static_cast<std::size_t>(node)], &from,
                     &to)) {
      continue;
    }
    node_busy_until[static_cast<std::size_t>(node)] = to;
    plan.router_outage(node, from, to);
  }
  return plan;
}

FaultTimeline::FaultTimeline(const Network& network, const FaultPlan& plan,
                             RoutingBuilder builder) {
  if (!builder) {
    builder = [](const Network& net, routing::Reachability* reach,
                 const std::vector<char>* links_up,
                 const std::vector<char>* nodes_up,
                 const routing::RoutingView* /*previous*/)
        -> std::shared_ptr<const routing::RoutingView> {
      return std::make_shared<const routing::RoutingTables>(
          routing::RoutingTables::build_partial(net, reach, links_up,
                                                nodes_up));
    };
  }
  plan.validate(network);
  node_count_ = network.node_count();
  link_count_ = network.link_count();
  plan_seed_ = plan.seed();

  const std::vector<FaultEvent> events = plan.events();

  std::vector<char> links_up(static_cast<std::size_t>(link_count_), 1);
  std::vector<char> nodes_up(static_cast<std::size_t>(node_count_), 1);

  // Epoch 0: everything up from t = 0. Events at exactly t = 0 overwrite
  // its masks in the loop below before any routes are computed.
  epochs_.push_back(Epoch{});
  epochs_.back().start = 0;
  epochs_.back().links_up = links_up;
  epochs_.back().nodes_up = nodes_up;

  std::size_t i = 0;
  while (i < events.size()) {
    const double t = events[i].time;
    // Apply the whole same-time group as one state transition.
    while (i < events.size() && events[i].time == t) {
      const FaultEvent& e = events[i];
      const auto idx = static_cast<std::size_t>(e.id);
      switch (e.kind) {
        case FaultKind::LinkDown:
          links_up[idx] = 0;
          break;
        case FaultKind::LinkUp:
          links_up[idx] = 1;
          break;
        case FaultKind::RouterDown:
          nodes_up[idx] = 0;
          break;
        case FaultKind::RouterUp:
          nodes_up[idx] = 1;
          break;
      }
      ++i;
    }
    if (t > 0) {
      epochs_.push_back(Epoch{});
      epochs_.back().start = t;
      boundaries_.push_back(t);
    }
    epochs_.back().links_up = links_up;
    epochs_.back().nodes_up = nodes_up;
  }

  const routing::RoutingView* previous = nullptr;
  for (Epoch& epoch : epochs_) {
    epoch.links_down = static_cast<int>(
        std::count(epoch.links_up.begin(), epoch.links_up.end(), 0));
    epoch.nodes_down = static_cast<int>(
        std::count(epoch.nodes_up.begin(), epoch.nodes_up.end(), 0));

    // Reuse tables from any earlier epoch with identical masks — flapping
    // plans revisit states, and routing tables are the dominant setup cost.
    const Epoch* same = nullptr;
    for (const Epoch& prior : epochs_) {
      if (&prior == &epoch) break;
      if (prior.routes && prior.links_up == epoch.links_up &&
          prior.nodes_up == epoch.nodes_up) {
        same = &prior;
        break;
      }
    }
    if (same) {
      epoch.routes = same->routes;
      epoch.reach = same->reach;
    } else {
      routing::Reachability reach;
      epoch.routes = builder(network, &reach, &epoch.links_up,
                             &epoch.nodes_up, previous);
      MASSF_REQUIRE(epoch.routes != nullptr,
                    "routing builder returned a null view");
      epoch.reach = std::move(reach);
    }
    previous = epoch.routes.get();
  }
}

std::size_t FaultTimeline::epoch_at(double t) const {
  // Last epoch with start <= t. Epoch 0 starts at 0, so t < 0 clamps there.
  std::size_t lo = 0;
  std::size_t hi = epochs_.size();
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (epochs_[mid].start <= t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace massf::fault
