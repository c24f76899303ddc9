#include "rebalance/rebalancer.hpp"

#include <algorithm>

#include "emu/emulator.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace massf::rebalance {

namespace {
/// Upper bound on registered safepoints (quiescing has a cost; see
/// KernelStats::safepoints).
constexpr int kMaxSafepoints = 64;
}  // namespace

Controller::Controller(const topology::Network& network,
                       const routing::RoutingView& routes,
                       RebalanceConfig config)
    : mapper_(network, routes),
      config_(config),
      monitor_(config.window_s),
      policy_(config.policy) {
  MASSF_REQUIRE(config_.start_s > 0, "first safepoint must be after t=0");
  MASSF_REQUIRE(config_.period_s > 0, "safepoint period must be positive");
}

void Controller::install(emu::Emulator& emulator, SimTime horizon) {
  MASSF_REQUIRE(&emulator.network() == &mapper_.network(),
                "controller and emulator must share one network");
  monitor_.reset(config_.window_s);
  policy_ = RebalancePolicy(config_.policy);
  decisions_.clear();

  int count = 0;
  for (SimTime t = config_.start_s;
       t < horizon && count < kMaxSafepoints;
       t += config_.period_s, ++count) {
    emulator.add_rebalance_safepoint(t);
  }
  emulator.set_rebalance_hook([this, &emulator, horizon](SimTime t) {
    on_safepoint(emulator, t, horizon);
  });
}

namespace {
constexpr std::uint32_t kTagController = 0x72626374;  // "rbct"
// Minimum encoded size of one decision record.
constexpr std::size_t kDecisionBytes = 6 * 8 + 1;
}  // namespace

template <class Io, class Self>
void Controller::serialize(Io& io, Self& self) {
  io.tag(kTagController, "rebalance-controller section");
  io.nested(self.monitor_);
  int streak = self.policy_.streak();
  double last_migration = self.policy_.last_migration();
  io.i64(streak);
  io.f64(last_migration);
  if constexpr (Io::kLoading)
    self.policy_.restore_state(streak, last_migration);
  io.len(self.decisions_, kDecisionBytes, "rebalance-controller section");
  for (auto& d : self.decisions_) {
    io.f64(d.t);
    io.f64(d.imbalance);
    io.f64(d.projected_before);
    io.f64(d.projected_after);
    io.f64(d.migration_bytes);
    io.i64(d.nodes_moved);
    io.u8(d.migrated);
  }
}

void Controller::save_state(ckpt::Writer& w) const { serialize(w, *this); }

void Controller::load_state(ckpt::Reader& r) { serialize(r, *this); }

std::vector<double> Controller::project_loads(
    const std::vector<double>& node_rates, const std::vector<int>& assignment,
    int engines) {
  std::vector<double> loads(static_cast<std::size_t>(engines), 0.0);
  for (std::size_t n = 0; n < node_rates.size(); ++n)
    loads[static_cast<std::size_t>(assignment[n])] += node_rates[n];
  return loads;
}

void Controller::on_safepoint(emu::Emulator& emulator, SimTime t,
                              SimTime horizon) {
  monitor_.sample(emulator, t);

  RebalanceDecision decision;
  decision.t = t;
  decision.imbalance = monitor_.imbalance();

  // A single engine has nothing to balance; below two samples the monitor
  // has no rates yet. Either way the policy is not even consulted, so
  // degenerate runs provably never migrate.
  if (emulator.engines() < 2 || monitor_.samples() < 2 ||
      !policy_.should_consider(decision.imbalance, t)) {
    decisions_.push_back(decision);
    return;
  }

  const std::vector<double> node_rates = monitor_.node_rates();
  const std::vector<double> link_rates = monitor_.link_rates();
  if (node_rates.empty()) {  // NetFlow disabled: no per-node signal
    decisions_.push_back(decision);
    return;
  }

  mapping::MappingOptions options = config_.mapping;
  options.engines = emulator.engines();
  const mapping::MappingResult proposal = mapper_.map_incremental(
      emulator.node_engine(), node_rates, link_rates, options);

  // Compare observed node rates projected under the live vs the proposed
  // assignment — the same signal on both sides, unlike the trigger metric
  // (engine event rates), which includes engine-local work the proposal
  // cannot predict.
  const std::vector<double> before =
      project_loads(node_rates, emulator.node_engine(), emulator.engines());
  const std::vector<double> after =
      project_loads(node_rates, proposal.node_engine, emulator.engines());

  CostBenefit cb;
  cb.current_imbalance = max_over_mean(before);
  cb.projected_imbalance = max_over_mean(after);
  cb.observed_event_rate = monitor_.observed_event_rate();
  cb.remaining_s = std::max(0.0, horizon - t);
  cb.migration_bytes = emulator.estimate_migration_bytes(proposal.node_engine);
  cb.lookahead_before = emulator.lookahead();
  cb.lookahead_after = proposal.lookahead;
  cb.nodes_moved = 0;
  for (std::size_t n = 0; n < proposal.node_engine.size(); ++n)
    if (proposal.node_engine[n] != emulator.node_engine()[n]) ++cb.nodes_moved;

  decision.projected_before = cb.current_imbalance;
  decision.projected_after = cb.projected_imbalance;
  decision.migration_bytes = cb.migration_bytes;

  if (policy_.accept(cb)) {
    decision.nodes_moved = emulator.migrate_nodes(proposal.node_engine);
    decision.migrated = decision.nodes_moved > 0;
    if (decision.migrated) policy_.on_migrated(t);
  }
  decisions_.push_back(decision);
}

}  // namespace massf::rebalance
