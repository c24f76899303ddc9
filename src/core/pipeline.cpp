#include "core/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <sstream>

#include "graph/algorithms.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace massf::mapping {

std::vector<double> RunMetrics::imbalance_series() const {
  std::vector<double> out;
  if (engine_series.empty()) return out;
  const std::size_t buckets = engine_series.front().size();
  out.reserve(buckets);
  std::vector<double> column(engine_series.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    for (std::size_t e = 0; e < engine_series.size(); ++e)
      column[e] = engine_series[e][b];
    out.push_back(normalized_imbalance(column));
  }
  return out;
}

std::string summarize(const MappingResult& mapping,
                      const RunMetrics& metrics) {
  std::ostringstream out;
  out << std::setprecision(4);
  out << "mapping   " << approach_name(mapping.approach) << ": "
      << mapping.engines << " engines, " << mapping.links_cut
      << " links cut, lookahead " << mapping.lookahead * 1e3 << " ms";
  if (!mapping.pair_lookaheads.empty()) {
    out << "\n  pair lookaheads:";
    for (const EnginePairLookahead& pair : mapping.pair_lookaheads)
      out << " " << pair.a << "<->" << pair.b << ": "
          << pair.lookahead * 1e3 << " ms";
  }
  out << "\nsync      " << des::to_string(metrics.sync_mode);
  if (metrics.sync_mode == des::SyncMode::ChannelLookahead) {
    out << ": " << metrics.channel_advances << " channel advances, "
        << metrics.idle_jumps << " idle jumps";
    std::uint64_t throttled = 0;
    for (const des::ChannelStat& channel : metrics.channels)
      throttled += channel.throttled;
    out << ", " << metrics.channels.size() << " channels ("
        << throttled << " throttle stalls)";
  } else {
    out << ": " << metrics.windows << " windows";
  }
  // Per-epoch fault stats are part of the same table regardless of the
  // sync protocol: epochs are a property of the fault timeline, not of how
  // engines synchronize (this used to be printed only by fault-specific
  // examples, so ChannelLookahead runs silently lost it).
  if (!metrics.epochs.empty()) {
    out << "\nfaults    " << metrics.epochs.size() << " routing epochs";
    for (std::size_t e = 0; e < metrics.epochs.size(); ++e) {
      const emu::EpochStats& ep = metrics.epochs[e];
      out << "\n  e" << e << " [" << ep.start << ", " << ep.end << ") "
          << ep.links_down << " links / " << ep.nodes_down
          << " nodes down: " << ep.trains_dropped_fault << " fault drops, "
          << ep.trains_dropped_unreachable << " unreachable, "
          << ep.retransmissions << " rtx, " << ep.reliable_recovered
          << " recovered";
      if (ep.reliable_recovered > 0)
        out << " (max " << ep.max_recovery_s << " s)";
    }
  }
  // Reliable-delivery health: only drops used to be visible here, which
  // hid exactly the counters the LB suite's error-rate reporting needs —
  // retries, dedupe hits, and exhausted sends.
  const emu::EmulatorStats& es = metrics.emulator_stats;
  if (es.reliable_messages_sent > 0 || es.retransmissions > 0) {
    out << "\nreliable  " << es.reliable_messages_sent << " sent, "
        << es.reliable_messages_acked << " acked, "
        << es.retransmissions << " retransmissions, "
        << es.duplicate_deliveries << " duplicates suppressed, "
        << es.reliable_messages_failed << " exhausted";
  }
  for (const emu::LatencySummary& series : metrics.latency) {
    if (series.total.empty()) continue;
    out << "\nlatency   " << series.name << ": " << series.total.count()
        << " requests, p50 " << series.total.quantile(0.50) * 1e3
        << " ms, p90 " << series.total.quantile(0.90) * 1e3
        << " ms, p99 " << series.total.quantile(0.99) * 1e3 << " ms";
    for (std::size_t e = 0; e < series.per_epoch.size(); ++e) {
      const LatencyHistogram& h = series.per_epoch[e];
      if (h.empty()) continue;
      out << "\n  e" << e << " " << h.count() << " requests, p50 "
          << h.quantile(0.50) * 1e3 << " ms, p99 "
          << h.quantile(0.99) * 1e3 << " ms";
    }
  }
  if (metrics.rebalance_safepoints > 0) {
    out << "\nrebalance " << metrics.rebalance_safepoints << " safepoints, "
        << metrics.rebalances << " migrations (" << metrics.nodes_migrated
        << " nodes, " << metrics.migration_bytes << " bytes, "
        << metrics.events_rehomed << " events rehomed), epoch "
        << metrics.rebalance_epoch;
  }
  out << "\nmetrics   imbalance " << metrics.load_imbalance
      << ", emulation time " << metrics.emulation_time
      << " s, network time " << metrics.network_time << " s, "
      << metrics.remote_messages << " remote messages";
  return out.str();
}

Experiment::Experiment(ExperimentSetup setup)
    : setup_(std::move(setup)),
      mapper_(*setup_.network, *setup_.routes),
      horizon_(setup_.horizon) {
  MASSF_REQUIRE(setup_.network != nullptr, "experiment needs a network");
  MASSF_REQUIRE(setup_.routes != nullptr, "experiment needs routing tables");
  MASSF_REQUIRE(setup_.workload != nullptr, "experiment needs a workload");
  MASSF_REQUIRE(setup_.engines >= 1, "experiment needs >= 1 engine");
  {
    // Fail fast with an actionable message instead of letting the mapper or
    // the routing layer surface a bare exception mid-pipeline. Dynamic
    // disconnection (a fault plan severing the network) is fine — only the
    // *baseline* topology must be connected.
    std::vector<int> component;
    const int components =
        graph::connected_components(setup_.network->to_graph(), component);
    MASSF_REQUIRE(
        components == 1,
        "experiment network is disconnected ("
            << components
            << " components): every node must be reachable at t = 0. Check "
               "the topology's links, or model intentional outages with a "
               "fault::FaultPlan instead of removing links from the input");
  }
  if (setup_.faults != nullptr) {
    MASSF_REQUIRE(
        setup_.faults->node_count() == setup_.network->node_count() &&
            setup_.faults->link_count() == setup_.network->link_count(),
        "fault timeline was compiled for a different network");
  }
  setup_.mapping.engines = setup_.engines;
  setup_.emulator.bucket_width = std::max(setup_.emulator.bucket_width, 1e-3);
  if (horizon_ <= 0) horizon_ = setup_.workload->duration() * 2.5;
}

MappingResult Experiment::map(Approach approach) {
  switch (approach) {
    case Approach::Top:
      return mapper_.map_top(setup_.mapping);
    case Approach::Place:
      return mapper_.map_place(*setup_.workload, setup_.mapping);
    case Approach::Profile: {
      ensure_profile();
      return mapper_.map_profile(*profile_netflow_, profile_node_series_,
                                 setup_.mapping);
    }
    case Approach::Adaptive:
      MASSF_REQUIRE(false,
                    "ADAPTIVE mappings are computed mid-run by "
                    "rebalance::Controller (Mapper::map_incremental), not by "
                    "Experiment::map(); start from a static approach and "
                    "wire the controller via set_emulator_hook()");
  }
  MASSF_CHECK(false, "unknown approach");
}

void Experiment::ensure_profile() {
  if (profile_netflow_ != nullptr) return;
  // "Typically this involves an initial emulation experiment using an
  // initial partition and traffic monitoring" — the initial partition is
  // TOP's (the cheap static one).
  MASSF_LOG_INFO << "PROFILE: running profiling emulation (TOP partition)";
  const MappingResult initial = mapper_.map_top(setup_.mapping);

  emu::EmulatorConfig config = setup_.emulator;
  config.collect_netflow = true;
  const traffic::Workload& profiled = setup_.profile_workload
                                          ? *setup_.profile_workload
                                          : *setup_.workload;
  const std::unique_ptr<emu::Emulator> emulator = build_emulator(
      initial.node_engine, config,
      [&profiled](emu::Emulator& e) { profiled.install(e); },
      /*hooked=*/false);
  emulator->run(horizon_, setup_.mode);

  profiling_metrics_ = collect(*emulator);
  profile_netflow_ =
      std::make_unique<emu::NetFlowCollector>(emulator->netflow());
  // Cluster on the *profiling run's* engine load curves (§3.3: the load
  // curves of the physical nodes).
  profile_node_series_ = emulator->kernel_stats().load_series;
}

RunMetrics Experiment::collect(emu::Emulator& emulator) const {
  const des::KernelStats& ks = emulator.kernel_stats();
  RunMetrics metrics;
  metrics.engine_events = ks.loads();
  metrics.load_imbalance = normalized_imbalance(metrics.engine_events);
  metrics.emulation_time = ks.coupled_time;
  metrics.network_time = ks.modeled_time;
  metrics.engine_series = ks.load_series;
  metrics.bucket_width = ks.bucket_width;
  metrics.windows = ks.windows;
  metrics.remote_messages = ks.remote_messages;
  metrics.lookahead = emulator.lookahead();
  metrics.sim_time = ks.sim_time_reached;
  metrics.emulator_stats = emulator.stats();
  metrics.epochs = emulator.epoch_stats();
  metrics.latency = emulator.latency_summaries();
  metrics.sync_mode = ks.sync_mode;
  metrics.channel_advances = ks.channel_advances;
  metrics.idle_jumps = ks.idle_jumps;
  metrics.handoff_runs = ks.handoff_runs;
  metrics.parks = ks.parks;
  metrics.channels = ks.channels;
  const emu::RebalanceStats& rb = emulator.rebalance_stats();
  metrics.rebalance_safepoints = ks.safepoints;
  metrics.rebalances = rb.rebalances;
  metrics.nodes_migrated = rb.nodes_migrated;
  metrics.migration_bytes = rb.migration_bytes;
  metrics.events_rehomed = rb.events_rehomed;
  metrics.rebalance_epoch = rb.epoch;
  metrics.exec_mode = setup_.mode;
  metrics.fault_seed =
      setup_.faults != nullptr ? setup_.faults->plan_seed() : 0;
  metrics.history_hash = ks.history_hash;
  return metrics;
}

std::unique_ptr<emu::Emulator> Experiment::build_emulator(
    const std::vector<int>& node_engine, const emu::EmulatorConfig& config,
    const std::function<void(emu::Emulator&)>& install, bool hooked) const {
  auto emulator = std::make_unique<emu::Emulator>(
      *setup_.network, *setup_.routes, node_engine, setup_.engines, config);
  emulator->set_fault_timeline(setup_.faults);
  install(*emulator);
  if (hooked && emulator_hook_) emulator_hook_(*emulator, horizon_);
  return emulator;
}

RunMetrics Experiment::run_mapped(emu::Emulator& emulator,
                                  const MappingResult& mapping) const {
  emulator.run(horizon_, setup_.mode);
  RunMetrics metrics = collect(emulator);
  metrics.pair_lookaheads = mapping.pair_lookaheads;
  return metrics;
}

RunMetrics Experiment::run(const MappingResult& mapping,
                           emu::Trace* record) const {
  MASSF_REQUIRE(mapping.engines == setup_.engines,
                "mapping was computed for a different engine count");
  std::unique_ptr<emu::TraceRecorder> recorder;
  if (record != nullptr)
    recorder =
        std::make_unique<emu::TraceRecorder>(setup_.network->node_count());
  const std::unique_ptr<emu::Emulator> emulator = build_emulator(
      mapping.node_engine, setup_.emulator,
      [&](emu::Emulator& e) {
        if (recorder) e.set_trace_recorder(recorder.get());
        setup_.workload->install(e);
      },
      /*hooked=*/true);
  RunMetrics metrics = run_mapped(*emulator, mapping);
  if (record != nullptr) *record = recorder->finish();
  return metrics;
}

SuperviseResult Experiment::run_supervised(
    const MappingResult& mapping, const SuperviseOptions& options) const {
  MASSF_REQUIRE(!options.ckpt_dir.empty(),
                "run_supervised needs a checkpoint directory");
  MASSF_REQUIRE(options.max_attempts >= 1, "need at least one attempt");
  SuperviseResult result;
  for (int attempt = 1;; ++attempt) {
    result.attempts = attempt;
    try {
      result.metrics = supervised_attempt(mapping, options, result);
      return result;
    } catch (const std::exception& error) {
      if (attempt >= options.max_attempts) throw;
      MASSF_LOG_WARN << "supervised run attempt " << attempt << "/"
                     << options.max_attempts << " failed: " << error.what()
                     << "; retrying from the latest valid snapshot";
    }
  }
}

RunMetrics Experiment::supervised_attempt(const MappingResult& mapping,
                                          const SuperviseOptions& options,
                                          SuperviseResult& result) const {
  MASSF_REQUIRE(mapping.engines == setup_.engines,
                "mapping was computed for a different engine count");
  // Restore mutates the emulator before validation can finish, so every
  // restore candidate gets a freshly built one; a rejected snapshot cannot
  // leak partial state into the attempt.
  const auto build = [&] {
    return build_emulator(
        mapping.node_engine, setup_.emulator,
        [this](emu::Emulator& e) { setup_.workload->install(e); },
        /*hooked=*/true);
  };

  std::unique_ptr<emu::Emulator> emulator = build();
  std::int64_t restored_seq = -1;
  const auto snapshots = ckpt::list_checkpoints(options.ckpt_dir);
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    try {
      ckpt::Reader reader = ckpt::Reader::from_file(it->second);
      emulator->restore(reader, options.load_extra);
      restored_seq = static_cast<std::int64_t>(it->first);
      break;
    } catch (const ckpt::CkptError& error) {
      MASSF_LOG_WARN << "snapshot " << it->second << " rejected: "
                     << error.what() << "; falling back to an older one";
      emulator = build();
    }
  }
  result.restored_from = restored_seq;

  emu::CheckpointConfig cfg;
  cfg.dir = options.ckpt_dir;
  cfg.period_s = options.checkpoint_period_s;
  cfg.keep = options.keep;
  cfg.first_seq = static_cast<std::uint64_t>(restored_seq + 1);
  cfg.save_extra = options.save_extra;
  cfg.on_checkpoint = [&result](std::uint64_t, const std::string&) {
    ++result.checkpoints_written;
  };
  emulator->set_checkpoint_schedule(cfg, horizon_);

  if (options.watchdog_timeout_s > 0) {
    // Cooperative watchdog: every safepoint is a heartbeat. A stall is
    // detected at the next safepoint after it resolves — or never, if the
    // run hangs forever, in which case an external process supervisor is
    // the backstop (documented in README "Supervised runs").
    auto last_beat = std::make_shared<std::chrono::steady_clock::time_point>(
        std::chrono::steady_clock::now());
    const double budget_s = options.watchdog_timeout_s;
    emulator->set_pre_safepoint_hook([last_beat, budget_s](des::SimTime t) {
      const auto now = std::chrono::steady_clock::now();
      const double waited =
          std::chrono::duration<double>(now - *last_beat).count();
      *last_beat = now;
      if (waited > budget_s) {
        std::ostringstream message;
        message << "watchdog: " << waited << " s of wall time between "
                << "safepoint heartbeats (budget " << budget_s
                << " s) at sim time " << t;
        throw WatchdogTimeout(message.str());
      }
    });
  }

  return run_mapped(*emulator, mapping);
}

RunMetrics Experiment::replay(const emu::Trace& trace,
                              const MappingResult& mapping) const {
  MASSF_REQUIRE(mapping.engines == setup_.engines,
                "mapping was computed for a different engine count");
  emu::TraceReplayer replayer(trace);
  const std::unique_ptr<emu::Emulator> emulator = build_emulator(
      mapping.node_engine, setup_.emulator,
      [&replayer](emu::Emulator& e) { replayer.install(e); },
      /*hooked=*/true);
  RunMetrics metrics = run_mapped(*emulator, mapping);
  if (replayer.messages_issued() < replayer.messages_total())
    MASSF_LOG_WARN << "replay issued " << replayer.messages_issued() << "/"
                   << replayer.messages_total()
                   << " messages (drops broke some causal chains)";
  return metrics;
}

}  // namespace massf::mapping
