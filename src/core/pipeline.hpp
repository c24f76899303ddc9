// Experiment pipeline: map → emulate → measure (paper Figure 1 plus the
// evaluation methodology of §4.1).
//
// An Experiment owns one (network, workload, engine-count) combination and
// exposes the paper's measurement loop:
//   * map(approach)            — compute a mapping; PROFILE transparently
//                                performs the profiling run ("an initial
//                                emulation experiment using an initial
//                                partition and traffic monitoring") using
//                                the TOP mapping, and caches it;
//   * run(mapping)             — execute the workload under a mapping and
//                                report the paper's three metrics;
//   * run + record / replay    — capture an app-level trace and replay it
//                                with zero compute (network emulation time
//                                in isolation, Figures 9/10).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/mapper.hpp"
#include "emu/emulator.hpp"
#include "emu/trace.hpp"
#include "fault/fault.hpp"
#include "traffic/workload.hpp"

namespace massf::mapping {

struct ExperimentSetup {
  const Network* network = nullptr;
  const routing::RoutingView* routes = nullptr;
  std::shared_ptr<const traffic::Workload> workload;
  /// Optional distinct workload for the PROFILE profiling run (defaults to
  /// `workload`). Using a variant with different traffic dynamics models
  /// the paper's §6 scenario: profile once, reuse the data for *similar*
  /// (not identical) emulations.
  std::shared_ptr<const traffic::Workload> profile_workload;
  int engines = 2;
  MappingOptions mapping{};
  emu::EmulatorConfig emulator{};
  /// Simulation horizon; 0 → 2.5 × workload duration.
  double horizon = 0;
  des::ExecutionMode mode = des::ExecutionMode::Sequential;
  /// Optional fault timeline (not owned; must outlive the experiment and
  /// be compiled for `network`). Applied to every run, including the
  /// PROFILE profiling run and replays.
  const fault::FaultTimeline* faults = nullptr;
};

/// Measurements of one emulation run (the paper's §4.1.1 metrics).
struct RunMetrics {
  /// Normalized std deviation of per-engine kernel event counts.
  double load_imbalance = 0;
  /// Modeled application emulation time (engine work floored by the live
  /// application's real-time compute; paper Figures 6/7).
  double emulation_time = 0;
  /// Pure engine time (Σ windows max busy + sync) — the isolated network
  /// emulation metric used for replays (Figures 9/10).
  double network_time = 0;
  /// Per-engine kernel event counts.
  std::vector<double> engine_events;
  /// Per-engine per-bucket event counts (fine-grained load, Figures 2/8).
  std::vector<std::vector<double>> engine_series;
  double bucket_width = 2.0;
  std::uint64_t windows = 0;
  std::uint64_t remote_messages = 0;
  double lookahead = 0;
  double sim_time = 0;
  emu::EmulatorStats emulator_stats{};
  /// Per-routing-epoch fault counters (empty without a fault timeline).
  std::vector<emu::EpochStats> epochs;
  /// Per-request latency histogram series (empty unless the workload
  /// registered series via Emulator::register_latency_series — the LB/RPC
  /// suite in src/app does). Each summary carries the run-total histogram
  /// plus per-fault-epoch splits.
  std::vector<emu::LatencySummary> latency;
  /// Kernel synchronization protocol the run used.
  des::SyncMode sync_mode = des::SyncMode::GlobalWindow;
  /// ChannelLookahead: per-LP execution bursts (the windows analogue).
  std::uint64_t channel_advances = 0;
  /// ChannelLookahead: rendezvous barriers taken to bridge idle spans.
  std::uint64_t idle_jumps = 0;
  /// Runtime diagnostics, not metrics: they depend on the exec mode and
  /// worker count (see KernelStats), so no determinism check compares them.
  /// Batched cross-engine outbox runs published (cross-LP handoff cost).
  std::uint64_t handoff_runs = 0;
  /// Threaded only: times a worker ran out of spin budget and parked.
  std::uint64_t parks = 0;
  /// Per-directed-channel lookahead/delivery/throttle stats from the
  /// kernel (throttle fields are ChannelLookahead-only).
  std::vector<des::ChannelStat> channels;
  /// Per-engine-pair minimum cut-link latency from the mapping (objective
  /// 1 made observable; the channel lookaheads the emulator registers).
  std::vector<EnginePairLookahead> pair_lookaheads;
  /// Rebalance-loop counters (all zero unless a rebalance::Controller —
  /// or other safepoint user — was wired in via set_emulator_hook()).
  std::uint64_t rebalance_safepoints = 0;
  std::uint64_t rebalances = 0;
  std::uint64_t nodes_migrated = 0;
  double migration_bytes = 0;
  std::uint64_t events_rehomed = 0;
  std::uint64_t rebalance_epoch = 0;
  // ---- Run configuration provenance (so a metrics record alone identifies
  //      the exact run: mode and the fault plan's RNG seed) ---------------
  /// Kernel execution mode the run used.
  des::ExecutionMode exec_mode = des::ExecutionMode::Sequential;
  /// Seed of the random fault plan behind the run's fault timeline (0 when
  /// the run had no fault timeline or a hand-built plan).
  std::uint64_t fault_seed = 0;
  /// Kernel event-history hash — the bit-identity fingerprint crash
  /// recovery is verified against.
  std::uint64_t history_hash = 0;

  /// Load imbalance per time bucket (Figure 8's series).
  std::vector<double> imbalance_series() const;
};

/// Human-readable run summary: mapping quality (cut size, global and
/// per-pair lookaheads) next to sync behaviour (windows vs channel
/// advances, idle jumps, throttled channels) and the headline metrics.
std::string summarize(const MappingResult& mapping, const RunMetrics& metrics);

/// Thrown by the supervised-run watchdog when the wall time between two
/// safepoint heartbeats exceeds the configured budget — the run is declared
/// hung and the retry loop restarts it from the latest valid snapshot.
class WatchdogTimeout : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Configuration for Experiment::run_supervised (DESIGN.md §12).
struct SuperviseOptions {
  /// Snapshot directory (created if missing). Required.
  std::string ckpt_dir;
  /// Simulated seconds between snapshots; the first is one period in.
  double checkpoint_period_s = 5.0;
  /// Snapshots retained on disk.
  int keep = 2;
  /// Abort an attempt when the wall time between safepoint heartbeats
  /// exceeds this (seconds); 0 disables the watchdog. Detection is
  /// cooperative — it triggers at the next safepoint after a stall, so
  /// give it headroom over the expected inter-safepoint wall time.
  double watchdog_timeout_s = 0;
  /// Total attempts (first run + retries, back to back) before giving up;
  /// the final failure is rethrown to the caller.
  int max_attempts = 3;
  /// Extra state appended to / restored from each snapshot (e.g. a
  /// rebalance::Controller's save_state / load_state).
  std::function<void(ckpt::Writer&)> save_extra;
  std::function<void(ckpt::Reader&)> load_extra;
};

/// Outcome of a supervised run.
struct SuperviseResult {
  RunMetrics metrics;
  /// Attempts consumed (1 = no retries needed).
  int attempts = 0;
  /// Snapshot sequence number the successful attempt resumed from, or -1
  /// when it started fresh.
  std::int64_t restored_from = -1;
  /// Snapshots durably committed across all attempts.
  std::uint64_t checkpoints_written = 0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentSetup setup);

  const Mapper& mapper() const { return mapper_; }
  const ExperimentSetup& setup() const { return setup_; }

  /// Compute a mapping with the configured approach. For PROFILE this
  /// triggers (and caches) the profiling run.
  MappingResult map(Approach approach);

  /// Run the workload under a mapping. If `record` is non-null the
  /// application traffic is captured into it.
  RunMetrics run(const MappingResult& mapping,
                 emu::Trace* record = nullptr) const;

  /// Replay a recorded trace under a mapping: zero application compute,
  /// maximum causal speed — the isolated network-emulation-time metric.
  RunMetrics replay(const emu::Trace& trace,
                    const MappingResult& mapping) const;

  /// Crash-resilient run: periodic checkpoints at the configured cadence, a
  /// cooperative watchdog on safepoint heartbeats, and an immediate retry
  /// from the latest valid snapshot when an attempt dies (corrupt snapshots
  /// are rejected and older ones tried; a fresh start is the last resort).
  /// The recovered run's history_hash is bit-identical to an uninterrupted
  /// run of the same configuration.
  SuperviseResult run_supervised(const MappingResult& mapping,
                                 const SuperviseOptions& options) const;

  /// Metrics of the cached profiling run (after map(Profile)).
  const std::optional<RunMetrics>& profiling_metrics() const {
    return profiling_metrics_;
  }

  /// Hook invoked on every emulator built by run(), run_supervised() or
  /// replay() — after the traffic is installed, before execution — with
  /// the run's horizon.
  /// This is how rebalance::Controller::install wires the adaptive loop
  /// into the pipeline without the pipeline depending on the rebalance
  /// library (which itself links the mapper). The PROFILE profiling run is
  /// deliberately not hooked: its NetFlow cache must describe the *static*
  /// initial partition.
  using EmulatorHook = std::function<void(emu::Emulator&, double)>;
  void set_emulator_hook(EmulatorHook hook) {
    emulator_hook_ = std::move(hook);
  }

 private:
  /// The one emulator build path: the setup's network, routes, engine
  /// count and fault timeline under `node_engine`, then `install` (the
  /// traffic), then the emulator hook when `hooked` (every run but the
  /// PROFILE profiling run).
  std::unique_ptr<emu::Emulator> build_emulator(
      const std::vector<int>& node_engine, const emu::EmulatorConfig& config,
      const std::function<void(emu::Emulator&)>& install, bool hooked) const;
  /// Runs `emulator` to the horizon and collects its metrics, tagged with
  /// `mapping`'s pair lookaheads.
  RunMetrics run_mapped(emu::Emulator& emulator,
                        const MappingResult& mapping) const;
  RunMetrics collect(emu::Emulator& emulator) const;
  void ensure_profile();
  RunMetrics supervised_attempt(const MappingResult& mapping,
                                const SuperviseOptions& options,
                                SuperviseResult& result) const;

  ExperimentSetup setup_;
  Mapper mapper_;
  double horizon_;
  EmulatorHook emulator_hook_;
  // Cached profiling-run artifacts (populated by the first map(Profile)).
  std::optional<RunMetrics> profiling_metrics_;
  std::vector<std::vector<double>> profile_node_series_;
  std::unique_ptr<emu::NetFlowCollector> profile_netflow_;
};

}  // namespace massf::mapping
