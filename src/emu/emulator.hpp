// The MaSSF-like distributed network emulator (system S10 in DESIGN.md).
//
// An Emulator instance binds together:
//   * a virtual network (topology::Network) and its routing tables,
//   * a mapping of virtual nodes onto simulation engines (the partition
//     assignment under study — the paper's central variable),
//   * a conservative parallel DES kernel whose lookahead is derived from
//     the mapping (minimum cross-engine link latency),
//   * per-link FIFO transmission with serialization + propagation delay and
//     drop-tail queueing,
//   * the application layer (emu/app.hpp), ICMP (TTL-exceeded / echo reply
//     semantics for traceroute), NetFlow profiling, and optional app-level
//     trace recording.
//
// Every packet-train hop is one kernel event on the engine owning the node,
// so the kernel's per-LP event counts are exactly the paper's per-engine
// load metric.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unordered_map>
#include <unordered_set>

#include "ckpt/ckpt.hpp"
#include "des/kernel.hpp"
#include "emu/app.hpp"
#include "emu/netflow.hpp"
#include "emu/packet.hpp"
#include "fault/fault.hpp"
#include "routing/routing.hpp"
#include "topology/network.hpp"
#include "util/histogram.hpp"

namespace massf::emu {

class TraceRecorder;

/// Retry policy for the reliable-delivery layer (AppApi::send_reliable).
struct ReliablePolicy {
  /// Wait this long for the first ACK before retransmitting (each later
  /// timeout doubles the wait). Must exceed the round-trip time of the
  /// flows using the reliable layer.
  double base_timeout_s = 1.0;
  /// Retransmissions after the initial attempt; exhausted => failed.
  int max_retries = 6;
};

struct EmulatorConfig {
  /// Maximum transmission unit; messages are split into MTU packets.
  double mtu_bytes = 1500;
  /// Packets per train event (1 = pure packet-level emulation).
  int train_packets = 4;
  /// Drop-tail threshold: a train is dropped when its link queueing delay
  /// would exceed this bound.
  double max_queue_delay = 0.5;
  /// Sim-time bucket for NetFlow and kernel load series (paper uses 2 s).
  double bucket_width = 2.0;
  /// Engine cost model for modeled emulation time.
  des::CostModel cost{};
  /// Record NetFlow profiles (PROFILE needs them). Each hop costs a hash
  /// probe and an in-place update of the node's flow record, and a new
  /// flow appends one record. On a 4-CPU x86-64 VM (Release, seed 7,
  /// perfbench traced runs, `emu.netflow_s` over `run_s`, three runs each)
  /// turning it on cost 12–18% of `campus_profile`'s run time and at most
  /// 12% of `lb_fault`'s (35% while every ACK keyed its own record).
  bool collect_netflow = true;
  /// Reliable-delivery retry policy (used by send_reliable only).
  ReliablePolicy reliable{};
  /// Kernel synchronization protocol. Regardless of the mode, the emulator
  /// registers one kernel channel per directed engine pair connected by a
  /// cut link, with that pair's own minimum cut-link latency as lookahead;
  /// ChannelLookahead then lets engine pairs coupled only through
  /// high-latency links advance independently of the global minimum. Every
  /// cross-engine event the emulator produces rides a cut link (packet
  /// hops; fault-epoch boundaries and reliable-delivery retransmit timers
  /// are scheduled engine-locally), so per-pair cut minima are valid
  /// channel lookaheads by construction.
  des::SyncMode sync_mode = des::SyncMode::GlobalWindow;
};

/// Aggregate emulator counters (folded from per-node slots after a run).
/// Train conservation: trains_injected == trains_delivered + trains_dropped
/// (queue overflow) + trains_dropped_fault + trains_dropped_unreachable +
/// trains_expired.
struct EmulatorStats {
  std::uint64_t trains_injected = 0;
  std::uint64_t trains_delivered = 0;
  /// Drop-tail queue overflow only; always equals the sum over
  /// link_drops(link, dir). Fault-induced drops are counted separately.
  std::uint64_t trains_dropped = 0;
  /// In-flight trains cut by a fault epoch (link or node down on arrival).
  std::uint64_t trains_dropped_fault = 0;
  /// Trains addressed to a destination unreachable in the current epoch.
  std::uint64_t trains_dropped_unreachable = 0;
  /// Trains whose TTL reached zero in flight.
  std::uint64_t trains_expired = 0;
  std::uint64_t icmp_unreachable_sent = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t reliable_messages_sent = 0;
  /// Unique reliable messages seen by the receiver (duplicates excluded).
  std::uint64_t reliable_messages_delivered = 0;
  /// Reliable messages whose ACK reached the sender.
  std::uint64_t reliable_messages_acked = 0;
  /// Reliable messages abandoned after the retry budget.
  std::uint64_t reliable_messages_failed = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicate_deliveries = 0;
  double bytes_delivered = 0;
};

/// Counters for the adaptive-rebalance loop (see src/rebalance/). One
/// "rebalance" is a safepoint at which migrate_nodes() actually moved at
/// least one node; `epoch` counts them, mirroring FaultTimeline routing
/// epochs — post-migration packets route over the new assignment exactly
/// like post-fault packets route over the epoch's partial tables.
struct RebalanceStats {
  std::uint64_t rebalances = 0;
  std::uint64_t nodes_migrated = 0;
  /// Modeled serialized LP state moved between engines (bytes).
  double migration_bytes = 0;
  /// Pending keyed events moved to their node's new engine.
  std::uint64_t events_rehomed = 0;
  /// Current rebalance epoch (0 before any migration).
  std::uint64_t epoch = 0;
};

/// Periodic checkpointing schedule (Emulator::set_checkpoint_schedule).
/// Snapshots are written at safepoints — globally quiescent pauses — via
/// the atomic write-rename protocol in src/ckpt/, and pruned so at most
/// `keep` recent snapshots remain on disk.
struct CheckpointConfig {
  /// Directory snapshots are written into (created if missing).
  std::string dir;
  /// Simulated seconds between snapshots.
  double period_s = 5.0;
  /// Time of the first snapshot; 0 = one period in.
  double first_s = 0;
  /// Snapshots retained on disk (older ones are pruned after each commit).
  int keep = 2;
  /// Sequence number of the first snapshot this run writes (a restored run
  /// continues the numbering of the run it resumed).
  std::uint64_t first_seq = 0;
  /// Appended to every snapshot after the emulator state — the supervisor
  /// uses it for rebalance controller state. Must be paired with the
  /// matching load_extra at restore.
  std::function<void(ckpt::Writer&)> save_extra;
  /// Observability: invoked after each snapshot is durably committed.
  std::function<void(std::uint64_t seq, const std::string& path)>
      on_checkpoint;
};

/// One latency-histogram series folded after a run (latency_summaries()).
/// `total` is the merge of every per-epoch histogram; `per_epoch` is empty
/// when the run had no fault timeline. Folding goes epoch-major then engine
/// index order, and histogram merge is element-wise uint64 addition, so the
/// summaries are bit-identical across execution modes and sync protocols.
struct LatencySummary {
  std::string name;
  LatencyHistogram total;
  std::vector<LatencyHistogram> per_epoch;
};

/// Fault/recovery counters for one routing epoch (see epoch_stats()).
struct EpochStats {
  double start = 0;
  double end = 0;
  int links_down = 0;
  int nodes_down = 0;
  std::uint64_t trains_dropped_fault = 0;
  std::uint64_t trains_dropped_unreachable = 0;
  std::uint64_t icmp_unreachable_sent = 0;
  std::uint64_t retransmissions = 0;
  /// Reliable messages ACKed in this epoch after >= 1 retransmission.
  std::uint64_t reliable_recovered = 0;
  /// Max first-send → ACK latency among those recoveries.
  double max_recovery_s = 0;
};

/// The emulator is the kernel's EventSink: every packet hop is a typed,
/// allocation-free kernel event whose payload is a pool-owned Packet*.
class Emulator : private des::EventSink {
 public:
  /// `node_engine[node]` = engine (LP) that emulates the node; values in
  /// [0, engines). The kernel lookahead is the minimum latency over links
  /// whose endpoints live on different engines.
  Emulator(const topology::Network& network,
           const routing::RoutingView& routes, std::vector<int> node_engine,
           int engines, EmulatorConfig config = {});
  ~Emulator();

  Emulator(const Emulator&) = delete;
  Emulator& operator=(const Emulator&) = delete;

  const topology::Network& network() const { return network_; }
  const routing::RoutingView& routes() const { return routes_; }
  int engines() const { return engines_; }
  int engine_of(NodeId node) const;
  double lookahead() const { return lookahead_; }
  des::Kernel& kernel() { return *kernel_; }

  // ---- Application layer ------------------------------------------------

  /// Install an endpoint on a host; its start() runs at `start_at`.
  void install_endpoint(NodeId host, std::unique_ptr<AppEndpoint> endpoint,
                        SimTime start_at = 0);

  /// Inject an application message. Callable at setup time (any host) or
  /// from code executing on `src`'s engine. Returns the message id.
  /// `corr` rides AppMessage::corr end-to-end (see emu/packet.hpp).
  std::uint64_t send_message(NodeId src, NodeId dst, double bytes, int tag,
                             SimTime at, std::uint64_t corr = 0);

  /// Reliable variant: the receiver ACKs, the sender retransmits on timeout
  /// with exponential backoff (EmulatorConfig::reliable), and duplicates
  /// are suppressed before the endpoint upcall. Same call-site rules as
  /// send_message. `corr` rides AppMessage::corr end-to-end.
  std::uint64_t send_reliable(NodeId src, NodeId dst, double bytes, int tag,
                              SimTime at, std::uint64_t corr = 0);

  // ---- Per-request latency accounting (src/app) --------------------------
  //
  // A series is one named log-scale histogram family — one
  // LatencyHistogram per (fault epoch × engine) slot. record_latency()
  // touches only the calling engine's slot (race-free in Threaded mode);
  // latency_summaries() folds slots in fixed (epoch, engine-index) order
  // with an element-wise-add merge, so the folded histograms are
  // bit-identical across Sequential/Threaded × GlobalWindow/
  // ChannelLookahead whenever the event history is.

  /// Register a histogram series before run(); returns its id. Call after
  /// set_fault_timeline() or before — slots follow the epoch count.
  int register_latency_series(const std::string& name);

  /// Record one sample into `series` at the current sim time's fault epoch
  /// (epoch 0 without a timeline). Callable from endpoint upcalls.
  void record_latency(int series, double seconds);

  /// Fold the per-engine slots into one summary per series.
  std::vector<LatencySummary> latency_summaries() const;

  // ---- Fault injection ----------------------------------------------------

  /// Attach a compiled fault timeline (not owned; may be null to detach).
  /// Must be called before run(); the timeline must have been built for
  /// this emulator's network. Epoch boundaries become kernel events on
  /// every engine, and arrive/transmit consult the epoch's partial routing
  /// tables instead of the static ones.
  void set_fault_timeline(const fault::FaultTimeline* timeline);

  const fault::FaultTimeline* fault_timeline() const { return faults_; }

  /// Attach an app-level trace recorder (not owned; may be null). Must be
  /// set before run().
  void set_trace_recorder(TraceRecorder* recorder) { recorder_ = recorder; }

  // ---- ICMP / traceroute support -----------------------------------------

  /// Send a TTL-limited echo probe from src toward dst at time `at`.
  void send_probe(NodeId src, NodeId dst, int ttl, std::uint64_t probe_id,
                  SimTime at);

  /// Handler invoked (on the probing host's engine) whenever an
  /// IcmpTtlExceeded, IcmpEchoReply, or IcmpUnreachable packet reaches its
  /// destination.
  void set_icmp_handler(std::function<void(const Packet&, SimTime)> handler) {
    icmp_handler_ = std::move(handler);
  }

  // ---- Adaptive rebalancing ----------------------------------------------

  /// Register a global safe point at sim time `t` (before run()). At each
  /// safe point the kernel quiesces every engine and invokes the rebalance
  /// hook single-threaded; migrate_nodes() may only be called from inside
  /// that hook.
  void add_rebalance_safepoint(SimTime t);

  /// Install the hook invoked at every rebalance safe point (before
  /// run()). The hook runs with all engines quiescent and all cross-engine
  /// mailboxes drained.
  void set_rebalance_hook(std::function<void(SimTime)> hook);

  /// Re-map virtual nodes onto engines mid-run (safepoint-hook-only).
  /// Accounts the modeled migration volume (serialize_host_state() of every
  /// moved node), re-derives channel lookaheads from the new cut (the
  /// global conservative bound may only shrink mid-run), rehomes every
  /// pending keyed event to its node's new engine, and bumps the rebalance
  /// epoch. An assignment identical to the current one is a guaranteed
  /// no-op: no migration, no rehoming, no epoch bump. Returns the number of
  /// nodes that moved.
  int migrate_nodes(const std::vector<int>& new_node_engine);

  /// Modeled serialized size of one node's LP state in bytes: fixed header
  /// + counters, endpoint state, one record per pending reliable message
  /// (sender side) and one key per dedup entry (receiver side). Only
  /// container *sizes* enter, so the value is deterministic regardless of
  /// hash iteration order.
  double serialize_host_state(NodeId node) const;

  /// Modeled bytes migrate_nodes(new_node_engine) would move.
  double estimate_migration_bytes(
      const std::vector<int>& new_node_engine) const;

  /// Live per-engine executed-event counts — the monitor's load signal.
  /// Safe to read inside a safepoint hook (engines quiescent).
  std::vector<double> engine_event_counts() const;

  const std::vector<int>& node_engine() const { return node_engine_; }
  bool collects_netflow() const { return netflow_ != nullptr; }
  const RebalanceStats& rebalance_stats() const { return rebalance_stats_; }

  // ---- Checkpoint / restore ----------------------------------------------
  //
  // A snapshot captures the complete run state — kernel event queues
  // (pending trains and control events), per-host application and
  // reliable-delivery state, endpoint state words, fault-epoch cursors and
  // counters, the current node→engine assignment, NetFlow records, and
  // rebalance counters — such that a freshly constructed Emulator (same
  // network, workload installation, fault timeline, and *initial* mapping)
  // restored from it and run to the same horizon produces a bit-identical
  // history_hash to the uninterrupted run, across both sync protocols and
  // both execution modes. See DESIGN.md §12.

  /// Arrange periodic snapshots: safepoints at first_s, first_s + period_s,
  /// ... below `horizon`; at each, the run state is serialized and
  /// committed to cfg.dir with the atomic write-rename protocol. Call
  /// before run(). Composes with rebalance safepoints — when both fire at
  /// the same instant, the rebalance hook runs first so the snapshot
  /// captures the post-migration state.
  void set_checkpoint_schedule(const CheckpointConfig& cfg, SimTime horizon);

  /// Snapshots committed by this run so far.
  std::uint64_t checkpoints_written() const { return ckpt_written_; }

  /// Serialize the run state at the current safepoint into `w`: the
  /// snapshot restore() reads, save_extra section included. Safepoint-hook
  /// only (the schedule above calls it; exposed for custom supervisors).
  void checkpoint(ckpt::Writer& w) const;

  /// Restore a snapshot produced by checkpoint() into this emulator. Must
  /// run before run(), on an emulator rebuilt exactly like the original
  /// (same network/routes/initial mapping/config, same endpoints installed,
  /// same fault timeline and trace setup); setup-time events are discarded
  /// in favour of the snapshot's queues. `load_extra` consumes the
  /// save_extra section if the snapshot carries one. Returns the snapshot's
  /// simulation time; the subsequent run() resumes from there.
  SimTime restore(ckpt::Reader& r,
                  const std::function<void(ckpt::Reader&)>& load_extra = {});

  /// Hook invoked first at every safepoint, before the rebalance hook and
  /// any checkpoint write (the supervisor's watchdog heartbeat). Set before
  /// run().
  void set_pre_safepoint_hook(std::function<void(SimTime)> hook);

  // ---- Execution ---------------------------------------------------------

  /// Run the emulation until no event earlier than `until` remains.
  void run(SimTime until,
           des::ExecutionMode mode = des::ExecutionMode::Sequential);

  const des::KernelStats& kernel_stats() const { return kernel_->stats(); }
  const NetFlowCollector& netflow() const;
  /// Counters folded over every host. After run() this is the fold its
  /// run-end check made, until a later send changes a host's counters.
  EmulatorStats stats() const;

  /// Per-epoch fault/recovery counters (empty without a fault timeline).
  std::vector<EpochStats> epoch_stats() const;

  /// Drop-tail drops on one direction of a link (dir 0 = a→b, 1 = b→a).
  std::uint64_t link_drops(LinkId link, int dir) const {
    return link_drops_[2 * static_cast<std::size_t>(link) +
                       static_cast<std::size_t>(dir)];
  }

  /// Packet slots ever materialized by the train pool — tracks the peak
  /// number of simultaneously in-flight trains, far below the total train
  /// count when recycling works (the allocation-free hot-path invariant).
  std::size_t packet_pool_size() const { return pool_.allocated(); }

  /// Arm a serializable timer: the endpoint on `host` gets on_timer(api,
  /// tag) at time `at`. At setup time any host is allowed; during execution
  /// the host must live on the executing engine.
  void schedule_timer(NodeId host, SimTime at, std::int64_t tag);

 private:
  friend class AppApi;

  /// One reliable message awaiting its ACK (sender side).
  struct PendingReliable {
    NodeId dst = -1;
    double bytes = 0;
    int tag = 0;
    SimTime first_sent = 0;
    int attempts = 0;  // transmissions so far (1 = original only)
    std::uint64_t corr = 0;  // application token; retransmits keep it
  };

  struct HostState {
    std::unique_ptr<AppEndpoint> endpoint;
    std::uint64_t message_counter = 0;
    // Per-node counters (folded into EmulatorStats; per-slot updates keep
    // threaded mode race-free).
    std::uint64_t trains_injected = 0;
    std::uint64_t trains_delivered = 0;
    std::uint64_t trains_dropped_fault = 0;
    std::uint64_t trains_dropped_unreachable = 0;
    std::uint64_t trains_expired = 0;
    std::uint64_t icmp_unreachable_sent = 0;
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t reliable_sent = 0;
    std::uint64_t reliable_delivered = 0;
    std::uint64_t reliable_acked = 0;
    std::uint64_t reliable_failed = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicate_deliveries = 0;
    double bytes_delivered = 0;
    // Reliable-delivery state: touched only on this node's engine, so it
    // follows the same race-freedom rule as the counters above. Audited for
    // determinism: both containers see only find/insert/erase by key —
    // never iteration — so their (hash-dependent) element order cannot
    // reach event order. See DESIGN.md §9.
    // massf-check: allow(unordered-container)
    std::unordered_map<std::uint64_t, PendingReliable> pending;  // as sender
    // massf-check: allow(unordered-container)
    std::unordered_set<std::uint64_t> reliable_seen;             // as receiver
  };

  /// Per-engine routing-epoch cursor. Events on an LP execute in
  /// nondecreasing time order, so the cursor only moves forward; the
  /// alignment keeps each engine's cursor on its own cache line.
  struct alignas(64) EpochCursor {
    std::size_t epoch = 0;
  };

  /// Per-(epoch × engine) fault counters; slot written only by its
  /// engine's thread, folded deterministically in epoch_stats().
  struct EpochCounters {
    std::uint64_t dropped_fault = 0;
    std::uint64_t dropped_unreachable = 0;
    std::uint64_t icmp_unreachable = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t recovered = 0;
    double max_recovery_s = 0;
  };

  /// EventSink hook: dispatches control events to handle_control() and
  /// packet hops to arrive().
  void on_packet_event(const des::PacketEvent& event) override;

  /// Execute one emulator-internal control event (PacketKind::Ctrl*).
  void handle_control(const Packet& packet);

  /// Acquire a pool packet shaped as a control event.
  Packet* make_control(PacketKind kind, NodeId host, std::uint64_t id);

  /// The snapshot field list, shared by checkpoint() and restore().
  template <class Io, class Self, class Extra>
  static void serialize(Io& io, Self& self, SimTime& t, const Extra& extra);
  /// One pending event's pool-owned Packet (the kernel's payload callback).
  template <class Io, class Self, class Event>
  static void serialize_payload(Io& io, Self& self, Event& e);

  /// Write one snapshot (safepoint hook context) and prune old ones.
  void write_checkpoint(SimTime t);

  /// Kernel event: a packet train arrives at (or is injected on) a node.
  /// Takes ownership of the pool-backed packet.
  void arrive(NodeId at, Packet* packet);

  /// Push a train onto the link toward packet->dst; schedules the next
  /// arrive() or releases the packet on drop-tail overflow. Takes
  /// ownership.
  void transmit(NodeId from, Packet* packet, SimTime t);

  void deliver(NodeId at, const Packet& packet, SimTime t);

  /// Packetize one message into trains and inject them at `at`. Shared by
  /// send_message, send_reliable, and retransmission.
  void inject_trains(NodeId src, NodeId dst, double bytes, int tag,
                     std::uint64_t message_id, SimTime sent_at, bool reliable,
                     std::uint64_t corr, SimTime at);

  /// Timeout event for a pending reliable message on src's engine.
  void reliable_timeout(NodeId src, std::uint64_t message_id);

  /// Epoch covering time t. On an executing engine this advances the
  /// engine's monotone cursor; at setup it binary-searches the timeline.
  /// Only valid when faults_ != nullptr.
  std::size_t epoch_for(SimTime t);

  EpochCounters& epoch_counters(std::size_t epoch) {
    return epoch_slots_[epoch * static_cast<std::size_t>(engines_) +
                        static_cast<std::size_t>(pool_shard())];
  }

  /// The packet-pool shard owned by the calling thread: the executing
  /// engine during a run, shard 0 during single-threaded setup.
  int pool_shard() const;

  /// Sum every host's counters (one pass over host_state_).
  EmulatorStats fold_stats() const;

  double compute_lookahead() const;
  void register_channel_lookaheads();

  const topology::Network& network_;
  const routing::RoutingView& routes_;
  std::vector<int> node_engine_;
  int engines_;
  EmulatorConfig config_;
  double lookahead_;
  std::unique_ptr<des::Kernel> kernel_;
  PacketPool pool_;
  std::unique_ptr<NetFlowCollector> netflow_;
  std::vector<HostState> host_state_;           // indexed by NodeId
  std::vector<double> link_next_free_;          // 2 per link (by direction)
  std::vector<std::uint64_t> link_drops_;       // 2 per link
  std::function<void(const Packet&, SimTime)> icmp_handler_;
  TraceRecorder* recorder_ = nullptr;
  const fault::FaultTimeline* faults_ = nullptr;
  std::vector<EpochCursor> epoch_cursor_;    // indexed by engine
  std::vector<EpochCounters> epoch_slots_;   // epoch * engines + engine
  // Latency accounting: slot (series * epochs + epoch) * engines + engine,
  // written only by its engine's thread (same race-freedom discipline as
  // epoch_slots_). latency_epochs_ tracks the timeline's epoch count (1
  // without faults); set_fault_timeline() re-shapes the — still all-zero —
  // slot array, so registration order vs timeline attachment is free.
  std::vector<std::string> latency_names_;
  std::vector<LatencyHistogram> latency_slots_;
  std::size_t latency_epochs_ = 1;
  RebalanceStats rebalance_stats_;
  SimTime run_until_ = 0;
  bool ran_ = false;
  // The run-end fold of host_state_; empty until run() returns, so engine
  // threads only ever read it.
  std::optional<EmulatorStats> final_stats_;
  // Safepoint hook chain (run() installs one kernel hook that runs these in
  // order: pre hook, rebalance hook, checkpoint write).
  std::function<void(SimTime)> pre_safepoint_hook_;
  std::function<void(SimTime)> rebalance_hook_;
  // Checkpoint schedule state.
  CheckpointConfig ckpt_cfg_;
  bool ckpt_enabled_ = false;
  std::vector<SimTime> ckpt_times_;  // ascending snapshot instants
  std::size_t ckpt_cursor_ = 0;      // next unwritten snapshot instant
  std::uint64_t ckpt_seq_ = 0;       // sequence number of the next snapshot
  std::uint64_t ckpt_written_ = 0;
};

}  // namespace massf::emu
