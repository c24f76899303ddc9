// Conservative parallel discrete-event simulation kernel (MaSSF substitute).
//
// The emulated network is split across `lp_count` logical processes (LPs) —
// one per physical "simulation engine node" in the paper. Synchronization is
// the classic conservative lookahead-window protocol used by DaSSF/MaSSF:
//
//   * Every cross-LP interaction must be scheduled at least `lookahead`
//     into the future (in the emulator, a cross-partition packet hop whose
//     link latency is >= the minimum cross-partition link latency).
//   * Execution proceeds in windows [W, W+lookahead): within a window every
//     LP may process its local events independently; remote events produced
//     in the window are delivered at the window barrier, which is safe
//     because their timestamps are >= W+lookahead.
//   * Idle spans are skipped: the next window starts at the globally
//     earliest pending event.
//
// This is exactly why the paper's TOP objective maximizes cross-partition
// link latency: a larger lookahead means wider windows, fewer barriers, and
// more concurrency (§2.2.3).
//
// The kernel runs in two modes that produce bit-identical event histories:
// Sequential (default; benches use it for determinism) and Threaded
// (min(lp_count, usable CPUs) std::threads, synchronized through
// util::SpinBarrier and util::WaitSlot). Both run the same worker loop, in
// which each worker owns a block of LPs and each LP's step first drains its
// inbound runs, then executes below its limit; cross-LP events travel as
// batched runs on per-channel lock-free run queues under both protocols.
//
// Two synchronization protocols are available (SyncMode):
//
//   * GlobalWindow (default) — the lockstep protocol above: every LP
//     advances in windows sized by the single global minimum lookahead,
//     with one barrier per window. Its completion closes the window,
//     publishes every outbox and opens the next window.
//   * ChannelLookahead — CMB-style per-channel earliest-output-time
//     advancement: each LP holds a lower bound per *inbound channel*
//     (the sender's published safe time + that channel's lookahead,
//     registered via set_channel_lookahead from the actual per-engine-pair
//     cut-link latencies) and advances to the min over its inbound
//     channels, publishing its own clock through a lock-free cache-line-
//     aligned atomic slot. No global barrier on the hot path — a
//     rendezvous barrier runs only for idle-jumps and termination. One
//     slow (high-latency, i.e. high-lookahead) channel no longer throttles
//     LP pairs that are only coupled through fast links. Event histories
//     (history_hash) are bit-identical across both protocols and both
//     execution modes. See DESIGN.md §8.
//
// "Emulation time" is *modeled*, not measured: each event costs
// cost.per_event seconds of engine CPU, each remote message costs
// cost.per_remote_message on both sender and receiver, and each window
// costs max-over-LPs(window busy time) + cost.per_window_sync. This models
// the per-window critical path on a real cluster — precisely the quantity
// load balance improves — while keeping results deterministic (DESIGN.md
// substitution notes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace massf::ckpt {
class Writer;
class Reader;
}  // namespace massf::ckpt

namespace massf::des {

using SimTime = double;

/// The kernel's one event type: an opaque pool-owned record plus the node
/// it arrives at. The kernel never inspects `payload`; it hands the event
/// to the registered EventSink when it fires. `node` doubles as the rehome
/// key (see rehome_events); -1 pins the event to the LP it was scheduled
/// on. Carrying this POD inline keeps the per-hop hot path free of heap
/// churn — the paper's per-engine load is "essentially one kernel event per
/// packet" (§4.1.1), so this is the cost that bounds emulation scale.
///
/// `lane` is a queueing hint: the FIFO stream the event belongs to, or -1
/// for none. A lane is any stream its scheduler produces in (t, origin,
/// seq) order; the emulator names two families (emu::KernelLanes): a link
/// direction's hops and a host's first-attempt reliable timeouts. Events
/// of one lane that are scheduled in that order wait in a chain behind the
/// lane's earliest event instead of in the LP's heap. The hint changes only
/// the queue's cost, never the execution order: an event that does not
/// follow its lane's last one simply joins the heap.
struct PacketEvent {
  void* payload = nullptr;
  std::int32_t node = -1;
  std::int32_t lane = -1;
};

/// Receiver of every kernel event (the emulator). Registered once before
/// the first schedule_packet; invoked on the executing LP's thread with
/// now() and current_lp() set. Must outlive the run.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_packet_event(const PacketEvent& event) = 0;
};

/// Per-operation costs (seconds of engine CPU) for the modeled emulation
/// time. Defaults approximate the paper's 550 MHz PII engines on 100 Mb/s
/// Ethernet: ~5 µs to process a packet event, ~20 µs to ship one across
/// engines, ~200 µs for a cluster-wide window barrier. Under
/// SyncMode::ChannelLookahead there is no per-window barrier;
/// per_window_sync is charged only per rendezvous (idle-jump / termination).
struct CostModel {
  double per_event = 5e-6;
  double per_remote_message = 20e-6;
  double per_window_sync = 200e-6;
};

/// Synchronization protocol (see header comment).
enum class SyncMode { GlobalWindow, ChannelLookahead };

/// Stable display name ("global-window" / "channel-lookahead").
const char* to_string(SyncMode mode);

/// Iterations a threaded worker spends in the cpu_relax() spin loop —
/// waiting for an inbound clock, mail, or a barrier phase — before parking
/// on its futex-backed wait slot. ~2k pause iterations is on the order of
/// a microsecond: long enough to bridge a neighbour's typical publish
/// cadence without a syscall, short enough that a genuinely idle span
/// costs one park instead of a burned scheduler quantum.
inline constexpr std::uint32_t kSpinIterationsBeforePark = 2048;

/// Slots of each LP's lane tail cache (a power of two): lane L may chain
/// only while slot L mod kLaneTailSlots is free or already L's, so two busy
/// lanes kLaneTailSlots apart share one chain slot and the later one's
/// events queue loose in the heap. Exposed so tests can make lanes collide.
inline constexpr std::size_t kLaneTailSlots = 1024;

/// Per-directed-channel counters (single-writer: maintained by the
/// receiving LP). Throttle fields stay 0 under GlobalWindow.
struct ChannelStat {
  int src = 0;
  int dst = 0;
  /// Registered lookahead of this channel (seconds of sim time).
  double lookahead = 0;
  /// Events delivered through this channel's mailbox.
  std::uint64_t delivered = 0;
  /// Times this channel was the binding constraint while the receiver had
  /// a pending event it could not yet safely execute.
  std::uint64_t throttled = 0;
  /// Worst safe-time lag observed when throttled: pending event time minus
  /// the channel-implied bound (how far behind the sender's published
  /// clock held the receiver back).
  double max_lag = 0;
};

/// Execution statistics; the raw material for every paper metric.
struct KernelStats {
  /// Simulation kernel events executed per LP (the paper's per-engine load,
  /// §4.1.1: "essentially one per packet").
  std::vector<std::uint64_t> events_per_lp;
  /// Modeled busy seconds per LP.
  std::vector<double> busy_per_lp;
  /// Cross-LP messages delivered.
  std::uint64_t remote_messages = 0;
  /// Synchronization windows executed (each implies a barrier). Always 0
  /// under ChannelLookahead, which has no windows — see channel_advances.
  std::uint64_t windows = 0;
  /// Protocol this run used.
  SyncMode sync_mode = SyncMode::GlobalWindow;
  /// ChannelLookahead only: execution bursts (iterations of the per-LP
  /// advance loop that executed at least one event) summed over LPs — the
  /// channel-mode analogue of `windows`, except bursts are per-LP and
  /// barrier-free.
  std::uint64_t channel_advances = 0;
  /// ChannelLookahead only: rendezvous barriers taken to jump over globally
  /// idle spans (termination detection is one more rendezvous on top).
  std::uint64_t idle_jumps = 0;
  /// Batched outbox runs published to channel mailboxes (one release-store
  /// each). GlobalWindow: one per (sender, receiver) pair with traffic per
  /// window, in every mode. ChannelLookahead: one per (sender step that
  /// sent, receiver) pair — deterministic in Sequential mode; in Threaded
  /// mode a diagnostic (how events group into steps depends on timing).
  std::uint64_t handoff_runs = 0;
  /// Threaded only: times a worker exhausted its spin budget and parked on
  /// its wait slot (futex). Timing-dependent diagnostic.
  std::uint64_t parks = 0;
  /// Per-directed-channel delivery/throttle stats, ordered by (src, dst);
  /// Σ delivered == remote_messages under both protocols.
  std::vector<ChannelStat> channels;
  /// Modeled wall-clock emulation time (see header comment): pure engine
  /// work, Σ_windows (max busy + sync). The right metric for replay runs
  /// ("network emulation time in isolation", paper Figures 9/10).
  double modeled_time = 0;
  /// Modeled *application* emulation time: per window,
  /// max(simulated-time advance, engine work). Live applications execute
  /// directly at real-time speed, so the emulation cannot finish a window
  /// faster than the application computes through it — the emulator only
  /// shows up when it is the bottleneck. This is the paper's "application
  /// emulation time" (Figures 6/7) and explains why compute-bound GridNPB
  /// sees smaller relative gains than ScaLapack.
  double coupled_time = 0;
  /// Highest event timestamp executed.
  SimTime sim_time_reached = 0;
  /// Per-LP event counts bucketed by simulation time (row = LP, column =
  /// bucket of width `bucket_width`); drives the fine-grained imbalance
  /// figures (paper Figures 2 and 8).
  double bucket_width = 2.0;
  std::vector<std::vector<double>> load_series;
  /// 64-bit stream hash (splitmix-style mix per event) of each LP's
  /// executed (time, origin, seq) stream, XORed across LPs; identical
  /// between Sequential and Threaded runs.
  std::uint64_t history_hash = 0;
  /// Safepoints fired (add_safepoint): global quiescent pauses at which the
  /// safepoint hook ran (rebalance decisions, live migration).
  std::uint64_t safepoints = 0;
  /// Pending events moved between LPs by rehome_events across all
  /// safepoints (live migration traffic, in events).
  std::uint64_t events_rehomed = 0;

  /// Per-LP event rates as doubles (for stats::normalized_imbalance).
  std::vector<double> loads() const;
};

enum class ExecutionMode { Sequential, Threaded };

/// The simulation kernel. Not reusable: construct, populate, run once.
class Kernel {
 public:
  /// lookahead must be positive: it is the cross-LP scheduling horizon.
  Kernel(int lp_count, double lookahead, CostModel cost = {});
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  int lp_count() const { return lp_count_; }
  double lookahead() const { return lookahead_; }

  /// Simulation-time bucket width for the load series (default 2 s, the
  /// paper's fine-grained measurement interval). Set before run_until.
  void set_bucket_width(double width);

  /// Select the synchronization protocol (default GlobalWindow). Set before
  /// run_until.
  void set_sync_mode(SyncMode mode);
  SyncMode sync_mode() const { return sync_mode_; }

  /// Register a directed channel src → dst with its own lookahead (the
  /// minimum latency of cut links between that engine pair — at least the
  /// global lookahead, which is the min over *all* pairs). Semantics:
  ///
  ///   * No channels registered: run_until connects all LP pairs
  ///     implicitly at the global lookahead (ChannelLookahead then degrades
  ///     gracefully; GlobalWindow is unaffected).
  ///   * Any channel registered: the channel graph is exactly the
  ///     registered pairs. schedule_packet_remote to an unregistered pair
  ///     is rejected, and remote sends validate against
  ///     the *channel's* lookahead rather than the global one (this also
  ///     tightens GlobalWindow-mode validation — safe, since per-pair
  ///     lookaheads are >= the global minimum by construction).
  ///
  /// Registering the same pair again overwrites its lookahead. Callable
  /// before run_until, or from inside a safepoint hook (live migration can
  /// create new cut pairs mid-run; raising an existing channel's lookahead
  /// at a safepoint is safe because every pre-safepoint event has already
  /// been drained and rehomed, and post-safepoint sends obey the new
  /// mapping's latencies).
  void set_channel_lookahead(int src, int dst, double la);

  /// Lookahead of the directed channel src → dst: the registered value; the
  /// global lookahead when no channels are registered at all; +infinity for
  /// a pair absent from a non-empty channel graph (no channel — sends
  /// rejected).
  double channel_lookahead(int src, int dst) const;

  /// Register the sink that receives every event. Required before any
  /// schedule_packet/schedule_packet_remote call; the sink is not owned.
  void set_event_sink(EventSink* sink);

  /// Schedule an event on LP `lp` at absolute time `t`.
  /// Before run_until(): any LP may be targeted (initial event population).
  /// During execution: only the currently executing LP may be targeted
  /// (same-engine hop); use schedule_packet_remote for other LPs.
  void schedule_packet(int lp, SimTime t, PacketEvent event);

  /// Schedule onto another LP from inside an executing event. Requires
  /// t >= now() + the channel's lookahead (conservative safety; the
  /// emulator satisfies this because cross-partition link latencies are
  /// >= lookahead).
  void schedule_packet_remote(int to_lp, SimTime t, PacketEvent event);

  /// The LP whose event is currently executing on this thread (-1 outside
  /// event execution). Thread-local so it is correct in Threaded mode.
  int current_lp() const;

  /// Timestamp of the event currently executing on this thread (0 outside
  /// event execution).
  SimTime now() const;

  // ---- Safepoints (live rebalancing) ------------------------------------
  //
  // A safepoint is a globally quiescent pause at simulation time `sp`:
  // the worker loop (both SyncModes × both ExecutionModes) clips event
  // execution strictly below the next pending safepoint, and once every
  // event with t < sp has executed — and every outbox and in-flight
  // channel run has been drained into its receiver's queue — the
  // hook runs single-threaded with all workers parked. Inside the hook
  // (and only there) the kernel permits rehome_events,
  // lower_global_lookahead, and mid-run set_channel_lookahead: together
  // they implement live LP-state migration. Because the pre-safepoint
  // history is complete, the moved event set is key-determined, and the
  // per-LP pop order depends only on the event set, history_hash stays
  // bit-identical across all four sync × exec combinations for a fixed
  // safepoint schedule. Each safepoint is charged one cost.per_window_sync
  // of modeled time (a cluster-wide rendezvous).

  /// Register a safepoint at simulation time t (> 0). Call before
  /// run_until; duplicates are coalesced. Safepoints at or past end_time
  /// never fire.
  void add_safepoint(SimTime t);

  /// Invoked at each safepoint with the safepoint time, after global
  /// quiescence. At most one hook; set before run_until.
  using SafepointHook = std::function<void(SimTime)>;
  void set_safepoint_hook(SafepointHook hook);

  /// True while a safepoint hook is executing (gates the mutators below).
  bool in_safepoint() const { return in_safepoint_; }

  /// Move every pending keyed event to the LP `target_of(key)` (the key is
  /// PacketEvent::node; key -1 events are pinned and never move).
  /// target_of must return a valid LP index for every key it is shown.
  /// Returns the number of events moved. Hook-only.
  std::uint64_t rehome_events(const std::function<int(std::int32_t)>& target_of);

  /// Lower the global lookahead to `la` (0 < la <= current). Migration can
  /// create cut pairs with smaller latency than any pre-run pair; the
  /// global bound may only shrink, never grow, so conservative safety is
  /// preserved. Hook-only.
  void lower_global_lookahead(double la);

  /// Visit every event scheduled and not yet executed, in no particular
  /// order: LP queues, outboxes and unconsumed channel runs. Exact only
  /// while the kernel is not executing events (before or after run_until,
  /// or from a safepoint hook).
  void for_each_pending(
      const std::function<void(const PacketEvent&)>& visit) const;
  /// The number of events for_each_pending visits.
  std::uint64_t pending_events() const;

  /// Events executed so far by one LP. Stable only while the kernel is not
  /// executing events (from a safepoint hook, or after run_until returns) —
  /// the load monitor samples it at safepoints.
  std::uint64_t events_executed(int lp) const;

  // ---- Checkpoint / restore ---------------------------------------------
  //
  // A checkpoint captures the complete kernel run state at a safepoint —
  // per-LP event queues, counters, history-hash
  // streams, load series, the channel graph with its per-channel stats, and
  // the live aggregate counters — such that a freshly built kernel restored
  // from it and run to the same end_time produces a bit-identical
  // history_hash to the uninterrupted run. The safepoint quiescence
  // protocol guarantees (and save_checkpoint verifies) that outboxes,
  // dirty-destination lists and channel mailboxes are all empty, so LP
  // queues are provably the whole pending-event set. See DESIGN.md §12.

  /// Serialize the kernel run state into `w`. Hook-only (the quiescent
  /// single-threaded pause is what makes the state well defined).
  /// `save_payload` serializes one PacketEvent payload (the emulator writes
  /// the pool-owned Packet record).
  void save_checkpoint(
      ckpt::Writer& w,
      const std::function<void(ckpt::Writer&, const PacketEvent&)>&
          save_payload) const;

  /// Restore state saved by save_checkpoint into this kernel. Must be
  /// called before run_until, on a kernel built with the same lp_count,
  /// sync mode and cost model; every event already scheduled (setup
  /// population) is discarded first — `drop_payload` disposes their packet
  /// payloads — and `load_payload` reconstructs each checkpointed payload
  /// into its event (whose `node` is already restored; it may reject both).
  /// Safepoints registered at or before the checkpoint time are skipped by
  /// the subsequent run_until (they already fired in the original run).
  void restore_checkpoint(
      ckpt::Reader& r,
      const std::function<void(ckpt::Reader&, PacketEvent&)>& load_payload,
      const std::function<void(void*)>& drop_payload);

  /// Simulation time of the checkpoint this kernel was restored from
  /// (0 when the kernel started fresh).
  SimTime resume_time() const { return resume_time_; }

  /// Execute until no events remain with time < end_time. May be called
  /// once. Threaded runs min(lp_count, usable CPUs) workers.
  void run_until(SimTime end_time,
                 ExecutionMode mode = ExecutionMode::Sequential);

  const KernelStats& stats() const { return stats_; }

  static constexpr SimTime never() {
    return std::numeric_limits<SimTime>::infinity();
  }

 private:
  struct Impl;
  /// Coordination state of one run_until, shared by its workers.
  struct Run;
  /// Test seam: run_until with an explicit worker count (1 <= W <=
  /// lp_count), so 1 < W < lp_count is covered on every host. Runs W
  /// workers, each owning a contiguous block of LPs; one worker runs on the
  /// calling thread.
  friend struct KernelTestPeer;
  void run_until(SimTime end_time, std::size_t workers);
  /// Test seam: pending events waiting in lane chains behind their lane's
  /// earliest event (out of the heap). Same stability as pending_events.
  std::uint64_t chained_events() const;

  /// The worker loop: rounds of per-LP steps, each followed by the sync
  /// step of the protocol.
  void work(Run& run, std::size_t worker);
  /// One LP's share of a round (drain, then execute below the limit);
  /// returns whether it executed anything.
  bool step(Run& run, std::size_t lp);
  /// ChannelLookahead: wait until an owned LP may have work, or join the
  /// rendezvous once every worker is stalled.
  void stall(Run& run, std::size_t worker, std::vector<SimTime>& snapshot);
  /// GlobalWindow: account the window that just ended, then flush every
  /// outbox (the receivers drain the runs at their next step).
  void close_window(Run& run);
  /// Completion step of the quiescent barrier (every worker parked): close
  /// the open GlobalWindow window, fire due safepoints, then stop, open the
  /// next window (GlobalWindow) or jump every clock over an idle span
  /// (ChannelLookahead). Also opens a GlobalWindow run's first window.
  void quiesce(Run& run, bool window_open) noexcept;
  /// Earliest pending event anywhere (queues and in-flight channel runs).
  /// Only meaningful with every worker parked.
  SimTime earliest_pending() const;
  void finalize_channel_run(SimTime end_time);
  double remote_lookahead(int to_lp) const;

  /// Next pending safepoint time, or never() when the schedule is spent.
  SimTime next_safepoint() const;

  /// The checkpoint field list, shared by save_ and restore_checkpoint.
  template <class Io, class Self, class Payload, class Drop>
  static void serialize(Io& io, Self& self, const Payload& payload,
                        const Drop& drop);

  int lp_count_;
  double lookahead_;
  CostModel cost_;
  EventSink* sink_ = nullptr;
  KernelStats stats_;
  SimTime sim_position_ = 0;  // sim time already charged to coupled_time
  bool ran_ = false;
  bool in_safepoint_ = false;
  SyncMode sync_mode_ = SyncMode::GlobalWindow;
  std::vector<SimTime> safepoints_;  // sorted + deduped at run_until
  std::size_t next_sp_ = 0;          // index of the next unfired safepoint
  SimTime resume_time_ = 0;          // checkpoint time restored from (0 = fresh)
  SafepointHook safepoint_hook_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace massf::des
