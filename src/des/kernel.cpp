#include "des/kernel.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "ckpt/ckpt.hpp"
#include "util/parallel.hpp"
#include "util/spinwait.hpp"
#include "util/thread_annotations.hpp"

namespace massf::des {

namespace {

constexpr std::uint64_t kHashSeed = 1469598103934665603ULL;

// Cap on the number of load-series buckets pre-reserved from the run
// horizon: callers sometimes pass a generous end_time (run-until-quiet) and
// reserving gigabytes for buckets that will never be touched helps nobody.
constexpr std::size_t kMaxReservedBuckets = 1 << 16;

// One step of the per-LP history stream hash: xor-in then a splitmix64-style
// finalizer round. Runs twice per executed event, so it must be a handful of
// instructions — the byte-granular FNV-1a it replaced cost 16 multiplies per
// event on the hot path.
std::uint64_t hash_mix(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

std::uint64_t time_bits(SimTime t) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(t));
  std::memcpy(&bits, &t, sizeof(bits));
  return bits;
}

// Execution context of the thread currently running events. Thread-local so
// Threaded mode is race-free; Sequential mode uses the caller's thread.
thread_local int tl_current_lp = -1;
thread_local SimTime tl_now = 0;

// Section tags for the checkpoint payload (a load checks each one, turning
// layout drift into an actionable error instead of garbage fields).
constexpr std::uint32_t kTagKernel = 0x6b726e6c;    // "krnl"
constexpr std::uint32_t kTagChannels = 0x6b636873;  // "kchs"
constexpr std::uint32_t kTagLp = 0x6b6c7073;        // "klps"
constexpr std::uint32_t kTagKernelEnd = 0x6b656e64; // "kend"

/// First-exception box shared by the worker threads of a run. `failed` is
/// the lock-free flag the hot loops poll; the exception itself travels
/// under the mutex. Cold by construction (touched only on failure), but the
/// polled flag still gets its own cache line so reading it never contends
/// with the slot the mutex protects.
struct FailureBox {
  util::Mutex m;
  std::exception_ptr first MASSF_GUARDED_BY(m);
  alignas(64) std::atomic<bool> failed{false};

  void record(std::exception_ptr e) {
    {
      util::MutexLock lock(m);
      if (!first) first = std::move(e);
    }
    failed.store(true, std::memory_order_release);
  }

  /// Null when no worker failed. Call after the threads are joined.
  std::exception_ptr take() {
    util::MutexLock lock(m);
    return first;
  }
};

}  // namespace

const char* to_string(SyncMode mode) {
  return mode == SyncMode::GlobalWindow ? "global-window" : "channel-lookahead";
}

std::vector<double> KernelStats::loads() const {
  std::vector<double> out(events_per_lp.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<double>(events_per_lp[i]);
  return out;
}

struct Kernel::Impl {
  /// One scheduled event: 40 trivially-copyable bytes, so heap sifts (the
  /// single hottest operation in the kernel) move events by plain memcpy.
  /// The kernel owns nothing inside it; the payload belongs to the sink.
  /// `link` is the queue's own field (see EventQueue) and fills what would
  /// otherwise be padding.
  struct Event {
    SimTime t;
    std::uint32_t origin;
    std::uint32_t link;
    std::uint64_t seq;
    PacketEvent packet;
  };
  static_assert(std::is_trivially_copyable_v<Event>);
  static_assert(sizeof(Event) == 40);

  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.origin != b.origin) return a.origin > b.origin;
      return a.seq > b.seq;
    }
  };

  /// One LP's pending events: a binary min-heap of *lane chains* and loose
  /// events. A lane (PacketEvent::lane) is any FIFO stream, such as a link
  /// direction's hops or a host's timeouts in the emulator, whose events
  /// mostly arrive already in (t, origin, seq) order, so only its earliest
  /// event sits in the heap; the chain of its events waits in `slab`, a
  /// singly linked list per lane. Appending to a chain costs no heap
  /// operation, and popping a chain head replaces it in place with its
  /// successor (one sift-down, not a pop plus a push).
  ///
  /// A lane finds its chain through `tails`, a direct-mapped cache indexed
  /// by lane mod kLaneTailSlots that holds the lane and its chain's last
  /// node. Nothing is kept per lane that has no events queued. An event
  /// joins the heap loose when it carries no lane, when another lane's
  /// chain holds its slot, or when it does not follow its lane's last
  /// event. Chains are therefore sorted and the heap holds each chain's
  /// minimum, so the pop sequence is the unique sorted sequence of the
  /// pending set however its events were hinted.
  ///
  /// Event::link holds the queue's links: in the heap, the slab node of
  /// the chain head the event is a copy of (kLoose for a loose event); in
  /// the slab, the next node of its chain or of the free list (kNil at the
  /// end). A chain head stays in the slab while it heads the chain, so the
  /// chain's last event is always a slab node.
  struct EventQueue {
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kLoose = kNil;
    static constexpr auto kSlotMask =
        static_cast<std::uint32_t>(kLaneTailSlots - 1);
    static_assert((kLaneTailSlots & kSlotMask) == 0,
                  "kLaneTailSlots must be a power of two");

    /// One tail-cache slot: the lane whose chain holds it (-1 = free) and
    /// that chain's last node.
    struct Tail {
      std::int32_t lane = -1;
      std::uint32_t last = kNil;
    };

    std::vector<Event> heap;
    std::vector<Event> slab;
    std::vector<Tail> tails = std::vector<Tail>(kLaneTailSlots);
    std::uint32_t free_node = kNil;
    std::size_t chained = 0;  // slab nodes behind their chain's head

    bool empty() const { return heap.empty(); }
    const Event& top() const { return heap.front(); }

    void enqueue(Event e) {
      const std::int32_t lane = e.packet.lane;
      e.link = kLoose;
      if (lane >= 0) {
        Tail& tail = tails[static_cast<std::uint32_t>(lane) & kSlotMask];
        if (tail.lane == lane) {
          if (EventLater{}(e, slab[tail.last])) {
            const std::uint32_t n = store(e);
            slab[tail.last].link = n;
            tail.last = n;
            ++chained;
            return;
          }
        } else if (tail.lane < 0) {
          e.link = store(e);
          tail = {lane, e.link};
        }
      }
      // massf-check: allow(hot-path-alloc) — pops never shrink the heap,
      // so growth stops at the LP's pending-event high-water mark.
      heap.push_back(e);
      sift_up(heap.size() - 1);
    }

    Event pop() {
      const Event top = heap.front();
      if (top.link != kLoose) {
        const std::uint32_t next = slab[top.link].link;
        release(top.link);
        if (next != kNil) {
          // The chain's next event takes the head's place in the heap.
          Event head = slab[next];
          head.link = next;
          --chained;
          sift_down(head);
          return top;
        }
        // The chain is spent; its slot is free again.
        tails[static_cast<std::uint32_t>(top.packet.lane) & kSlotMask].lane =
            -1;
      }
      const Event last = heap.back();
      heap.pop_back();
      if (!heap.empty()) sift_down(last);
      return top;
    }

    /// Move every pending event into `out` (any order) and empty the queue.
    void take_all(std::vector<Event>& out) {
      for_each([&out](const Event& e) { out.push_back(e); });
      for (Tail& tail : tails) tail.lane = -1;
      heap.clear();
      slab.clear();
      free_node = kNil;
      chained = 0;
    }

    /// Visit every pending event (any order).
    template <class Fn>
    void for_each(Fn&& fn) const {
      for (const Event& e : heap) {
        fn(e);
        if (e.link == kLoose) continue;
        for (std::uint32_t n = slab[e.link].link; n != kNil; n = slab[n].link)
          fn(slab[n]);
      }
    }

   private:
    /// Copy `e` into a free slab node with no successor; returns the node.
    std::uint32_t store(const Event& e) {
      std::uint32_t n = free_node;
      if (n != kNil) {
        free_node = slab[n].link;
        slab[n] = e;
      } else {
        n = static_cast<std::uint32_t>(slab.size());
        // massf-check: allow(hot-path-alloc) — nodes recycle through the
        // free list, so growth stops at the LP's chained high-water mark.
        slab.push_back(e);
      }
      slab[n].link = kNil;
      return n;
    }

    void release(std::uint32_t n) {
      slab[n].link = free_node;
      free_node = n;
    }

    void sift_up(std::size_t hole) {
      const Event e = heap[hole];
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!EventLater{}(heap[parent], e)) break;
        heap[hole] = heap[parent];
        hole = parent;
      }
      heap[hole] = e;
    }

    /// Place `e` at the root and sift it down to its place. Kept out of
    /// line: GCC 12 -O3 otherwise inlines both of pop's copies into
    /// Kernel::step's event loop, and that loop then ran `hier_cbr` ~10%
    /// slower (perfbench, 4-CPU x86-64 Xeon).
    [[gnu::noinline]] void sift_down(const Event& e) {
      const std::size_t n = heap.size();
      std::size_t hole = 0;
      while (true) {
        std::size_t child = 2 * hole + 1;
        if (child >= n) break;
        if (child + 1 < n && EventLater{}(heap[child], heap[child + 1]))
          ++child;
        if (!EventLater{}(e, heap[child])) break;
        heap[hole] = heap[child];
        hole = child;
      }
      heap[hole] = e;
    }
  };

  /// alignas(64): each LP's hot state (queue, outboxes, counters) lives on
  /// its own cache lines so one engine's bookkeeping never falsely shares
  /// with a neighbour's in threaded runs.
  struct alignas(64) Lp {
    EventQueue queue;
    std::uint64_t seq_counter = 0;
    /// Cross-LP sends staged per destination LP until the next publish
    /// point: the end of this LP's step (ChannelLookahead) or the window
    /// close (GlobalWindow).
    std::vector<std::vector<Event>> outbox;
    /// Destinations whose outbox slot is non-empty (what a flush visits).
    std::vector<std::uint32_t> dirty_dsts;
    double window_busy = 0;
    std::uint64_t events = 0;
    double busy_total = 0;
    /// Charge the open window's (or advance's) busy time to the total.
    void fold_busy() {
      busy_total += window_busy;
      window_busy = 0;
    }
    std::uint64_t remote_sent = 0;
    std::uint64_t remote_received = 0;
    std::uint64_t history = kHashSeed;
    SimTime max_time = 0;
    /// Reused staging buffer for inbox/mailbox merges (this LP only).
    std::vector<Event> scratch;
    /// ChannelLookahead: advance-loop iterations that executed something.
    std::uint64_t advances = 0;
    /// Wait slot of the worker that owns this LP: senders ring it after
    /// publishing a run or advancing their clock. Null when one worker
    /// owns every LP (it never waits on anyone) and under GlobalWindow
    /// (its workers wait only at barriers).
    util::WaitSlot* doorbell = nullptr;
    /// Batched outbox runs this LP published (deterministic in Sequential
    /// mode).
    std::uint64_t handoff_runs = 0;
    /// Times this LP's worker parked on its wait slot (Threaded only).
    std::uint64_t parks = 0;
    std::vector<double> series;  // event counts per sim-time bucket
  };

  /// One directed cross-LP channel; every cross-LP event under either
  /// SyncMode travels through one. The mailbox is a single-producer
  /// single-consumer unbounded run queue (Vyukov-style stub-swinging
  /// linked list): the sender publishes a whole
  /// outbox run with ONE release store (`head->next.store(node, release)`),
  /// the receiver consumes runs in publish order by walking `tail->next`,
  /// and spent stubs return through the `recycled` stack. Nodes — and the
  /// vector capacity inside them — cycle sender → queue → receiver →
  /// recycled → sender, so the steady state allocates nothing and the only
  /// cross-core traffic is the run handoff itself.
  struct Channel {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    double lookahead = 0;
    /// One published run plus the queue link. A node is written by exactly
    /// one side at a time (the sender fills `events` before its release
    /// store of the link; the receiver reads them after its acquire load),
    /// and the alignment keeps a node being filled off the line the
    /// receiver is polling.
    struct alignas(64) RunNode {
      std::vector<Event> events;
      std::atomic<RunNode*> next{nullptr};
    };
    /// Sender-side cursor: the most recently published node (queue head).
    /// Only the src LP touches it.
    alignas(64) RunNode* head = nullptr;
    /// Sender-local stash of free nodes popped off `recycled` in bulk.
    RunNode* free_cache = nullptr;
    /// Receiver-side cursor: the consumed stub; `tail->next` is the oldest
    /// unconsumed run (null = empty — the receiver's poll/stall predicate).
    alignas(64) RunNode* tail = nullptr;
    // Receiver-side stats (single-writer: the dst LP's thread).
    std::uint64_t delivered = 0;
    std::uint64_t throttled = 0;
    double max_lag = 0;
    /// Spent stubs returned receiver → sender (Treiber stack: the receiver
    /// CAS-pushes, the sender takes the whole chain with one exchange).
    alignas(64) std::atomic<RunNode*> recycled{nullptr};
  };

  std::vector<Lp> lps;
  /// Registered channels (unique_ptr: Channel is neither movable nor
  /// copyable, and stable addresses let workers hold raw references).
  std::vector<std::unique_ptr<Channel>> channels;
  /// Dense (src * k + dst) → channel index, -1 when unregistered.
  std::vector<std::int32_t> channel_of;
  /// Per-LP inbound channel indices, ascending by src (deterministic bound
  /// and throttle attribution regardless of registration order).
  std::vector<std::vector<std::uint32_t>> inbound;
  /// Per-LP outbound channel indices (doorbell fan-out after a clock
  /// publish; order is irrelevant, only membership matters).
  std::vector<std::vector<std::uint32_t>> outbound;

  explicit Impl(int lp_count) : lps(static_cast<std::size_t>(lp_count)) {
    for (Lp& lp : lps) {
      lp.outbox.resize(static_cast<std::size_t>(lp_count));
      // dirty_dsts holds at most one entry per destination engine, so a
      // send never grows it.
      lp.dirty_dsts.reserve(static_cast<std::size_t>(lp_count));
    }
    // massf-check: allow(quadratic-reserve) — engine-count², not node-count².
    channel_of.assign(lps.size() * lps.size(), -1);
  }

  ~Impl() { free_run_nodes(); }

  /// Free every channel's run nodes: the live queue (tail through head —
  /// the workers are joined, plain loads suffice), the recycled stack, and
  /// the sender cache.
  void free_run_nodes() {
    for (auto& ch : channels) {
      for (Channel::RunNode* node :
           {ch->tail, ch->recycled.load(std::memory_order_relaxed),
            ch->free_cache}) {
        while (node != nullptr) {
          Channel::RunNode* next = node->next.load(std::memory_order_relaxed);
          delete node;  // massf-check: allow(raw-new)
          node = next;
        }
      }
    }
  }

  std::int32_t channel_index(std::size_t src, std::size_t dst) const {
    return channel_of[src * lps.size() + dst];
  }

  /// Drop the whole channel graph so restore_checkpoint can rebuild it from
  /// the snapshot (registration order and per-channel stats included).
  void clear_channels() {
    free_run_nodes();
    channels.clear();
    // massf-check: allow(quadratic-reserve) — engine-count², not node-count².
    channel_of.assign(lps.size() * lps.size(), -1);
  }

  Channel& ensure_channel(int src, int dst, double la) {
    std::int32_t& slot =
        channel_of[static_cast<std::size_t>(src) * lps.size() +
                   static_cast<std::size_t>(dst)];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(channels.size());
      auto ch = std::make_unique<Channel>();
      ch->src = static_cast<std::uint32_t>(src);
      ch->dst = static_cast<std::uint32_t>(dst);
      // Queue stub (the consumed sentinel); freed by the ~Impl sweep.
      // massf-check: allow(raw-new)
      ch->head = ch->tail = new Channel::RunNode;
      channels.push_back(std::move(ch));
    }
    Channel& ch = *channels[static_cast<std::size_t>(slot)];
    ch.lookahead = la;
    return ch;
  }

  /// (Re)build the per-LP inbound and outbound channel lists. Rebuilds
  /// strictly in place: a mid-run safepoint can register new channels while
  /// parked worker threads hold references to the inner vectors, so the
  /// outer vectors must never reallocate after the first call.
  void build_inbound() {
    if (inbound.size() != lps.size()) inbound.resize(lps.size());
    if (outbound.size() != lps.size()) outbound.resize(lps.size());
    for (auto& list : inbound) list.clear();
    for (auto& list : outbound) list.clear();
    for (std::uint32_t c = 0; c < channels.size(); ++c) {
      inbound[channels[c]->dst].push_back(c);
      outbound[channels[c]->src].push_back(c);
    }
    for (auto& list : inbound)
      std::sort(list.begin(), list.end(),
                [this](std::uint32_t a, std::uint32_t b) {
                  return channels[a]->src < channels[b]->src;
                });
  }

  /// Per-event accounting + dispatch to the sink. `inv_bucket_width` is the
  /// precomputed reciprocal: a multiply here instead of a divide per event.
  void execute_event(Lp& lp, Event& e, double per_event_cost,
                     double inv_bucket_width, EventSink* sink) {
    tl_now = e.t;
    lp.window_busy += per_event_cost;
    ++lp.events;
    lp.max_time = std::max(lp.max_time, e.t);
    lp.history = hash_mix(lp.history, time_bits(e.t));
    lp.history = hash_mix(
        lp.history, (static_cast<std::uint64_t>(e.origin) << 32) ^ e.seq);
    const auto bucket = static_cast<std::size_t>(e.t * inv_bucket_width);
    if (lp.series.size() <= bucket) lp.series.resize(bucket + 1, 0.0);
    lp.series[bucket] += 1;
    sink->on_packet_event(e.packet);
  }

  /// Merge a batch of remote events into `receiver`'s queue, charging the
  /// per-message receive cost. A channel run carries each lane's events in
  /// send order, so they mostly extend chains without touching the heap.
  /// Consumes (clears) the batch.
  void merge_batch(Lp& receiver, std::vector<Event>& batch,
                   double per_remote_cost) {
    if (batch.empty()) return;
    for (const Event& event : batch) receiver.queue.enqueue(event);
    const std::size_t incoming = batch.size();
    batch.clear();
    receiver.window_busy += per_remote_cost * static_cast<double>(incoming);
    receiver.remote_received += incoming;
  }

  /// Pop a free run node for `ch` (sender side): the local stash first,
  /// else the whole recycled chain with one exchange, else the allocator.
  Channel::RunNode* take_node(Channel& ch) {
    if (ch.free_cache == nullptr)
      ch.free_cache = ch.recycled.exchange(nullptr, std::memory_order_acquire);
    if (Channel::RunNode* node = ch.free_cache) {
      ch.free_cache = node->next.load(std::memory_order_relaxed);
      return node;
    }
    // Cold path: the steady state recycles. Owned by the channel queue
    // until the ~Impl sweep.
    // massf-check: allow(hot-path-alloc) — node-pool refill, runs only
    // until the free list reaches the in-flight high-water mark.
    return new Channel::RunNode;  // massf-check: allow(raw-new)
  }

  /// Return a spent stub to the sender (receiver side of the Treiber
  /// stack; contends only with the sender's rare bulk exchange).
  void recycle_node(Channel& ch, Channel::RunNode* node) {
    Channel::RunNode* top = ch.recycled.load(std::memory_order_relaxed);
    do {
      node->next.store(top, std::memory_order_relaxed);
    } while (!ch.recycled.compare_exchange_weak(
        top, node, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Publish one outbox slot as a run: a single release store makes the
  /// whole batch visible, then the receiver's doorbell rings. The caller
  /// publishes its clock only afterwards, so a receiver that observes the
  /// new clock is guaranteed to also observe these events.
  void flush_box(std::size_t src, std::uint32_t dst) {
    Lp& sender = lps[src];
    Channel& ch = *channels[static_cast<std::size_t>(channel_index(src, dst))];
    Channel::RunNode* node = take_node(ch);
    node->events.swap(sender.outbox[dst]);  // capacity recycles both ways
    node->next.store(nullptr, std::memory_order_relaxed);
    ch.head->next.store(node, std::memory_order_release);
    ch.head = node;
    ++sender.handoff_runs;
    ring(dst);
  }

  /// Wake the worker that owns `lp`, if it can be waiting.
  void ring(std::size_t lp) {
    if (util::WaitSlot* bell = lps[lp].doorbell) bell->signal();
  }

  /// Publish every non-empty outbox slot of `src`, one run each.
  void flush_channels(std::size_t src) {
    Lp& sender = lps[src];
    for (std::uint32_t dst : sender.dirty_dsts) flush_box(src, dst);
    sender.dirty_dsts.clear();
  }

  /// Receiver side of a channel: consume every published run in publish
  /// order, append its events to `out`, and recycle the spent stubs. The
  /// acquire load of `next` pairs with the sender's release publish in
  /// flush_box.
  void collect_runs(Channel& ch, std::vector<Event>& out) {
    Channel::RunNode* next = ch.tail->next.load(std::memory_order_acquire);
    if (next == nullptr) return;
    const std::size_t before = out.size();
    do {
      // Scratch keeps its capacity across drains (clear() never shrinks);
      // steady state reuses it.
      out.insert(out.end(), next->events.begin(), next->events.end());
      next->events.clear();  // keep the capacity; the node recycles
      Channel::RunNode* spent = ch.tail;
      ch.tail = next;
      recycle_node(ch, spent);
      next = ch.tail->next.load(std::memory_order_acquire);
    } while (next != nullptr);
    ch.delivered += out.size() - before;
  }

  /// Merge every run published to `dst` into its queue: each inbound
  /// channel's runs (ascending by sender) go into ONE batch, so the
  /// receiver gets one receive-cost term. Merging per channel would
  /// re-associate that floating-point sum and move modeled time.
  /// `before_collect(ch)` runs just before each channel is collected.
  template <typename BeforeCollect>
  void drain(std::size_t dst, double per_remote_cost,
             BeforeCollect&& before_collect) {
    Lp& receiver = lps[dst];
    receiver.scratch.clear();
    for (std::uint32_t ci : inbound[dst]) {
      Channel& ch = *channels[ci];
      before_collect(ch);
      collect_runs(ch, receiver.scratch);
    }
    merge_batch(receiver, receiver.scratch, per_remote_cost);
  }

  /// Drain every LP, so the whole pending-event set sits in LP queues: at
  /// each safepoint (for the hook and rehome_events) and at the end of a
  /// GlobalWindow run. Outboxes are empty there (every ChannelLookahead
  /// step and every GlobalWindow close flushes them), but a channel queue
  /// can legitimately be non-empty at quiescence (a ChannelLookahead
  /// receiver stalls on its bound without polling runs it cannot use yet;
  /// a GlobalWindow receiver drains only at its next step). Runs
  /// single-threaded with every worker parked, so the receive cost is
  /// charged exactly once and identically in Sequential and Threaded mode.
  void drain_all_channels(double per_remote_cost) {
    for (std::size_t d = 0; d < lps.size(); ++d)
      drain(d, per_remote_cost, [](const Channel&) {});
  }
};

Kernel::Kernel(int lp_count, double lookahead, CostModel cost)
    : lp_count_(lp_count),
      lookahead_(lookahead),
      cost_(cost),
      impl_(std::make_unique<Impl>(lp_count)) {
  MASSF_REQUIRE(lp_count >= 1, "kernel needs at least one LP");
  MASSF_REQUIRE(lookahead > 0, "lookahead must be positive");
  stats_.events_per_lp.assign(static_cast<std::size_t>(lp_count), 0);
  stats_.busy_per_lp.assign(static_cast<std::size_t>(lp_count), 0.0);
}

Kernel::~Kernel() = default;

int Kernel::current_lp() const { return tl_current_lp; }
SimTime Kernel::now() const { return tl_now; }

void Kernel::set_bucket_width(double width) {
  MASSF_REQUIRE(width > 0, "bucket width must be positive");
  MASSF_REQUIRE(!ran_, "set bucket width before running");
  stats_.bucket_width = width;
}

void Kernel::set_event_sink(EventSink* sink) {
  MASSF_REQUIRE(sink != nullptr, "event sink must not be null");
  sink_ = sink;
}

void Kernel::set_sync_mode(SyncMode mode) {
  MASSF_REQUIRE(!ran_, "set the sync mode before running");
  sync_mode_ = mode;
}

void Kernel::set_channel_lookahead(int src, int dst, double la) {
  MASSF_REQUIRE(!ran_ || in_safepoint_,
                "register channel lookaheads before running or from inside "
                "a safepoint hook");
  MASSF_REQUIRE(src >= 0 && src < lp_count_ && dst >= 0 && dst < lp_count_,
                "channel LP index out of range");
  MASSF_REQUIRE(src != dst, "a channel must connect two distinct LPs");
  MASSF_REQUIRE(std::isfinite(la) && la >= lookahead_,
                "channel lookahead "
                    << la << " must be finite and >= the global lookahead "
                    << lookahead_
                    << " (the global value is the min over all engine pairs)");
  impl_->ensure_channel(src, dst, la);
  // Mid-run registration (parked safepoint): keep the receivers' inbound
  // bound lists current. build_inbound rebuilds in place, so references the
  // parked workers hold stay valid; they re-read sizes after resuming.
  if (ran_) impl_->build_inbound();
}

double Kernel::channel_lookahead(int src, int dst) const {
  MASSF_REQUIRE(src >= 0 && src < lp_count_ && dst >= 0 && dst < lp_count_,
                "channel LP index out of range");
  if (impl_->channels.empty()) return lookahead_;
  const std::int32_t c = impl_->channel_index(static_cast<std::size_t>(src),
                                              static_cast<std::size_t>(dst));
  return c < 0 ? never() : impl_->channels[static_cast<std::size_t>(c)]->lookahead;
}

double Kernel::remote_lookahead(int to_lp) const {
  MASSF_REQUIRE(tl_current_lp >= 0,
                "schedule_packet_remote may only be called from an "
                "executing event");
  MASSF_REQUIRE(to_lp >= 0 && to_lp < lp_count_, "LP index out of range");
  const std::int32_t c =
      impl_->channel_index(static_cast<std::size_t>(tl_current_lp),
                           static_cast<std::size_t>(to_lp));
  MASSF_REQUIRE(c >= 0, "no channel registered from LP "
                            << tl_current_lp << " to LP " << to_lp
                            << ": once any per-channel lookahead is set, "
                               "cross-LP sends are restricted to registered "
                               "channels");
  return impl_->channels[static_cast<std::size_t>(c)]->lookahead;
}

namespace {

/// Validation for local scheduling.
void check_local_target(int lp, int lp_count, SimTime t) {
  MASSF_REQUIRE(lp >= 0 && lp < lp_count, "LP index out of range");
  MASSF_REQUIRE(std::isfinite(t) && t >= 0, "event time must be finite, >=0");
  if (tl_current_lp >= 0) {
    MASSF_REQUIRE(lp == tl_current_lp,
                  "during execution, schedule_packet() may only target the "
                  "executing LP (use schedule_packet_remote)");
    MASSF_REQUIRE(t >= tl_now, "cannot schedule into the past (t="
                                   << t << " < now=" << tl_now << ")");
  }
}

/// Validation for remote scheduling (remote_lookahead already checked that
/// an event is executing and the target is in range).
void check_remote_time(SimTime t, double lookahead) {
  // Conservative safety: the receiver may already be executing events up to
  // now + lookahead. A tiny epsilon absorbs floating-point latency sums.
  MASSF_REQUIRE(t >= tl_now + lookahead - 1e-12,
                "remote event at t=" << t << " violates lookahead (now="
                                     << tl_now << ", lookahead=" << lookahead
                                     << ")");
}

}  // namespace

// massf-check: hot-path-root (per-packet local enqueue)
void Kernel::schedule_packet(int lp, SimTime t, PacketEvent event) {
  check_local_target(lp, lp_count_, t);
  MASSF_REQUIRE(sink_ != nullptr,
                "register an EventSink before scheduling packet events");
  Impl::Lp& state = impl_->lps[static_cast<std::size_t>(lp)];
  state.queue.enqueue(
      {t, static_cast<std::uint32_t>(lp), 0, state.seq_counter++, event});
}

// massf-check: hot-path-root (per-packet cross-engine enqueue)
void Kernel::schedule_packet_remote(int to_lp, SimTime t, PacketEvent event) {
  check_remote_time(t, remote_lookahead(to_lp));
  MASSF_REQUIRE(sink_ != nullptr,
                "register an EventSink before scheduling packet events");
  Impl::Lp& sender = impl_->lps[static_cast<std::size_t>(tl_current_lp)];
  auto& box = sender.outbox[static_cast<std::size_t>(to_lp)];
  if (box.empty())
    sender.dirty_dsts.push_back(static_cast<std::uint32_t>(to_lp));
  // massf-check: allow(hot-path-alloc) — a flush swaps the slot with a
  // recycled run node's vector, so capacity cycles sender → receiver →
  // sender and growth stops at the largest run.
  box.push_back({t, static_cast<std::uint32_t>(tl_current_lp), 0,
                 sender.seq_counter++, event});
  sender.window_busy += cost_.per_remote_message;
  ++sender.remote_sent;
}

// ---- Safepoints -----------------------------------------------------------

void Kernel::add_safepoint(SimTime t) {
  MASSF_REQUIRE(!ran_, "add safepoints before running");
  MASSF_REQUIRE(std::isfinite(t) && t > 0,
                "safepoint time must be positive and finite");
  safepoints_.push_back(t);
}

void Kernel::set_safepoint_hook(SafepointHook hook) {
  MASSF_REQUIRE(!ran_, "set the safepoint hook before running");
  safepoint_hook_ = std::move(hook);
}

SimTime Kernel::next_safepoint() const {
  return next_sp_ < safepoints_.size() ? safepoints_[next_sp_] : never();
}

std::uint64_t Kernel::rehome_events(
    const std::function<int(std::int32_t)>& target_of) {
  MASSF_REQUIRE(in_safepoint_,
                "rehome_events may only be called from a safepoint hook");
  MASSF_REQUIRE(target_of, "rehome target function must be callable");
  auto& lps = impl_->lps;
  // Flatten every LP's queue and re-enqueue each event at its target: its
  // key's LP, or the LP it waited on for pinned (key -1) events. The moved
  // set is determined purely by keys and the pending-event set — identical
  // in every mode at a safepoint — and the (t, origin, seq) pop order does
  // not depend on the order of pushes, so per-LP histories (and
  // history_hash) are unaffected by the traversal here. Re-enqueueing in
  // ascending order lets each lane's events chain again.
  std::vector<Impl::Event> pending;
  std::vector<std::pair<int, Impl::Event>> moved;
  for (std::size_t i = 0; i < lps.size(); ++i) {
    pending.clear();
    lps[i].queue.take_all(pending);
    std::sort(pending.begin(), pending.end(),
              [](const Impl::Event& a, const Impl::Event& b) {
                return Impl::EventLater{}(b, a);
              });
    for (const Impl::Event& e : pending) {
      const std::int32_t key = e.packet.node;
      int target = static_cast<int>(i);
      if (key >= 0) {
        target = target_of(key);
        MASSF_REQUIRE(target >= 0 && target < lp_count_,
                      "rehome target LP " << target << " for key " << key
                                          << " out of range");
      }
      if (target == static_cast<int>(i))
        lps[i].queue.enqueue(e);
      else
        moved.emplace_back(target, e);
    }
  }
  for (auto& [target, e] : moved)
    lps[static_cast<std::size_t>(target)].queue.enqueue(e);
  stats_.events_rehomed += moved.size();
  return static_cast<std::uint64_t>(moved.size());
}

void Kernel::lower_global_lookahead(double la) {
  MASSF_REQUIRE(in_safepoint_,
                "lower_global_lookahead may only be called from a "
                "safepoint hook");
  MASSF_REQUIRE(std::isfinite(la) && la > 0 && la <= lookahead_,
                "the global lookahead may only be lowered mid-run (got "
                    << la << ", current " << lookahead_ << ")");
  lookahead_ = la;
}

void Kernel::for_each_pending(
    const std::function<void(const PacketEvent&)>& visit) const {
  for (const Impl::Lp& lp : impl_->lps) {
    // Walks the heap and its chains, not the queue's counters: an event
    // stranded off every chain would never run, and the emulator's run-end
    // check must see it as lost.
    lp.queue.for_each([&visit](const Impl::Event& e) { visit(e.packet); });
    for (const std::vector<Impl::Event>& box : lp.outbox)
      for (const Impl::Event& e : box) visit(e.packet);
  }
  for (const auto& ch : impl_->channels)
    for (const Impl::Channel::RunNode* r =
             ch->tail->next.load(std::memory_order_acquire);
         r != nullptr; r = r->next.load(std::memory_order_acquire))
      for (const Impl::Event& e : r->events) visit(e.packet);
}

std::uint64_t Kernel::pending_events() const {
  std::uint64_t n = 0;
  for_each_pending([&n](const PacketEvent&) { ++n; });
  return n;
}

std::uint64_t Kernel::chained_events() const {
  std::uint64_t n = 0;
  for (const Impl::Lp& lp : impl_->lps) n += lp.queue.chained;
  return n;
}

std::uint64_t Kernel::events_executed(int lp) const {
  MASSF_REQUIRE(lp >= 0 && lp < lp_count_, "LP index out of range");
  return impl_->lps[static_cast<std::size_t>(lp)].events;
}

// ---- Checkpoint / restore -------------------------------------------------

// Minimum encoded sizes of one channel record and one pending event (the
// event's payload adds at least its one-byte flag).
constexpr std::size_t kChannelBytes = 4 + 4 + 8 + 8 + 8 + 8;
constexpr std::size_t kEventBytes = 8 + 4 + 8 + 8 + 1;

// massf-check: determinism-root (every byte written must be reproducible)
template <class Io, class Self, class Payload, class Drop>
void Kernel::serialize(Io& io, Self& self, const Payload& payload,
                       const Drop& drop) {
  constexpr bool kLoad = Io::kLoading;
  std::conditional_t<kLoad, Impl, const Impl>& impl = *self.impl_;
  io.tag(kTagKernel, "kernel section");
  auto lp_count = static_cast<std::uint32_t>(self.lp_count_);
  io.u32(lp_count);
  MASSF_REQUIRE(lp_count == static_cast<std::uint32_t>(self.lp_count_),
                "checkpoint was taken with "
                    << lp_count << " engines but this kernel has "
                    << self.lp_count_
                    << " — rebuild with the same engine count before "
                       "restoring");
  SyncMode mode = self.sync_mode_;
  io.u8(mode);
  MASSF_REQUIRE(mode == self.sync_mode_,
                "checkpoint was taken under sync mode "
                    << to_string(mode)
                    << " but this kernel is configured for "
                    << to_string(self.sync_mode_)
                    << " — modeled-time continuity requires the same "
                       "protocol");
  MASSF_REQUIRE(io.same_f64(self.cost_.per_event) &&
                    io.same_f64(self.cost_.per_remote_message) &&
                    io.same_f64(self.cost_.per_window_sync),
                "checkpointed cost model differs from this kernel's — "
                "modeled-time continuity would break");
  const double current_lookahead = self.lookahead_;
  io.f64(self.lookahead_);
  MASSF_REQUIRE(std::isfinite(self.lookahead_) && self.lookahead_ > 0 &&
                    self.lookahead_ <= current_lookahead,
                "checkpointed global lookahead "
                    << self.lookahead_ << " is not a valid lowering of the "
                    << "current " << current_lookahead);
  io.f64(self.stats_.bucket_width);
  io.f64(self.sim_position_);
  // The safepoint time: the restored run resumes here.
  SimTime resume = kLoad ? 0.0 : self.now();
  io.f64(resume);
  MASSF_REQUIRE(std::isfinite(resume) && resume >= 0,
                "checkpointed safepoint time " << resume
                    << " is not a finite non-negative time — the snapshot "
                       "is corrupt");
  if constexpr (kLoad) self.resume_time_ = resume;

  // Live aggregate counters. GlobalWindow charges the safepoint rendezvous
  // *after* the hook returns (Kernel::quiesce), and the restored run skips
  // this safepoint entirely, so the charge is folded into the snapshot
  // here. Channel mode recomputes both times in finalize_channel_run from
  // counters that are all saved below.
  io.u64(self.stats_.windows);
  io.u64(self.stats_.safepoints);  // already counts the in-progress one
  io.u64(self.stats_.idle_jumps);
  io.u64(self.stats_.events_rehomed);
  if constexpr (kLoad) {
    io.f64(self.stats_.modeled_time);
    io.f64(self.stats_.coupled_time);
  } else {
    const double charge = self.sync_mode_ == SyncMode::GlobalWindow
                              ? self.cost_.per_window_sync
                              : 0.0;
    io.f64(self.stats_.modeled_time + charge);
    io.f64(self.stats_.coupled_time + charge);
  }

  if constexpr (kLoad) {
    // Discard the setup population: the caller rebuilt the emulator from
    // scratch, so every event scheduled so far (endpoint starts, epoch
    // boundaries) is superseded by the checkpointed queues.
    std::vector<Impl::Event> setup;
    for (Impl::Lp& lp : impl.lps) lp.queue.take_all(setup);
    for (const Impl::Event& e : setup)
      if (e.packet.payload != nullptr) drop(e.packet.payload);
    impl.clear_channels();
  }

  io.tag(kTagChannels, "channel section");
  std::uint64_t channels = impl.channels.size();
  io.entries(channels, kChannelBytes, "channel section");
  for (std::uint64_t c = 0; c < channels; ++c) {
    Impl::Channel* ch = kLoad ? nullptr : impl.channels[c].get();
    std::uint32_t src = ch ? ch->src : 0, dst = ch ? ch->dst : 0;
    double la = ch ? ch->lookahead : 0;
    io.u32(src);
    io.u32(dst);
    io.f64(la);
    MASSF_REQUIRE(src < lp_count && dst < lp_count && src != dst,
                  "checkpointed channel endpoints out of range");
    if constexpr (kLoad)
      ch = &impl.ensure_channel(static_cast<int>(src), static_cast<int>(dst),
                                la);
    io.u64(ch->delivered);
    io.u64(ch->throttled);
    io.f64(ch->max_lag);
  }

  for (auto& lp : impl.lps) {
    io.tag(kTagLp, "per-engine section");
    io.u64(lp.seq_counter);
    io.u64(lp.events);
    io.f64(lp.busy_total);
    // GlobalWindow: the safepoint drain already charged receive costs for
    // the next window into window_busy; they must survive the restore.
    io.f64(lp.window_busy);
    io.u64(lp.remote_sent);
    io.u64(lp.remote_received);
    io.u64(lp.history);
    io.f64(lp.max_time);
    io.u64(lp.advances);
    // Format version 2 slot of a deleted wall-clock diagnostic (0 in every
    // Sequential run); written as 0 and ignored on load.
    double unused = 0;
    io.f64(unused);
    io.u64(lp.handoff_runs);
    io.u64(lp.parks);
    io.f64s(lp.series, "per-engine section");

    // Pending events in ascending (t, origin, seq) order — the canonical
    // pop order, independent of how the queue holds them.
    std::vector<Impl::Event> pending;
    if constexpr (!kLoad) {
      lp.queue.for_each(
          [&pending](const Impl::Event& e) { pending.push_back(e); });
      std::sort(pending.begin(), pending.end(),
                [](const Impl::Event& a, const Impl::Event& b) {
                  return Impl::EventLater{}(b, a);
                });
    }
    io.len(pending, kEventBytes, "per-engine section");
    for (std::size_t i = 0; i < pending.size(); ++i) {
      Impl::Event& e = pending[i];
      io.f64(e.t);
      io.u32(e.origin);
      io.u64(e.seq);
      MASSF_REQUIRE(std::isfinite(e.t) && e.t >= resume,
                    "checkpointed pending event time "
                        << e.t << " is not a finite time at or after the "
                        << "safepoint time " << resume
                        << " — the snapshot is corrupt");
      MASSF_REQUIRE(i == 0 || Impl::EventLater{}(e, pending[i - 1]),
                    "checkpointed pending event (t " << e.t << ", origin "
                        << e.origin << ", seq " << e.seq
                        << ") does not follow its predecessor in ascending "
                        << "(time, origin, seq) order — the snapshot is "
                           "corrupt");
      io.i64(e.packet.node);
      payload(io, e.packet);
    }
    // Saved ascending, so each lane's events (load_payload re-derives the
    // hints) chain again as they are pushed.
    if constexpr (kLoad)
      for (const Impl::Event& e : pending) lp.queue.enqueue(e);
  }
  io.tag(kTagKernelEnd, "kernel trailer");
}

void Kernel::save_checkpoint(
    ckpt::Writer& w,
    const std::function<void(ckpt::Writer&, const PacketEvent&)>& save_payload)
    const {
  MASSF_REQUIRE(in_safepoint_,
                "save_checkpoint may only be called from a safepoint hook — "
                "the quiescent pause is what makes the kernel state well "
                "defined");
  MASSF_REQUIRE(save_payload, "packet payload serializer must be callable");

  // Quiescence audit. The safepoint protocol guarantees all of this (see
  // drain_all_channels and the worker loop structure); a violation
  // here means pending events would be silently dropped from the snapshot.
  for (const Impl::Lp& lp : impl_->lps) {
    MASSF_CHECK(lp.dirty_dsts.empty(),
                "safepoint quiescence violated: staged cross-LP routing");
    for (const std::vector<Impl::Event>& box : lp.outbox)
      MASSF_CHECK(box.empty(),
                  "safepoint quiescence violated: non-empty outbox slot");
  }
  for (const auto& ch : impl_->channels)
    MASSF_CHECK(ch->tail->next.load(std::memory_order_acquire) == nullptr,
                "safepoint quiescence violated: undrained channel run");

  serialize(w, *this, save_payload, nullptr);
}

void Kernel::restore_checkpoint(
    ckpt::Reader& r,
    const std::function<void(ckpt::Reader&, PacketEvent&)>& load_payload,
    const std::function<void(void*)>& drop_payload) {
  MASSF_REQUIRE(!ran_, "restore_checkpoint must run before run_until");
  MASSF_REQUIRE(load_payload && drop_payload,
                "payload load/drop functions must be callable");
  serialize(r, *this, load_payload, drop_payload);
}

void Kernel::run_until(SimTime end_time, ExecutionMode mode) {
  // More workers than CPUs only add parking.
  run_until(end_time,
            mode == ExecutionMode::Sequential
                ? 1
                : std::min(static_cast<std::size_t>(lp_count_),
                           util::usable_cpus()));
}

// ---------------------------------------------------------------------------
// The worker loop.
//
// W workers each own a contiguous block of LPs: Sequential is W = 1 on the
// calling thread, Threaded W = min(lp_count, usable CPUs). A worker's round
// gives each owned LP one step (drain → limit → execute, then under
// ChannelLookahead throttle stat → flush → publish) and then takes its
// protocol's sync step:
//
//   * GlobalWindow — one barrier per window. Every LP drains the runs
//     published when the previous window closed (one merge per receiver)
//     and executes up to the window end; its cross-LP sends wait in its
//     outboxes. The barrier's completion closes the window, flushes every
//     outbox and opens the next window, which starts at the globally
//     earliest pending event, so idle spans are skipped. A step never
//     publishes, so no receiver's drain races a sender's flush.
//   * ChannelLookahead — CMB-style per-channel safe-time advancement. LP i
//     may execute events with t < bound_i, where bound_i = min over inbound
//     channels (src → i) of clock_src + lookahead(src → i). Every step ends
//     by publishing its outboxes, then its clock: min(its queue head, its
//     own bound). Everything the sender executes later — and therefore
//     everything it can still send — has t >= clock + channel lookahead >=
//     the receiver's bound. A
//     worker whose round executed nothing stalls. Idle spans are the
//     protocol's weakness (clocks creep by one lookahead per exchange — the
//     classic null-message avalanche), so once every worker is stalled
//     they meet at the quiescent barrier, which jumps every clock to the
//     global earliest pending event (or stops the run).
//
// Every LP executes its events in the unique (t, origin, seq) order under
// both protocols and for any W, so per-LP histories (and history_hash) are
// bit-identical across all four sync × exec combinations. With W = 1 every
// barrier completes on arrival, and the loop is the canonical
// single-threaded rendition of each protocol.
//
// Failures: a worker whose step throws records the exception in the run's
// FailureBox and wakes every parked worker. From then on no worker executes
// anything; each keeps taking its sync step until the next quiescent
// barrier stops the run, and run_until rethrows the first exception on the
// calling thread.
// ---------------------------------------------------------------------------

struct alignas(64) Kernel::Run {
  /// Published ChannelLookahead clock, one cache line each so a publish
  /// never invalidates a neighbour LP's slot.
  struct alignas(64) ClockSlot {
    std::atomic<SimTime> v{0.0};
  };

  Run(Kernel& kernel, SimTime end, std::size_t worker_count)
      : end_time(end),
        workers(worker_count),
        lps(kernel.impl_->lps.size()),
        inv_bucket(1.0 / kernel.stats_.bucket_width),
        clocks(std::make_unique<ClockSlot[]>(lps)),
        quiescent(static_cast<int>(worker_count),
                  [&kernel, this] {
                    kernel.quiesce(*this, kernel.sync_mode_ ==
                                              SyncMode::GlobalWindow);
                  },
                  kSpinIterationsBeforePark) {}

  /// Worker w owns LPs [first_lp(w), first_lp(w + 1)).
  std::size_t first_lp(std::size_t w) const { return w * lps / workers; }

  /// Ring every worker's wait slot (global transitions a parked worker
  /// cannot observe through its own inbound channels).
  void wake_all() {
    if (doorbells)
      for (std::size_t w = 0; w < workers; ++w) doorbells[w].signal();
  }

  const SimTime end_time;
  const std::size_t workers;
  const std::size_t lps;
  /// Reciprocal load-series bucket width (a multiply per event, not a
  /// divide).
  const double inv_bucket;
  FailureBox failure;
  /// Set by the quiescent step that ends the run.
  std::atomic<bool> stop{false};
  /// GlobalWindow: end of the open window (written by quiesce).
  SimTime window_end = 0;
  /// ChannelLookahead: published clocks.
  const std::unique_ptr<ClockSlot[]> clocks;
  /// ChannelLookahead: stall tokens of the workers that found nothing to
  /// execute; reset by every quiescent step.
  alignas(64) std::atomic<std::size_t> stalled{0};
  /// Per-worker wait slots; absent when one worker owns every LP.
  std::unique_ptr<util::WaitSlot[]> doorbells;
  /// GlobalWindow meets here once per window (the completion closes it and
  /// opens the next); ChannelLookahead rendezvouses here once every worker
  /// is stalled.
  util::SpinBarrier quiescent;
};

void Kernel::run_until(SimTime end_time, std::size_t workers) {
  MASSF_REQUIRE(!ran_, "run_until may only be called once");
  MASSF_REQUIRE(workers >= 1 && workers <= static_cast<std::size_t>(lp_count_),
                "worker count must be in [1, lp_count]");
  MASSF_REQUIRE(end_time > 0, "end time must be positive");
  MASSF_REQUIRE(tl_current_lp < 0, "run_until cannot be nested");
  ran_ = true;
  stats_.sync_mode = sync_mode_;
  const bool windows = sync_mode_ == SyncMode::GlobalWindow;
  auto& lps = impl_->lps;

  // Canonical safepoint schedule: ascending, duplicates coalesced (two
  // registrations at the same time are one quiescent pause).
  std::sort(safepoints_.begin(), safepoints_.end());
  safepoints_.erase(std::unique(safepoints_.begin(), safepoints_.end()),
                    safepoints_.end());
  // A restored kernel resumes mid-schedule: safepoints at or before the
  // checkpoint time (including the one the snapshot was taken at) already
  // fired in the original run.
  while (next_sp_ < safepoints_.size() &&
         safepoints_[next_sp_] <= resume_time_)
    ++next_sp_;

  // Pre-reserve the load series from the run horizon (capped) so the
  // per-event bucket append never reallocates mid-run.
  const double horizon_buckets = end_time / stats_.bucket_width;
  const auto reserve_buckets = static_cast<std::size_t>(std::min(
      horizon_buckets + 1, static_cast<double>(kMaxReservedBuckets)));
  for (auto& lp : lps) lp.series.reserve(reserve_buckets);

  // Every cross-LP event travels through the channel graph. No channels
  // registered → every LP pair is implicitly coupled at the global
  // lookahead.
  if (impl_->channels.empty())
    for (int s = 0; s < lp_count_; ++s)
      for (int d = 0; d < lp_count_; ++d)
        if (s != d) impl_->ensure_channel(s, d, lookahead_);
  impl_->build_inbound();

  Run run(*this, end_time, workers);
  // Only ChannelLookahead workers park on wait slots; GlobalWindow
  // workers meet at the barrier, so their senders ring nobody.
  if (workers > 1 && !windows) {
    run.doorbells = std::make_unique<util::WaitSlot[]>(workers);
    for (std::size_t w = 0; w < workers; ++w)
      for (std::size_t i = run.first_lp(w); i < run.first_lp(w + 1); ++i)
        lps[i].doorbell = &run.doorbells[w];
  }
  // GlobalWindow opens its first window here. A restored ChannelLookahead
  // run resumes inside the quiescent step its snapshot was taken in:
  // clocks restart from the safepoint, and the rest of that step (later
  // safepoints, then the idle jump or the stop) runs before any worker,
  // exactly as it did in the uninterrupted run.
  if (!windows && resume_time_ > 0)
    for (std::size_t i = 0; i < run.lps; ++i)
      run.clocks[i].v.store(resume_time_, std::memory_order_relaxed);
  if (windows || resume_time_ > 0) quiesce(run, false);
  // Worker 0 runs on the calling thread.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w)
    threads.emplace_back([this, &run, w] { work(run, w); });
  work(run, 0);
  for (auto& t : threads) t.join();
  for (auto& lp : lps) lp.doorbell = nullptr;  // the slots die with `run`
  if (auto first = run.failure.take()) std::rethrow_exception(first);
  // The last window's output still sits in the channels; receive it, so
  // remote_messages and the channel stats count every delivery (its
  // receive cost belongs to a window that never opens).
  if (windows)
    impl_->drain_all_channels(cost_.per_remote_message);
  else
    finalize_channel_run(end_time);

  // Fold per-LP results into stats_.
  std::size_t max_buckets = 0;
  for (int i = 0; i < lp_count_; ++i) {
    const Impl::Lp& lp = lps[static_cast<std::size_t>(i)];
    stats_.events_per_lp[static_cast<std::size_t>(i)] = lp.events;
    stats_.busy_per_lp[static_cast<std::size_t>(i)] = lp.busy_total;
    stats_.remote_messages += lp.remote_received;
    stats_.channel_advances += lp.advances;
    stats_.handoff_runs += lp.handoff_runs;
    stats_.parks += lp.parks;
    stats_.sim_time_reached = std::max(stats_.sim_time_reached, lp.max_time);
    stats_.history_hash ^=
        lp.history * (static_cast<std::uint64_t>(i) * 2654435761ULL + 1);
    max_buckets = std::max(max_buckets, lp.series.size());
  }
  for (const auto& ch : impl_->channels)
    stats_.channels.push_back({static_cast<int>(ch->src),
                               static_cast<int>(ch->dst), ch->lookahead,
                               ch->delivered, ch->throttled, ch->max_lag});
  std::sort(stats_.channels.begin(), stats_.channels.end(),
            [](const ChannelStat& a, const ChannelStat& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  stats_.load_series.assign(static_cast<std::size_t>(lp_count_), {});
  for (int i = 0; i < lp_count_; ++i) {
    auto& row = stats_.load_series[static_cast<std::size_t>(i)];
    row = lps[static_cast<std::size_t>(i)].series;
    row.resize(max_buckets, 0.0);
  }
}

// massf-check: hot-path-root (the worker loop: per-LP steps and sync)
// massf-check: determinism-root (executes events into lp.history)
void Kernel::work(Run& run, std::size_t worker) {
  const std::size_t lo = run.first_lp(worker);
  const std::size_t hi = run.first_lp(worker + 1);
  const bool windows = sync_mode_ == SyncMode::GlobalWindow;
  std::vector<SimTime> snapshot;  // stall scratch, reused across stalls
  while (!run.stop.load(std::memory_order_acquire)) {
    bool executed = false;
    if (!run.failure.failed.load(std::memory_order_relaxed)) {
      try {
        for (std::size_t i = lo; i < hi; ++i) executed |= step(run, i);
      } catch (...) {
        // Reset the execution context, or later kernels on this thread
        // would inherit a stale current_lp/now.
        tl_current_lp = -1;
        run.failure.record(std::current_exception());
        run.wake_all();
      }
    }
    if (windows)
      run.quiescent.arrive_and_wait();
    else if (!executed)
      stall(run, worker, snapshot);
  }
}

bool Kernel::step(Run& run, std::size_t i) {
  Impl::Lp& lp = impl_->lps[i];
  const bool channel_mode = sync_mode_ == SyncMode::ChannelLookahead;
  SimTime bound = never();
  Impl::Channel* limiter = nullptr;
  // Drain (+ bound). Loading the sender's clock with acquire *before*
  // collecting its channel pairs with the sender's flush-then-release-
  // publish: any run not yet visible here must carry events with
  // t >= clock + lookahead, i.e. >= our bound. A GlobalWindow drain finds
  // exactly the runs published when the previous window closed, so its
  // receive cost lands in this window — that is where the work happens.
  impl_->drain(i, cost_.per_remote_message, [&](Impl::Channel& ch) {
    if (!channel_mode) return;
    const SimTime b =
        run.clocks[ch.src].v.load(std::memory_order_acquire) + ch.lookahead;
    if (b < bound) {
      bound = b;
      limiter = &ch;
    }
  });
  // Execution never crosses a pending safepoint (under ChannelLookahead the
  // clip, not the bound: throttle attribution below stays a per-channel
  // property). next_safepoint() only moves inside the quiescent step,
  // while every worker is parked.
  const SimTime limit =
      channel_mode ? std::min({bound, run.end_time, next_safepoint()})
                   : run.window_end;

  const std::uint64_t before = lp.events;
  tl_current_lp = static_cast<int>(i);
  while (!lp.queue.empty() && lp.queue.top().t < limit) {
    Impl::Event event = lp.queue.pop();
    impl_->execute_event(lp, event, cost_.per_event, run.inv_bucket, sink_);
  }
  tl_current_lp = -1;
  const bool executed = lp.events != before;
  if (!channel_mode) return executed;  // the window close flushes

  if (executed) ++lp.advances;
  // Throttle observability: a pending event this LP cares about is held
  // unsafe by the binding channel; record who and by how much.
  if (limiter != nullptr && !lp.queue.empty() &&
      lp.queue.top().t < run.end_time && lp.queue.top().t >= bound) {
    ++limiter->throttled;
    limiter->max_lag = std::max(limiter->max_lag, lp.queue.top().t - bound);
  }
  // Flush before the release publish (see the drain comment above).
  impl_->flush_channels(i);
  lp.fold_busy();
  // Publish: nothing this LP will ever execute — hence send — precedes
  // min(queue head, bound). Clocks are monotone.
  const SimTime next = lp.queue.empty() ? never() : lp.queue.top().t;
  const SimTime published = std::min(next, bound);
  if (published > run.clocks[i].v.load(std::memory_order_relaxed)) {
    run.clocks[i].v.store(published, std::memory_order_release);
    // Doorbell every receiver whose bound may have grown.
    for (std::uint32_t ci : impl_->outbound[i])
      impl_->ring(impl_->channels[ci]->dst);
  }
  return executed;
}

void Kernel::stall(Run& run, std::size_t worker,
                   std::vector<SimTime>& snapshot) {
  if (run.stalled.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      run.workers) {
    // Last worker to stall: nothing is executable anywhere.
    run.wake_all();
    run.quiescent.arrive_and_wait();  // consumes our stall token
    return;
  }
  // Spin, then park on the worker's wait slot until an inbound clock of an
  // owned LP moves, a run arrives, or the last staller rings everyone into
  // the rendezvous. A safepoint may have registered new inbound channels
  // since the last stall, so the snapshot is rebuilt from the live lists.
  const std::size_t lo = run.first_lp(worker);
  const std::size_t hi = run.first_lp(worker + 1);
  const auto& channels = impl_->channels;
  snapshot.reserve((hi - lo) * run.lps);  // one slot per (owned LP, sender)
  snapshot.clear();
  for (std::size_t i = lo; i < hi; ++i)
    for (std::uint32_t ci : impl_->inbound[i])
      snapshot.push_back(
          run.clocks[channels[ci]->src].v.load(std::memory_order_relaxed));
  auto has_work = [&]() {
    // After a failure nothing executes again: only the rendezvous remains.
    if (run.failure.failed.load(std::memory_order_relaxed)) return false;
    std::size_t c = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::uint32_t ci : impl_->inbound[i]) {
        const Impl::Channel& ch = *channels[ci];
        if (ch.tail->next.load(std::memory_order_relaxed) != nullptr ||
            run.clocks[ch.src].v.load(std::memory_order_relaxed) !=
                snapshot[c++])
          return true;
      }
    }
    return false;
  };

  util::WaitSlot& bell = run.doorbells[worker];
  util::SpinWait spin(kSpinIterationsBeforePark);
  while (true) {
    if (run.stalled.load(std::memory_order_acquire) == run.workers) {
      run.quiescent.arrive_and_wait();  // consumes our stall token
      break;
    }
    if (has_work()) {
      run.stalled.fetch_sub(1, std::memory_order_acq_rel);
      break;
    }
    if (spin.should_park()) {
      // Eventcount handshake: snapshot the epoch, re-check both wake
      // conditions, park. Every state change we could miss here is
      // followed by a signal() to this slot, which either bumps the epoch
      // before we sleep or wakes us after.
      const std::uint32_t epoch = bell.prepare();
      if (run.stalled.load(std::memory_order_acquire) != run.workers &&
          !has_work()) {
        bell.park(epoch);
        ++impl_->lps[lo].parks;
      }
      spin.reset();
    }
  }
}

// massf-check: hot-path-root (GlobalWindow close: per-window outbox flush)
void Kernel::close_window(Run& run) {
  // Critical path = max busy + barrier cost; the coupled (application)
  // time additionally floors each window at the simulated-time advance
  // (live apps execute in real time).
  auto& lps = impl_->lps;
  double max_busy = 0;
  for (const Impl::Lp& lp : lps) max_busy = std::max(max_busy, lp.window_busy);
  const double engine_time = max_busy + cost_.per_window_sync;
  stats_.modeled_time += engine_time;
  stats_.coupled_time +=
      std::max(engine_time, run.window_end - sim_position_);
  sim_position_ = run.window_end;
  ++stats_.windows;
  // Publish the window's whole output: one run per (sender, receiver)
  // pair with traffic, drained by each receiver's next step.
  for (std::size_t s = 0; s < lps.size(); ++s) {
    lps[s].fold_busy();
    impl_->flush_channels(s);
  }
}

SimTime Kernel::earliest_pending() const {
  SimTime m = never();
  for (const Impl::Lp& lp : impl_->lps)
    if (!lp.queue.empty()) m = std::min(m, lp.queue.top().t);
  // Outboxes need no scan: the GlobalWindow close flushes every outbox,
  // and every ChannelLookahead step ends by flushing its own. Channel runs
  // are quiescent while every worker is parked.
  for (const auto& ch : impl_->channels)
    for (const Impl::Channel::RunNode* n =
             ch->tail->next.load(std::memory_order_acquire);
         n != nullptr; n = n->next.load(std::memory_order_acquire))
      for (const Impl::Event& e : n->events) m = std::min(m, e.t);
  return m;
}

void Kernel::quiesce(Run& run, bool window_open) noexcept {
  const bool windows = sync_mode_ == SyncMode::GlobalWindow;
  run.stalled.store(0, std::memory_order_relaxed);
  SimTime gvt = never();
  try {
    if (window_open) close_window(run);
    if (!run.failure.failed.load(std::memory_order_relaxed))
      gvt = earliest_pending();
    // Fire every safepoint the run has caught up to. Nothing executes at
    // or past a pending safepoint, so gvt >= sp certifies that every event
    // before sp has executed: the globally quiescent state the hook
    // contract promises.
    while (!run.failure.failed.load(std::memory_order_relaxed) &&
           next_safepoint() < run.end_time && gvt >= next_safepoint()) {
      const SimTime sp = next_safepoint();
      // Drain the in-flight runs so the hook (and rehome_events) sees the
      // whole pending set in LP queues. ChannelLookahead keeps busy time
      // folded at every step boundary; a GlobalWindow receive cost belongs
      // to the next window (and is saved with it).
      impl_->drain_all_channels(cost_.per_remote_message);
      if (!windows)
        for (Impl::Lp& lp : impl_->lps) lp.fold_busy();
      ++stats_.safepoints;
      if (safepoint_hook_) {
        // The hook runs outside any event: current_lp() is -1, now()
        // reports the safepoint time. in_safepoint_ gates the migration
        // mutators.
        in_safepoint_ = true;
        tl_now = sp;
        safepoint_hook_(sp);
        in_safepoint_ = false;
        tl_now = 0;
      }
      ++next_sp_;
      if (windows) {
        // One cluster-wide rendezvous per safepoint. ChannelLookahead
        // charges its rendezvous in finalize_channel_run instead.
        stats_.modeled_time += cost_.per_window_sync;
        stats_.coupled_time += cost_.per_window_sync;
      } else {
        // Clocks restart from sp: migration may have handed an LP events
        // earlier than its published clock, and sp is a valid promise for
        // every LP because nothing pending precedes it.
        for (std::size_t i = 0; i < run.lps; ++i)
          run.clocks[i].v.store(sp, std::memory_order_relaxed);
      }
      gvt = earliest_pending();
    }
  } catch (...) {
    in_safepoint_ = false;
    tl_now = 0;
    run.failure.record(std::current_exception());
  }

  if (run.failure.failed.load(std::memory_order_relaxed) ||
      gvt >= run.end_time || gvt == never()) {
    run.stop.store(true, std::memory_order_relaxed);
  } else if (windows) {
    // Windows never cross a pending safepoint.
    run.window_end =
        std::min({gvt + lookahead_, run.end_time, next_safepoint()});
  } else {
    for (std::size_t i = 0; i < run.lps; ++i)
      if (run.clocks[i].v.load(std::memory_order_relaxed) < gvt)
        run.clocks[i].v.store(gvt, std::memory_order_relaxed);
    ++stats_.idle_jumps;
  }
}

void Kernel::finalize_channel_run(SimTime end_time) {
  // Channel mode has no windows: the modeled critical path is the busiest
  // engine plus one rendezvous per idle-jump and one final one for
  // termination — the perfect-overlap lower bound on cluster time
  // (DESIGN.md §8 discusses when this is and is not achievable). The
  // coupled (application) time is additionally floored by the simulated
  // span, since live applications execute through it in real time.
  double max_busy = 0;
  SimTime reached = 0;
  for (const Impl::Lp& lp : impl_->lps) {
    max_busy = std::max(max_busy, lp.busy_total);
    reached = std::max(reached, lp.max_time);
  }
  // Safepoints are rendezvous too (global quiescent pauses), so each one
  // contributes the same per_window_sync an idle-jump does.
  stats_.modeled_time =
      max_busy + static_cast<double>(stats_.idle_jumps + stats_.safepoints +
                                     1) *
                     cost_.per_window_sync;
  const SimTime span = std::min(reached, end_time);
  stats_.coupled_time = std::max(stats_.modeled_time, span);
  sim_position_ = span;
}

}  // namespace massf::des
