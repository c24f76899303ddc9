// Packet-level types shared across the emulator.
//
// The unit of simulation work is a *packet train*: one kernel event that
// represents `packets` back-to-back MTU packets of one flow (a standard DES
// abstraction knob; train size 1 = pure packet-level emulation). The
// paper's per-engine load metric — "simulation kernel event rate,
// essentially one per packet" — maps to train events here; NetFlow records
// real packet counts so PROFILE weights stay in packet units.
//
// Packets are plain data and live in a PacketPool for the duration of a
// hop chain: every hop is a des::PacketEvent carrying a Packet* into the
// kernel, so the per-hop path performs no heap allocation (DESIGN.md
// "Kernel hot path & event cost model").
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "des/kernel.hpp"
#include "topology/network.hpp"
#include "util/error.hpp"

namespace massf::emu {

using des::SimTime;
using topology::LinkId;
using topology::NodeId;

/// One application message (possibly many packet trains on the wire).
struct AppMessage {
  NodeId src = -1;
  NodeId dst = -1;
  double bytes = 0;
  int tag = 0;
  std::uint64_t id = 0;
  SimTime sent_at = 0;  // first transmission (retransmits keep this)
  SimTime delivered_at = 0;
  /// Sent via the reliable layer: receiver ACKs, sender retries on timeout.
  bool reliable = false;
  /// Opaque application correlation token, carried end-to-end (and across
  /// retransmissions) untouched. The RPC layer (src/app) threads request
  /// ids through it so a response can be matched to its request without any
  /// per-request allocation or side table in the emulator.
  std::uint64_t corr = 0;
};

enum class PacketKind : std::uint8_t {
  Data,             // application / background traffic
  Ack,              // reliable-delivery acknowledgement (probe_id = msg id)
  IcmpEcho,         // traceroute probe (TTL-limited)
  IcmpEchoReply,    // probe reached its destination
  IcmpTtlExceeded,  // router report: TTL expired here
  IcmpUnreachable,  // router report: destination unreachable in this epoch
  // Control kinds (>= CtrlStart): emulator-internal events that never touch
  // the wire — no arrive()/NetFlow/fault processing, just a typed dispatch
  // on the owning engine. They replace the closure events the emulator used
  // to schedule so that pending work is serializable at a checkpoint
  // (closures cannot be written to disk; POD packets can). `dst` is the
  // host the control event belongs to; `probe_id` carries the timer tag or
  // reliable message id.
  CtrlStart,            // endpoint start upcall (dst = host)
  CtrlTimer,            // AppApi::set_timer expiry (dst = host, probe_id = tag)
  CtrlReliableTimeout,  // retransmit check (dst = sender, probe_id = msg id)
  CtrlEpoch,            // fault-epoch boundary observation (engine-pinned)
};

/// True for the emulator-internal control kinds above.
inline bool is_control(PacketKind kind) {
  return kind >= PacketKind::CtrlStart;
}

/// One packet train traversing the virtual network. Plain data — delivery
/// of the last train of an application message is described by the embedded
/// AppMessage instead of a closure, so trains recycle through the pool
/// without ever touching the allocator.
struct Packet {
  NodeId src = -1;
  NodeId dst = -1;
  double bytes = 0;      // total bytes in the train
  int packets = 1;       // real packets represented
  int ttl = 255;         // hop budget (ICMP traceroute uses small values)
  PacketKind kind = PacketKind::Data;
  /// Set on the last train of an application message: the emulator performs
  /// delivery bookkeeping and the endpoint upcall from `message` when the
  /// train reaches its destination.
  bool has_message = false;
  std::uint64_t flow = 0;      // NetFlow aggregation key
  std::uint64_t probe_id = 0;  // traceroute / ack correlation id
  NodeId reporter = -1;        // for ICMP reports: the reporting router
  /// Link the train is currently crossing (set by transmit); a fault epoch
  /// that takes this link down before arrival cuts the train mid-flight.
  LinkId via = -1;
  AppMessage message;          // valid when has_message
};

/// Free-list pool of Packets, sharded per engine (LP). Each shard is only
/// touched by its engine's thread (shard 0 doubles as the setup-time shard:
/// population happens strictly before run, so there is no overlap), which
/// makes the pool lock-free by construction in Threaded mode. Packets may
/// be acquired on one shard and released on another — storage addresses are
/// stable (deque chunks) and each free list is thread-private.
class PacketPool {
 public:
  explicit PacketPool(int shards)
      : shards_(static_cast<std::size_t>(shards)) {
    MASSF_REQUIRE(shards >= 1, "packet pool needs at least one shard");
  }

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Take a default-initialized Packet owned by `shard`'s free list.
  Packet* acquire(int shard) {
    Shard& s = shards_[static_cast<std::size_t>(shard)];
    if (s.free_list.empty()) {
      // massf-check: allow(hot-path-alloc) — pool refill: runs only
      // until storage reaches the in-flight high-water mark.
      s.storage.emplace_back();
      return &s.storage.back();
    }
    Packet* p = s.free_list.back();
    s.free_list.pop_back();
    *p = Packet{};
    return p;
  }

  /// Return a Packet to `shard`'s free list (the releasing engine's shard,
  /// not necessarily the acquiring one).
  void release(int shard, Packet* p) {
    // massf-check: allow(hot-path-alloc) — free-list capacity tracks the
    // pool high-water mark; growth is doubling-amortized and bounded.
    shards_[static_cast<std::size_t>(shard)].free_list.push_back(p);
  }

  /// Total Packet slots ever materialized (high-water mark of in-flight
  /// trains; observability for tests and benches).
  std::size_t allocated() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.storage.size();
    return n;
  }

  /// Packets acquired and not yet released, over all shards.
  std::size_t live() const {
    std::size_t n = allocated();
    for (const Shard& s : shards_) n -= s.free_list.size();
    return n;
  }

 private:
  struct Shard {
    std::deque<Packet> storage;     // stable addresses
    std::vector<Packet*> free_list;
  };
  std::vector<Shard> shards_;
};

}  // namespace massf::emu
