// NetFlow-like traffic profiling (paper §3.3).
//
// MaSSF implements "the Cisco NetFlow-like function on each emulated
// router": every flow's packet count, byte count and first/last timestamps
// are recorded per router; dump files are parsed into aggregated per-router
// and per-link traffic. This collector is the in-memory equivalent, plus
// the time-bucketed per-node load series the segment-clustering algorithm
// consumes. Measurements are in *packets* because "the real load in the
// emulator depends on the number of packets it processes" (§3.3).
//
// Thread safety in Threaded kernel mode: per-node slots are only touched by
// the LP owning the node, and per-link counters are split by direction
// (updated by the transmitting endpoint's LP), so no locks are needed.
//
// Flow records live in one flat table per node: a dense record vector in
// first-seen order plus an open-addressing index of 32-bit slots (record
// index + 1, 0 = empty; power-of-two size, load factor <= 1/2, Fibonacci
// hash of the flow id). Recording a train is a probe and an in-place
// update; a new flow appends one record. Every view and the checkpoint
// stream present the records sorted by flow id.
#pragma once

#include <cstdint>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "emu/packet.hpp"

namespace massf::emu {

/// Per-(node, flow) record — one line of a NetFlow dump file.
struct FlowRecord {
  std::uint64_t flow = 0;
  double packets = 0;
  double bytes = 0;
  SimTime first_seen = 0;
  SimTime last_seen = 0;
};

class NetFlowCollector {
 public:
  /// bucket_width: sim-time bucket (seconds) for the per-node load series.
  NetFlowCollector(NodeId node_count, LinkId link_count,
                   double bucket_width = 2.0);

  /// Record a packet train being processed at `node` at time `t`.
  void record_node(NodeId node, const Packet& packet, SimTime t);

  /// Record a packet train transmitted on `link`; `dir` is 0 when sent from
  /// link.a, 1 when sent from link.b.
  void record_link(LinkId link, int dir, const Packet& packet);

  // -- Aggregated views (paper: "parsing the dump files allows computation
  //    of the aggregated traffic on every router and link") --------------

  /// Total packets processed per node.
  const std::vector<double>& node_packets() const { return node_packets_; }

  /// Total packets per link (both directions summed).
  std::vector<double> link_packets() const;

  /// Per-node per-bucket packet counts (rows = nodes). Rows are padded to
  /// equal length.
  std::vector<std::vector<double>> node_series() const;

  double bucket_width() const { return bucket_width_; }

  /// Flow records observed at a node, ordered by flow id (the "dump file").
  std::vector<FlowRecord> node_flows(NodeId node) const;

  /// Sum of packets over all node records (for conservation tests).
  double total_node_packets() const;

  /// Checkpoint support: serialize / restore the full collector state.
  /// load() requires a collector constructed with the same dimensions.
  void save(ckpt::Writer& w) const;
  void load(ckpt::Reader& r);

 private:
  /// The field list shared by save and load.
  template <class Io, class Self>
  static void serialize(Io& io, Self& self);

  /// One node's flow records and their hash index.
  struct FlowTable {
    std::vector<FlowRecord> records;   // first-seen order
    std::vector<std::uint32_t> index;  // record index + 1; 0 = empty slot
    int shift = 64;                    // 64 - log2(index.size())

    /// The record for `flow`, appended with `first_seen = t` if new.
    FlowRecord& find_or_insert(std::uint64_t flow, SimTime t);
    /// Index position holding `flow`, or the empty slot where it belongs.
    std::size_t probe(std::uint64_t flow) const;
    /// Resize the index to `size` slots (a power of two above twice the
    /// record count) and re-insert every record.
    void rehash(std::size_t size);
  };

  double bucket_width_;
  std::vector<double> node_packets_;
  std::vector<double> link_packets_by_dir_;          // 2 per link
  std::vector<std::vector<double>> node_buckets_;    // ragged rows
  std::vector<FlowTable> node_flow_tables_;
};

}  // namespace massf::emu
