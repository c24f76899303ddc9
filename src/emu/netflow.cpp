#include "emu/netflow.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/error.hpp"

namespace massf::emu {

namespace {
// Fibonacci hashing: the multiply carries every id bit into the high bits
// the slot is taken from, so ICMP/ACK ids (`base ^ small counter`) spread
// as well as the mixed data-flow ids.
constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;
constexpr std::size_t kMinIndexSize = 8;

std::vector<FlowRecord> sorted_by_flow(std::vector<FlowRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const FlowRecord& a, const FlowRecord& b) {
              return a.flow < b.flow;
            });
  return records;
}
}  // namespace

std::size_t NetFlowCollector::FlowTable::probe(std::uint64_t flow) const {
  const std::size_t mask = index.size() - 1;
  for (auto s = static_cast<std::size_t>((flow * kFibonacci) >> shift);;
       s = (s + 1) & mask) {
    const std::uint32_t slot = index[s];
    if (slot == 0 || records[slot - 1].flow == flow) return s;
  }
}

void NetFlowCollector::FlowTable::rehash(std::size_t size) {
  // massf-check: allow(hot-path-alloc) — index doubling: amortized O(1)
  // per record, bounded by the distinct flows at this node.
  index.assign(size, 0);
  shift = 64 - std::countr_zero(size);
  for (std::size_t i = 0; i < records.size(); ++i)
    index[probe(records[i].flow)] = static_cast<std::uint32_t>(i + 1);
}

FlowRecord& NetFlowCollector::FlowTable::find_or_insert(std::uint64_t flow,
                                                        SimTime t) {
  std::size_t s = 0;
  if (!index.empty()) {
    s = probe(flow);
    if (index[s] != 0) return records[index[s] - 1];
  }
  MASSF_CHECK(records.size() < std::numeric_limits<std::uint32_t>::max(),
              "flow table slot overflow: over 2^32 - 1 flows at one node");
  if (2 * (records.size() + 1) > index.size()) {
    // Index doubling: amortized, bounded by the distinct flows per node.
    rehash(std::max(kMinIndexSize, 2 * index.size()));
    s = probe(flow);
  }
  // massf-check: allow(hot-path-alloc) — one record per distinct flow at
  // this node, doubling-amortized.
  records.push_back({flow, 0, 0, t, 0});
  index[s] = static_cast<std::uint32_t>(records.size());
  return records.back();
}

NetFlowCollector::NetFlowCollector(NodeId node_count, LinkId link_count,
                                   double bucket_width)
    : bucket_width_(bucket_width),
      node_packets_(static_cast<std::size_t>(node_count), 0.0),
      link_packets_by_dir_(2 * static_cast<std::size_t>(link_count), 0.0),
      node_buckets_(static_cast<std::size_t>(node_count)),
      node_flow_tables_(static_cast<std::size_t>(node_count)) {
  MASSF_REQUIRE(bucket_width > 0, "bucket width must be positive");
}

void NetFlowCollector::record_node(NodeId node, const Packet& packet,
                                   SimTime t) {
  auto& total = node_packets_[static_cast<std::size_t>(node)];
  total += packet.packets;

  auto& buckets = node_buckets_[static_cast<std::size_t>(node)];
  const auto bucket = static_cast<std::size_t>(t / bucket_width_);
  // massf-check: allow(hot-path-alloc) — time-bucket growth: one
  // high-water resize per bucket width of sim time, doubling-amortized.
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0.0);
  buckets[bucket] += packet.packets;

  FlowRecord& record =
      node_flow_tables_[static_cast<std::size_t>(node)].find_or_insert(
          packet.flow, t);
  record.packets += packet.packets;
  record.bytes += packet.bytes;
  record.last_seen = std::max(record.last_seen, t);
}

void NetFlowCollector::record_link(LinkId link, int dir,
                                   const Packet& packet) {
  MASSF_REQUIRE(dir == 0 || dir == 1, "link direction must be 0 or 1");
  link_packets_by_dir_[2 * static_cast<std::size_t>(link) +
                       static_cast<std::size_t>(dir)] += packet.packets;
}

std::vector<double> NetFlowCollector::link_packets() const {
  std::vector<double> out(link_packets_by_dir_.size() / 2, 0.0);
  for (std::size_t l = 0; l < out.size(); ++l)
    out[l] = link_packets_by_dir_[2 * l] + link_packets_by_dir_[2 * l + 1];
  return out;
}

std::vector<std::vector<double>> NetFlowCollector::node_series() const {
  std::size_t width = 0;
  for (const auto& row : node_buckets_) width = std::max(width, row.size());
  std::vector<std::vector<double>> out = node_buckets_;
  for (auto& row : out) row.resize(width, 0.0);
  return out;
}

std::vector<FlowRecord> NetFlowCollector::node_flows(NodeId node) const {
  MASSF_REQUIRE(node >= 0 && static_cast<std::size_t>(node) <
                                 node_flow_tables_.size(),
                "node out of range");
  return sorted_by_flow(
      node_flow_tables_[static_cast<std::size_t>(node)].records);
}

double NetFlowCollector::total_node_packets() const {
  double total = 0;
  for (double p : node_packets_) total += p;
  return total;
}

namespace {
constexpr std::uint32_t kTagNetflow = 0x6e666c77;  // "nflw"

// Minimum encoded size of one flow record.
constexpr std::size_t kFlowRecordBytes = 5 * 8;
}  // namespace

template <class Io, class Self>
void NetFlowCollector::serialize(Io& io, Self& self) {
  io.tag(kTagNetflow, "NetFlow section");
  io.f64(self.bucket_width_);
  MASSF_REQUIRE(io.same_u64(self.node_packets_.size()) &&
                    self.bucket_width_ > 0,
                "checkpointed NetFlow dimensions do not match this network — "
                "rebuild the emulator against the checkpointed topology");
  for (auto& p : self.node_packets_) io.f64(p);
  MASSF_REQUIRE(io.same_u64(self.link_packets_by_dir_.size()),
                "checkpointed NetFlow link table does not match this network");
  for (auto& p : self.link_packets_by_dir_) io.f64(p);
  for (auto& row : self.node_buckets_) io.f64s(row, "NetFlow section");
  for (std::size_t node = 0; node < self.node_flow_tables_.size(); ++node) {
    auto& table = self.node_flow_tables_[node];
    // Records are written sorted by flow id, so the stream does not depend
    // on arrival order; load requires that order.
    std::vector<FlowRecord> list;
    if constexpr (!Io::kLoading) list = sorted_by_flow(table.records);
    io.len(list, kFlowRecordBytes, "NetFlow section");
    for (std::size_t i = 0; i < list.size(); ++i) {
      FlowRecord& record = list[i];
      io.u64(record.flow);
      io.f64(record.packets);
      io.f64(record.bytes);
      io.f64(record.first_seen);
      io.f64(record.last_seen);
      MASSF_REQUIRE(i == 0 || list[i - 1].flow < record.flow,
                    "checkpointed NetFlow section lists flow "
                        << record.flow << " after flow " << list[i - 1].flow
                        << " at node " << node
                        << " — flow ids must be strictly increasing; the "
                           "snapshot is corrupt");
    }
    if constexpr (Io::kLoading) {
      table = FlowTable{};
      for (const FlowRecord& record : list)
        table.find_or_insert(record.flow, record.first_seen) = record;
    }
  }
}

void NetFlowCollector::save(ckpt::Writer& w) const { serialize(w, *this); }

void NetFlowCollector::load(ckpt::Reader& r) { serialize(r, *this); }

}  // namespace massf::emu
