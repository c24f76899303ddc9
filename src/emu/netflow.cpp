#include "emu/netflow.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace massf::emu {

NetFlowCollector::NetFlowCollector(NodeId node_count, LinkId link_count,
                                   double bucket_width)
    : bucket_width_(bucket_width),
      node_packets_(static_cast<std::size_t>(node_count), 0.0),
      link_packets_by_dir_(2 * static_cast<std::size_t>(link_count), 0.0),
      node_buckets_(static_cast<std::size_t>(node_count)),
      node_flow_records_(static_cast<std::size_t>(node_count)) {
  MASSF_REQUIRE(bucket_width > 0, "bucket width must be positive");
}

void NetFlowCollector::record_node(NodeId node, const Packet& packet,
                                   SimTime t) {
  auto& total = node_packets_[static_cast<std::size_t>(node)];
  total += packet.packets;

  auto& buckets = node_buckets_[static_cast<std::size_t>(node)];
  const auto bucket = static_cast<std::size_t>(t / bucket_width_);
  // massf-analyze: allow(hot-path-alloc) — time-bucket growth: one
  // high-water resize per bucket width of sim time, doubling-amortized.
  if (buckets.size() <= bucket) buckets.resize(bucket + 1, 0.0);
  buckets[bucket] += packet.packets;

  auto& records = node_flow_records_[static_cast<std::size_t>(node)];
  auto [it, inserted] = records.try_emplace(packet.flow);
  FlowRecord& record = it->second;
  if (inserted) {
    record.flow = packet.flow;
    record.first_seen = t;
  }
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
                                 node_flow_records_.size(),
                "node out of range");
  std::vector<FlowRecord> out;
  out.reserve(node_flow_records_[static_cast<std::size_t>(node)].size());
  for (const auto& [flow, record] :
       node_flow_records_[static_cast<std::size_t>(node)])
    out.push_back(record);
  return out;
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
  for (auto& records : self.node_flow_records_) {
    // std::map iterates in key order, so the record stream is
    // deterministic.
    std::vector<FlowRecord> list;
    if constexpr (!Io::kLoading)
      for (const auto& [flow, record] : records) list.push_back(record);
    io.len(list, kFlowRecordBytes, "NetFlow section");
    for (FlowRecord& record : list) {
      io.u64(record.flow);
      io.f64(record.packets);
      io.f64(record.bytes);
      io.f64(record.first_seen);
      io.f64(record.last_seen);
    }
    if constexpr (Io::kLoading) {
      records.clear();
      for (const FlowRecord& record : list)
        records.emplace(record.flow, record);
    }
  }
}

void NetFlowCollector::save(ckpt::Writer& w) const { serialize(w, *this); }

void NetFlowCollector::load(ckpt::Reader& r) { serialize(r, *this); }

}  // namespace massf::emu
