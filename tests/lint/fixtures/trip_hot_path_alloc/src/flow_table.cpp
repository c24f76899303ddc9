// Per-flow accounting on the packet path: every first-seen flow allocates
// a tree node through a map growth call other than insert/emplace, and a
// flat index is regrown by assign().
#include <cstdint>
#include <map>
#include <vector>

struct FlowCount {
  double packets = 0;
};

std::map<std::uint64_t, FlowCount> g_flow_records;
std::map<std::uint64_t, double> g_flow_bytes;
std::map<std::uint64_t, std::uint64_t> g_flow_last_seen;
std::vector<std::uint32_t> g_flow_index;

void record_flow(std::uint64_t flow, double bytes, std::uint64_t t) {
  g_flow_records.try_emplace(flow).first->second.packets += 1;
  g_flow_bytes.emplace_hint(g_flow_bytes.end(), flow, bytes);
  g_flow_last_seen.insert_or_assign(flow, t);
  if (2 * g_flow_records.size() > g_flow_index.size())
    g_flow_index.assign(4 * g_flow_records.size(), 0);
}

// massf-check: hot-path-root
void record_packet(std::uint64_t flow, double bytes, std::uint64_t t) {
  record_flow(flow, bytes, t);
}
