// Per-flow accounting on the packet path whose map growth is audited: a
// node per distinct flow is the record being kept, not per-packet churn.
#include <cstdint>
#include <map>

struct FlowCount {
  double packets = 0;
};

std::map<std::uint64_t, FlowCount> g_flow_records;
std::map<std::uint64_t, double> g_flow_bytes;
std::map<std::uint64_t, std::uint64_t> g_flow_last_seen;

void record_flow(std::uint64_t flow, double bytes, std::uint64_t t) {
  // massf-check: allow(hot-path-alloc) — one node per distinct flow.
  g_flow_records.try_emplace(flow).first->second.packets += 1;
  // massf-check: allow(hot-path-alloc) — one node per distinct flow.
  g_flow_bytes.emplace_hint(g_flow_bytes.end(), flow, bytes);
  // massf-check: allow(hot-path-alloc) — one node per distinct flow.
  g_flow_last_seen.insert_or_assign(flow, t);
}

// massf-check: hot-path-root
void record_packet(std::uint64_t flow, double bytes, std::uint64_t t) {
  record_flow(flow, bytes, t);
}
