// Three quiet shapes: ordered iteration in the region, audited unordered
// iteration in the region, and unordered iteration outside the region.
#include "state.hpp"

std::map<int, int> g_ordered_flows;
std::unordered_map<int, int> g_lookup;

unsigned long mix_flows() {
  unsigned long h = 0;
  // std::map iterates in key order: deterministic, no finding.
  for (const auto& entry : g_ordered_flows) {
    h = h * 31 + static_cast<unsigned long>(entry.second);
  }
  // massf-check: allow(determinism-taint) — values are XOR-folded, so
  // the fold is order-independent; audited.
  for (const auto& entry : g_lookup) {
    h ^= static_cast<unsigned long>(entry.second);
  }
  return h;
}

// Unordered iteration is fine here: nothing on any determinism-root path
// calls this (debug stats only).
unsigned long count_outside_region() {
  unsigned long n = 0;
  for (const auto& entry : g_lookup) {
    n += static_cast<unsigned long>(entry.first >= 0);
  }
  return n;
}
