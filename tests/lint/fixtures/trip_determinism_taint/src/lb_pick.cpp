// LB pick path: scanning the unordered outstanding-request map for the
// least-loaded backend leaks bucket order straight into the emulated
// history (which backend wins a tie depends on hash iteration order).
#include <unordered_map>

std::unordered_map<int, int> g_outstanding;
unsigned long g_pick_trace;

int pick_least_loaded() {
  int best = 0;
  int best_load = 1 << 30;
  for (const auto& entry : g_outstanding) {
    if (entry.second < best_load) {
      best_load = entry.second;
      best = entry.first;
    }
  }
  return best;
}

// massf-check: determinism-root
void lb_dispatch() {
  g_pick_trace =
      g_pick_trace * 31 + static_cast<unsigned long>(pick_least_loaded());
}
