// LB pick path made deterministic the blessed way: snapshot the unordered
// map through an iterator-pair copy, sort it, then scan — the argmin no
// longer depends on bucket order.
#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

std::unordered_map<int, int> g_lb_outstanding;
unsigned long g_lb_pick_trace;

int lb_pick_least_loaded() {
  std::vector<std::pair<int, int>> snapshot(g_lb_outstanding.begin(),
                                            g_lb_outstanding.end());
  std::sort(snapshot.begin(), snapshot.end());
  int best = 0;
  int best_load = 1 << 30;
  for (const auto& entry : snapshot) {
    if (entry.second < best_load) {
      best_load = entry.second;
      best = entry.first;
    }
  }
  return best;
}

// massf-check: determinism-root
void lb_dispatch() {
  g_lb_pick_trace = g_lb_pick_trace * 31 +
                    static_cast<unsigned long>(lb_pick_least_loaded());
}
