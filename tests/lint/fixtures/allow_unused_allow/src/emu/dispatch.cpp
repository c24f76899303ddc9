// A live prune (the cut-off callee grows an unreserved vector) and a live
// direct allow (an unreserved push_back on the hot path).
#include <vector>

std::vector<int> g_failures;
std::vector<int> g_samples;

void report_failure(int payload) { g_failures.push_back(payload); }

// massf-check: hot-path-root
void dispatch(int payload) {
  // massf-check: allow(hot-path-alloc) — one sample per run phase.
  g_samples.push_back(payload);
  // massf-check: allow(hot-path-alloc) — error reporting is the cold
  // branch.
  report_failure(payload);
}

unsigned long g_history = 0;

// massf-check: determinism-root
void accumulate(unsigned value) { g_history = g_history * 31 + value; }
