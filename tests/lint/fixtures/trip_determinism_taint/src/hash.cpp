// The seeded determinism root: the history-hash accumulator. The taint —
// unordered-container iteration — sits one call away in another TU.
#include "state.hpp"

unsigned long g_history_hash;

// massf-check: determinism-root
void accumulate_history() {
  g_history_hash ^= mix_flows();
}
