#include "state.hpp"

unsigned long g_history_hash;

// massf-check: determinism-root
void accumulate_history() {
  g_history_hash ^= mix_flows();
}
