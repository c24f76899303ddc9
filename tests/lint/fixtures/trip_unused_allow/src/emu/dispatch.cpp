// The pruned callee allocates nothing, so cutting the traversal at its
// call line hides no finding.
void record_flight(unsigned flight);

unsigned g_probes = 0;

void probe(unsigned slot) { g_probes += slot; }

// massf-check: hot-path-root
void dispatch(unsigned flight) {
  record_flight(flight);
  // massf-check: allow(hot-path-alloc) — probing is amortized.
  probe(flight);
}

unsigned long g_history = 0;

// massf-check: determinism-root
void accumulate(unsigned value) { g_history = g_history * 31 + value; }
