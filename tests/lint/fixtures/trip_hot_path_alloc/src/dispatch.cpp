// The seeded hot root: the per-event dispatch loop. It allocates nothing
// itself — the violations live one call away, in another TU.
#include "worker.hpp"

// massf-check: hot-path-root
void advance_one_event() {
  handle_packet(7);
}
