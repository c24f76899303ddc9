// Hot root whose reachable allocations are all accounted for: a reserved
// container, an audited cold branch, and a pruned logging call.
#include "worker.hpp"

// massf-check: hot-path-root
void advance_one_event() {
  handle_packet(7);
  // massf-check: allow(hot-path-alloc) — error reporting is the cold
  // branch; pruning the traversal here is the audited escape hatch.
  report_failure(7);
}
