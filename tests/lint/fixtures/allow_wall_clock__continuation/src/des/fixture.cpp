// The allow sits on the declaration; the flagged token lands two lines
// later, on a continuation of the same wrapped statement. Next-line-only
// scoping missed this — generalized statement scoping covers it.
#include <chrono>

double harness_stamp_seconds() {
  // massf-check: allow(wall-clock) — benchmark harness timestamps its own
  // report; simulation code never calls this.
  const auto stamp =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  return stamp;
}
