// A park under a lock that a human audited (the waker never takes g_m),
// suppressed in-line.
#include "wait.hpp"

void audited_park_under_lock() {
  util::MutexLock lock(g_m);
  // massf-check: allow(lock-across-wait) — the waker signals from a
  // lock-free path; g_m only guards state the waker never touches.
  g_slot.park(0);
}
