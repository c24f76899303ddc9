// A would-be cycle (c -> a here, a -> c in the other direction below)
// suppressed by an audited allow on the acquisition that closes it.
#include "locks.hpp"

void a_then_c() {
  util::MutexLock lock(g_a);
  util::MutexLock nested(g_c);
}

void c_then_a_audited() {
  util::MutexLock lock(g_c);
  // massf-check: allow(lock-cycle) — trylock in the real code: this
  // path backs off instead of blocking, so the cycle cannot deadlock.
  util::MutexLock nested(g_a);
}
