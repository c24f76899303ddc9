// massf-check fixture: MUST be clean.
// Sanctioned shapes: loops that do real work per iteration, do-while
// tails (the `} while (...);` line opens with a brace, not `while`), and
// an audited yield carrying allow() — the park-disabled legacy protocol.
#include <atomic>
#include <thread>

int drain(std::atomic<int>& n) {
  int seen = 0;
  while (n.load() > 0) {
    seen += n.exchange(0);  // real work per iteration, not a poll
  }
  return seen;
}

int bounded_retry(std::atomic<bool>& flag) {
  int spins = 0;
  do {
    ++spins;
  } while (!flag.load() && spins < 8);
  return spins;
}

void legacy_yield_mode() {
  // massf-check: allow(busy-wait) — the one sanctioned fallback shape
  std::this_thread::yield();
}
