// massf-check fixture: MUST trip `busy-wait` (yield spin, empty {} body,
// and bare-semicolon body). Raw polls either burn a core (empty body) or a
// scheduler quantum per check (yield); all idle waiting goes through
// util/spinwait.hpp, whose SpinWait bounds the spin and escalates to a
// futex park.
#include <atomic>
#include <thread>

void yield_poll(const std::atomic<bool>& ready) {
  while (!ready.load()) std::this_thread::yield();
}

void empty_spin(const std::atomic<bool>& ready) {
  while (!ready.load()) {}
}

void semicolon_spin(const std::atomic<bool>& ready) {
  while (!ready.load());
}
