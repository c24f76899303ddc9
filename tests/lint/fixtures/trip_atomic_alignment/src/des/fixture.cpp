// massf-check fixture: MUST trip `atomic-alignment`.
// A cross-thread atomic member without alignas(64) can share a cache line
// with neighbouring hot fields: every store invalidates readers of state it
// has nothing to do with (false sharing), and the resulting timing jitter
// is invisible to every functional test.
#include <atomic>
#include <cstdint>

struct EngineSlot {
  std::uint64_t events = 0;
  std::atomic<double> published_clock{0.0};  // shares a line with `events`
  std::uint64_t remote = 0;
};

double read(const EngineSlot& slot) { return slot.published_clock.load(); }
