// The flight table is reserve()d in cold setup, which already licenses the
// hot push_back: the allow on it hides nothing.
#include <cstddef>
#include <vector>

std::vector<unsigned> g_flights;

void warm_up(std::size_t expected) { g_flights.reserve(expected); }

void record_flight(unsigned flight) {
  // massf-check: allow(hot-path-alloc) — bounded by in-flight requests.
  g_flights.push_back(flight);
}
