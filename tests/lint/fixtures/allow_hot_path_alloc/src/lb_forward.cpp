// LB request path whose flight-table growth is licensed: cold setup
// reserves the table, so the hot push_back is amortized warm-up only.
#include <cstddef>
#include <vector>

std::vector<unsigned> g_flight_table;

void lb_warm_up(std::size_t expected) {
  g_flight_table.reserve(expected);
}

void record_flight(unsigned flight) {
  g_flight_table.push_back(flight);
}

// massf-check: hot-path-root
void lb_forward_request(unsigned flight) {
  record_flight(flight);
}
