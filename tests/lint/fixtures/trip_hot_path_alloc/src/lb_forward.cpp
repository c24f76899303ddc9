// LB request path: forwarding grows an unreserved per-flight table on
// every request — a per-event allocation the closure must flag.
#include <vector>

std::vector<unsigned> g_inflight_requests;

void enqueue_flight(unsigned flight) {
  g_inflight_requests.push_back(flight);
}

// massf-check: hot-path-root
void lb_forward_request(unsigned flight) {
  enqueue_flight(flight);
}
