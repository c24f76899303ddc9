// massf-check fixture: MUST be clean.
// steady_clock is the sanctioned way to measure wall time (monotonic,
// never feeds simulation state) and needs no suppression; an audited
// system_clock site (e.g. stamping a report filename) uses allow().
#include <chrono>

double measured_wall_seconds() {
  const auto t0 = std::chrono::steady_clock::now();
  const auto t1 = std::chrono::steady_clock::now();
  // Run metadata only — never reaches simulation state.
  // massf-check: allow(wall-clock)
  const auto stamp = std::chrono::system_clock::now();
  (void)stamp;
  return std::chrono::duration<double>(t1 - t0).count();
}
