// massf-check fixture: MUST trip `wall-clock` (four ways).
// Wall-clock reads in simulation code tie event timing to the host machine;
// simulation time is modeled (des::SimTime), never measured.
#include <chrono>
#include <ctime>

double machine_dependent() {
  const auto wall = std::chrono::system_clock::now();
  const auto hires = std::chrono::high_resolution_clock::now();
  const std::time_t stamp = time(nullptr);
  std::time_t raw = stamp;
  (void)localtime(&raw);
  return std::chrono::duration<double>(wall.time_since_epoch()).count() +
         std::chrono::duration<double>(hires.time_since_epoch()).count();
}
