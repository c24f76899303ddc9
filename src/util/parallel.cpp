#include "util/parallel.hpp"

#include <sched.h>

namespace massf::util {

std::size_t usable_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
#endif
  return std::max(1U, std::thread::hardware_concurrency());
}

}  // namespace massf::util
