// Setup fan-out: n independent jobs over the usable CPUs.
//
// Route-table builds and partition trials are sets of independent jobs
// whose results land in slots indexed by job, so running them on W threads
// produces the same bytes as the plain loop. This helper owns only the
// scheduling. Jobs are claimed in ascending index order from one shared
// counter; when jobs throw, the caller sees the exception of the lowest
// failing index — the one the plain loop would have raised — whatever the
// interleaving (every index below a claimed one was claimed earlier, and a
// claimed job always runs to completion).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

namespace massf::util {

/// CPUs the calling thread may run on: its affinity mask (a CPU-limited
/// container counts its own share), else hardware_concurrency; at least 1.
std::size_t usable_cpus();

/// Run fn(worker, i) for every i in [0, n) on W = min(n, usable_cpus())
/// workers and return when all are done. The calling thread is worker 0;
/// W − 1 threads are started and joined here. `worker` < W ≤ the
/// usable_cpus() the calling thread reads just before, so per-worker
/// scratch sized by usable_cpus() is never indexed out of range. With
/// W = 1 this is the plain loop. If jobs throw, the exception of the
/// lowest failing index is rethrown after every started job finished.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t workers = std::min(n, usable_cpus());
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(std::size_t{0}, i);
    return;
  }
  struct Failure {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  std::vector<Failure> failures(workers);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  const auto work = [&](std::size_t worker) {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(worker, i);
      } catch (...) {
        // A worker claims ascending indices, so its first failure is its
        // lowest; later claims could only be higher.
        failures[worker] = {i, std::current_exception()};
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  {
    std::vector<std::jthread> threads;  // joined on scope exit, throw or not
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
    work(0);
  }
  const auto first = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (first->error) std::rethrow_exception(first->error);
}

}  // namespace massf::util
