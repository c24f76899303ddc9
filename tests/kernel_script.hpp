// Test helper: inline event bodies for the DES kernel.
//
// The kernel carries one event type, the POD PacketEvent, dispatched to a
// single EventSink. Kernel tests that want to write an event body inline
// register it with a ScriptSink, which stores the body and schedules a
// packet whose payload points at it. A null payload is a no-op filler
// event, so `kernel.schedule_packet(lp, t, {})` schedules pure load.
//
// KernelTestPeer runs a kernel with an explicit worker count, so the
// threaded equivalence tests cover 1 < W < lp_count on every host, and
// counts the events waiting in lane chains.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

#include "des/kernel.hpp"

namespace massf::des {

class ScriptSink : public EventSink {
 public:
  using Body = std::function<void()>;

  /// Registers itself as `kernel`'s event sink.
  explicit ScriptSink(Kernel& kernel) : kernel_(kernel) {
    kernel.set_event_sink(this);
  }

  /// Kernel::schedule_packet with an inline body; `key` is the rehome key,
  /// `lane` the queueing hint.
  void at(int lp, SimTime t, Body body, std::int32_t key = -1,
          std::int32_t lane = -1) {
    kernel_.schedule_packet(lp, t, {store(std::move(body)), key, lane});
  }

  /// Kernel::schedule_packet_remote with an inline body.
  void remote(int lp, SimTime t, Body body, std::int32_t key = -1,
              std::int32_t lane = -1) {
    kernel_.schedule_packet_remote(lp, t,
                                   {store(std::move(body)), key, lane});
  }

  void on_packet_event(const PacketEvent& event) override {
    if (event.payload != nullptr) (*static_cast<Body*>(event.payload))();
  }

 private:
  /// Threaded runs schedule from several LPs at once; a deque never moves
  /// stored bodies, so pointers handed to the kernel stay valid.
  Body* store(Body body) {
    const std::lock_guard<std::mutex> lock(mutex_);
    bodies_.push_back(std::move(body));
    return &bodies_.back();
  }

  Kernel& kernel_;
  std::mutex mutex_;
  std::deque<Body> bodies_;
};

/// Kernel::run_until with exactly `workers` workers (1 = Sequential),
/// whatever the host's CPU count.
struct KernelTestPeer {
  static void run_until(Kernel& kernel, SimTime end_time,
                        std::size_t workers) {
    kernel.run_until(end_time, workers);
  }
  static std::uint64_t chained_events(const Kernel& kernel) {
    return kernel.chained_events();
  }
};

/// Worker counts W ∈ {1, 2, lps} (clipped to lps, ascending, unique): the
/// Sequential worker, a worker owning a block of several LPs, and one
/// worker per LP.
inline std::vector<std::size_t> worker_counts(int lps) {
  const auto n = static_cast<std::size_t>(lps);
  std::vector<std::size_t> counts{1, std::min<std::size_t>(2, n), n};
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

}  // namespace massf::des
