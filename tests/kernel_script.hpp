// Test helper: inline event bodies for the DES kernel.
//
// The kernel carries one event type, the POD PacketEvent, dispatched to a
// single EventSink. Kernel tests that want to write an event body inline
// register it with a ScriptSink, which stores the body and schedules a
// packet whose payload points at it. A null payload is a no-op filler
// event, so `kernel.schedule_packet(lp, t, {})` schedules pure load.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <utility>

#include "des/kernel.hpp"

namespace massf::des {

class ScriptSink : public EventSink {
 public:
  using Body = std::function<void()>;

  /// Registers itself as `kernel`'s event sink.
  explicit ScriptSink(Kernel& kernel) : kernel_(kernel) {
    kernel.set_event_sink(this);
  }

  /// Kernel::schedule_packet with an inline body; `key` is the rehome key.
  void at(int lp, SimTime t, Body body, std::int32_t key = -1) {
    kernel_.schedule_packet(lp, t, {store(std::move(body)), key});
  }

  /// Kernel::schedule_packet_remote with an inline body.
  void remote(int lp, SimTime t, Body body, std::int32_t key = -1) {
    kernel_.schedule_packet_remote(lp, t, {store(std::move(body)), key});
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

}  // namespace massf::des
