// Application layer: message-passing endpoints hosted on emulated hosts.
//
// MaSSF directly executes real applications (ScaLAPACK over MPICH-G,
// GridNPB) whose sockets are redirected into the emulator. Our substitute
// is a deterministic message-passing framework: an AppEndpoint instance
// lives on each participating host, receives start/receive upcalls on that
// host's engine (LP), and interacts with the network exclusively through
// AppApi — so all endpoint state is partitioned per host and the framework
// is race-free in threaded kernel mode. Traffic models (HTTP background,
// ScaLapack-like, GridNPB-like) are built on this interface.
#pragma once

#include <cstdint>
#include <memory>

#include "emu/packet.hpp"

namespace massf::emu {

class Emulator;

// AppMessage lives in emu/packet.hpp: the last train of a message embeds it
// so delivery needs no per-message closure.

/// Capability handle passed to endpoint upcalls; valid only for the
/// duration of the upcall and only on the endpoint's host.
class AppApi {
 public:
  AppApi(Emulator& emulator, NodeId host)
      : emulator_(emulator), host_(host) {}

  /// The host this endpoint lives on.
  NodeId self() const { return host_; }

  /// Current simulation time.
  SimTime now() const;

  /// Send an application message to another host; returns its message id.
  /// The message is packetized and injected on this host's access link.
  /// `corr` is an opaque correlation token delivered unchanged in
  /// AppMessage::corr (request/response matching for the RPC layer).
  std::uint64_t send(NodeId dst, double bytes, int tag = 0,
                     std::uint64_t corr = 0);

  /// Like send(), but with at-least-once delivery: the receiver ACKs and
  /// this host retransmits on timeout with exponential backoff until the
  /// retry budget (EmulatorConfig::reliable) is exhausted. The receiver
  /// endpoint sees the message exactly once (duplicates are suppressed).
  /// When the budget runs out the sender endpoint gets on_send_failed().
  std::uint64_t send_reliable(NodeId dst, double bytes, int tag = 0,
                              std::uint64_t corr = 0);

  /// Model a compute phase: after `delay` seconds of simulated
  /// computation, the endpoint's on_timer(api, tag) upcall runs on this
  /// host. The pending timer is a typed control event, so it survives
  /// checkpoint/restore bit-identically.
  void set_timer(double delay, std::int64_t tag = 0);

  /// Record one per-request latency sample into a histogram series the
  /// emulator folds per (series × fault epoch × engine); see
  /// Emulator::register_latency_series. Pure counter update — never
  /// schedules an event, so it cannot perturb history_hash.
  void record_latency(int series, double seconds);

  Emulator& emulator() { return emulator_; }

 private:
  Emulator& emulator_;
  NodeId host_;
};

/// Base class for application endpoints. Default upcalls do nothing.
class AppEndpoint {
 public:
  virtual ~AppEndpoint() = default;

  /// Invoked once at the endpoint's start time.
  virtual void start(AppApi& api) { (void)api; }

  /// Invoked when an application message addressed to this host is fully
  /// delivered.
  virtual void receive(AppApi& api, const AppMessage& message) {
    (void)api;
    (void)message;
  }

  /// Invoked when a timer armed with AppApi::set_timer expires.
  virtual void on_timer(AppApi& api, std::int64_t tag) {
    (void)api;
    (void)tag;
  }

  /// Invoked on the *sender* when a send_reliable exhausts its retry
  /// budget: `message` carries the failed message's dst/bytes/tag/id/corr
  /// and its first-send time. Runs on the sender's engine at the final
  /// timeout, so it is race-free and deterministic like every other upcall.
  virtual void on_send_failed(AppApi& api, const AppMessage& message) {
    (void)api;
    (void)message;
  }

  /// Checkpoint support: serialize this endpoint's mutable state as opaque
  /// 64-bit words (doubles bit-cast, counters widened). load_state receives
  /// exactly the words save_state produced. Endpoints with no mutable state
  /// may keep the defaults; stateful endpoints must override both or their
  /// restored runs diverge.
  virtual void save_state(std::vector<std::uint64_t>& out) const {
    (void)out;
  }
  virtual void load_state(const std::vector<std::uint64_t>& in) { (void)in; }
};

}  // namespace massf::emu
