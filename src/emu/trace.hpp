// Application-traffic trace record & replay (paper §4.1.1, third metric).
//
// "MaSSF records all network traffic trace of an emulation execution, and
// then replays it without real computation in the application. When
// replaying, it tries to send out traffic as fast as possible, but still
// follows the real application casualty [causality] and message logic
// order." The replay's runtime is the *network emulation time in
// isolation* (Figures 9 and 10).
//
// Causality capture: for every recorded send we store how many messages the
// sending host had received at send time (`required_received`). Replay
// issues a host's sends in their original order, each as soon as the host
// has received that many messages — zero compute delay, order and
// dependences preserved.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "emu/app.hpp"
#include "emu/packet.hpp"

namespace massf::emu {

class Emulator;

/// One recorded application message.
struct TraceMessage {
  NodeId src = -1;
  NodeId dst = -1;
  double bytes = 0;
  int tag = 0;
  SimTime sent_at = 0;
  /// Messages delivered to `src` before this send (causal precondition).
  std::uint64_t required_received = 0;
};

/// A complete recorded run.
struct Trace {
  /// Per-host send sequences, in original send order (index = NodeId).
  std::vector<std::vector<TraceMessage>> sends_by_host;

  std::size_t total_messages() const;
  double total_bytes() const;
};

/// Attach to an Emulator (Emulator::set_trace_recorder) to record every
/// application message with its causal context.
class TraceRecorder {
 public:
  explicit TraceRecorder(NodeId node_count);

  /// Called by the emulator on message injection (on src's engine).
  void on_send(NodeId src, NodeId dst, double bytes, int tag,
               std::uint64_t message_id, SimTime at);

  /// Called by the emulator on message delivery (on dst's engine).
  void on_delivery(const AppMessage& message, SimTime at);

  /// Extract the trace after the run.
  Trace finish() const;

 private:
  std::vector<std::vector<TraceMessage>> sends_by_host_;
  std::vector<std::uint64_t> received_by_host_;
};

/// Drives a fresh Emulator to replay a Trace as fast as causality allows.
/// Usage: construct, call install() with an emulator covering the same
/// network, then run the emulator; messages_issued() reports progress.
class TraceReplayer {
 public:
  explicit TraceReplayer(Trace trace);

  /// Installs replay endpoints on every host that sends or receives in the
  /// trace. Must be called before emulator.run().
  void install(Emulator& emulator);

  std::size_t messages_issued() const {
    return issued_.load(std::memory_order_relaxed);
  }
  std::size_t messages_total() const { return total_; }

 private:
  class ReplayEndpoint;

  void issue_ready(Emulator& emulator, NodeId host);

  Trace trace_;
  std::vector<std::size_t> next_send_;        // per host: next trace index
  std::vector<std::uint64_t> received_;       // per host: deliveries so far
  /// Shared across engine threads (atomic for Threaded mode); own cache
  /// line so bumping it never falsely shares with the per-host vectors.
  alignas(64) std::atomic<std::size_t> issued_{0};
  std::size_t total_ = 0;
};

}  // namespace massf::emu
