#include "emu/trace.hpp"

#include "emu/emulator.hpp"
#include "util/error.hpp"

namespace massf::emu {

std::size_t Trace::total_messages() const {
  std::size_t total = 0;
  for (const auto& sends : sends_by_host) total += sends.size();
  return total;
}

double Trace::total_bytes() const {
  double total = 0;
  for (const auto& sends : sends_by_host)
    for (const TraceMessage& m : sends) total += m.bytes;
  return total;
}

TraceRecorder::TraceRecorder(NodeId node_count)
    : sends_by_host_(static_cast<std::size_t>(node_count)),
      received_by_host_(static_cast<std::size_t>(node_count), 0) {}

void TraceRecorder::on_send(NodeId src, NodeId dst, double bytes, int tag,
                            std::uint64_t message_id, SimTime at) {
  (void)message_id;
  TraceMessage m;
  m.src = src;
  m.dst = dst;
  m.bytes = bytes;
  m.tag = tag;
  m.sent_at = at;
  m.required_received = received_by_host_[static_cast<std::size_t>(src)];
  // massf-check: allow(hot-path-alloc) — trace capture is opt-in
  // instrumentation; the measured hot path runs with recorder_ == nullptr.
  sends_by_host_[static_cast<std::size_t>(src)].push_back(m);
}

void TraceRecorder::on_delivery(const AppMessage& message, SimTime at) {
  (void)at;
  ++received_by_host_[static_cast<std::size_t>(message.dst)];
}

Trace TraceRecorder::finish() const {
  Trace trace;
  trace.sends_by_host = sends_by_host_;
  return trace;
}

// ---------------------------------------------------------------------------

/// Endpoint installed on every replaying host: counts deliveries and fires
/// any sends whose causal precondition just became satisfied.
class TraceReplayer::ReplayEndpoint : public AppEndpoint {
 public:
  ReplayEndpoint(TraceReplayer& replayer, NodeId host)
      : replayer_(replayer), host_(host) {}

  void start(AppApi& api) override {
    replayer_.issue_ready(api.emulator(), host_);
  }

  void receive(AppApi& api, const AppMessage& message) override {
    (void)message;
    ++replayer_.received_[static_cast<std::size_t>(host_)];
    replayer_.issue_ready(api.emulator(), host_);
  }

 private:
  TraceReplayer& replayer_;
  NodeId host_;
};

TraceReplayer::TraceReplayer(Trace trace) : trace_(std::move(trace)) {
  next_send_.assign(trace_.sends_by_host.size(), 0);
  received_.assign(trace_.sends_by_host.size(), 0);
  total_ = trace_.total_messages();
}

void TraceReplayer::install(Emulator& emulator) {
  MASSF_REQUIRE(static_cast<std::size_t>(emulator.network().node_count()) >=
                    trace_.sends_by_host.size(),
                "trace references nodes outside the emulated network");
  // Every host that sends or receives participates.
  std::vector<char> participates(trace_.sends_by_host.size(), 0);
  for (std::size_t h = 0; h < trace_.sends_by_host.size(); ++h) {
    if (!trace_.sends_by_host[h].empty()) participates[h] = 1;
    for (const TraceMessage& m : trace_.sends_by_host[h])
      participates[static_cast<std::size_t>(m.dst)] = 1;
  }
  for (std::size_t h = 0; h < participates.size(); ++h)
    if (participates[h])
      emulator.install_endpoint(
          static_cast<NodeId>(h),
          std::make_unique<ReplayEndpoint>(*this, static_cast<NodeId>(h)));
}

void TraceReplayer::issue_ready(Emulator& emulator, NodeId host) {
  const auto h = static_cast<std::size_t>(host);
  const auto& sends = trace_.sends_by_host[h];
  while (next_send_[h] < sends.size() &&
         sends[next_send_[h]].required_received <= received_[h]) {
    const TraceMessage& m = sends[next_send_[h]];
    ++next_send_[h];
    ++issued_;
    emulator.send_message(m.src, m.dst, m.bytes, m.tag,
                          emulator.kernel().now());
  }
}

}  // namespace massf::emu
