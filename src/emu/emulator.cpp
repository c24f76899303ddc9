#include "emu/emulator.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <utility>

#include "emu/trace.hpp"
#include "util/rng.hpp"

namespace massf::emu {

namespace {

/// Stable flow id for (src, dst, tag) — NetFlow's aggregation key.
std::uint64_t flow_id(NodeId src, NodeId dst, int tag) {
  return mix_seed(mix_seed(static_cast<std::uint64_t>(src) + 1,
                           static_cast<std::uint64_t>(dst) + 1),
                  static_cast<std::uint64_t>(tag) + 0x51ULL);
}

/// Globally unique reliable/message id. The sender must be pre-mixed to
/// full entropy: mix_seed's pre-mix is nearly linear in a small first
/// argument, so (src, counter) and (src', counter − 64·(src'−src)) would
/// alias between hosts — and id collisions at a busy receiver make its
/// reliable-delivery dedupe suppress fresh messages as duplicates.
std::uint64_t message_id_for(NodeId src, std::uint64_t counter) {
  std::uint64_t s = static_cast<std::uint64_t>(src) + 1;
  return mix_seed(splitmix64(s), counter);
}

constexpr std::uint64_t kIcmpFlowBase = 0xfeedface00000000ULL;
constexpr std::uint64_t kAckFlowBase = 0xacced00000000000ULL;

// Snapshot section tags (see src/ckpt/ and DESIGN.md §12).
constexpr std::uint32_t kTagSnapshot = 0x736e6170;  // "snap"
constexpr std::uint32_t kTagEmu = 0x656d7573;       // "emus"
constexpr std::uint32_t kTagEmuEnd = 0x656d7565;    // "emue"
// Fallback lookahead floor when no link crosses engines (single-engine runs).
constexpr double kMinLookahead = 1e-4;
// Reliable delivery: each retransmit timeout multiplies the wait by this
// factor.
constexpr double kReliableBackoff = 2.0;
// Wire size of a reply packet: an ACK or an ICMP report.
constexpr double kReplyBytes = 64;

// Minimum encoded size of one pending reliable-delivery record.
constexpr std::size_t kPendingReliableBytes = 7 * 8;

}  // namespace

KernelLanes::KernelLanes(std::int64_t link_count, std::int64_t node_count) {
  MASSF_REQUIRE(link_count >= 0 && node_count >= 0,
                "link and node counts must be non-negative");
  const std::int64_t lanes = 2 * link_count + node_count;
  MASSF_REQUIRE(lanes <= std::numeric_limits<std::int32_t>::max(),
                "a network of " << link_count << " links and " << node_count
                                << " nodes needs " << lanes
                                << " kernel lane ids (2 per link + 1 per "
                                   "host), more than a 32-bit lane id holds "
                                   "— emulate it as smaller networks");
  host_base_ = static_cast<std::int32_t>(2 * link_count);
}

SimTime AppApi::now() const { return emulator_.kernel().now(); }

std::uint64_t AppApi::send(NodeId dst, double bytes, int tag,
                           std::uint64_t corr) {
  return emulator_.send_message(host_, dst, bytes, tag, now(), corr);
}

std::uint64_t AppApi::send_reliable(NodeId dst, double bytes, int tag,
                                    std::uint64_t corr) {
  return emulator_.send_reliable(host_, dst, bytes, tag, now(), corr);
}

void AppApi::record_latency(int series, double seconds) {
  emulator_.record_latency(series, seconds);
}

void AppApi::set_timer(double delay, std::int64_t tag) {
  MASSF_REQUIRE(delay >= 0, "timer delay must be non-negative");
  emulator_.schedule_timer(host_, now() + delay, tag);
}

Emulator::Emulator(const topology::Network& network,
                   const routing::RoutingView& routes,
                   std::vector<int> node_engine, int engines,
                   EmulatorConfig config)
    : network_(network),
      routes_(routes),
      node_engine_(std::move(node_engine)),
      engines_(engines),
      lanes_(network.link_count(), network.node_count()),
      config_(config),
      lookahead_(0),
      pool_(engines),
      host_state_(static_cast<std::size_t>(network.node_count())),
      link_next_free_(2 * static_cast<std::size_t>(network.link_count()), 0.0),
      link_drops_(2 * static_cast<std::size_t>(network.link_count()), 0) {
  MASSF_REQUIRE(engines_ >= 1, "need at least one engine");
  MASSF_REQUIRE(node_engine_.size() ==
                    static_cast<std::size_t>(network.node_count()),
                "node_engine must cover every node");
  for (int e : node_engine_)
    MASSF_REQUIRE(e >= 0 && e < engines_, "engine id out of range");
  MASSF_REQUIRE(config_.mtu_bytes > 0, "MTU must be positive");
  MASSF_REQUIRE(config_.train_packets >= 1, "train size must be >= 1");

  const topology::CutLatency cut =
      topology::cut_latency(network_, node_engine_, engines_);
  lookahead_ = lookahead_of(cut);
  kernel_ = std::make_unique<des::Kernel>(engines_, lookahead_, config_.cost);
  kernel_->set_bucket_width(config_.bucket_width);
  kernel_->set_event_sink(this);
  kernel_->set_sync_mode(config_.sync_mode);
  register_channel_lookaheads(cut);
  if (config_.collect_netflow)
    netflow_ = std::make_unique<NetFlowCollector>(
        network.node_count(), network.link_count(), config_.bucket_width);
}

Emulator::~Emulator() = default;

int Emulator::engine_of(NodeId node) const {
  MASSF_REQUIRE(node >= 0 && node < network_.node_count(),
                "node out of range");
  return node_engine_[static_cast<std::size_t>(node)];
}

double Emulator::lookahead_of(const topology::CutLatency& cut) const {
  return std::isfinite(cut.min)
             ? cut.min
             : std::max(kMinLookahead, network_.min_link_latency());
}

void Emulator::register_channel_lookaheads(const topology::CutLatency& cut) {
  // One kernel channel per directed engine pair joined by at least one cut
  // link, with the pair's own minimum cut-link latency. The only
  // cross-engine events the emulator ever schedules are packet hops along
  // cut links (transmit()), whose arrival is depart + serialization +
  // link latency >= now + pair lookahead; epoch boundaries and reliable
  // timers are engine-local. With no cut links at all (every node on one
  // engine) nothing is registered and the kernel keeps its implicit
  // all-pairs coupling at the global lookahead.
  for (int s = 0; s < engines_; ++s)
    for (int d = 0; d < engines_; ++d)
      if (std::isfinite(cut.between(s, d)))
        kernel_->set_channel_lookahead(s, d, cut.between(s, d));
}

void Emulator::install_endpoint(NodeId host,
                                std::unique_ptr<AppEndpoint> endpoint,
                                SimTime start_at) {
  MASSF_REQUIRE(host >= 0 && host < network_.node_count(),
                "host out of range");
  MASSF_REQUIRE(endpoint != nullptr, "endpoint must not be null");
  MASSF_REQUIRE(!ran_, "install endpoints before run()");
  HostState& state = host_state_[static_cast<std::size_t>(host)];
  MASSF_REQUIRE(state.endpoint == nullptr,
                "host " << host << " already has an endpoint");
  state.endpoint = std::move(endpoint);
  // Typed control event (not a closure) so a pending start survives a
  // checkpoint; keyed by host so it follows the host if it migrates.
  Packet* start = make_control(PacketKind::CtrlStart, host, 0);
  kernel_->schedule_packet(engine_of(host), start_at, {start, host});
}

Packet* Emulator::make_control(PacketKind kind, NodeId host,
                               std::uint64_t id) {
  Packet* p = pool_.acquire(pool_shard());
  p->kind = kind;
  p->dst = host;
  p->probe_id = id;
  return p;
}

void Emulator::schedule_timer(NodeId host, SimTime at, std::int64_t tag) {
  MASSF_REQUIRE(host >= 0 && host < network_.node_count(),
                "host out of range");
  Packet* timer =
      make_control(PacketKind::CtrlTimer, host, static_cast<std::uint64_t>(tag));
  kernel_->schedule_packet(engine_of(host), at, {timer, host});
}

void Emulator::inject_trains(NodeId src, NodeId dst, double bytes, int tag,
                             std::uint64_t message_id, SimTime sent_at,
                             bool reliable, std::uint64_t corr, SimTime at) {
  HostState& sender = host_state_[static_cast<std::size_t>(src)];
  if (final_stats_) final_stats_.reset();  // a send after run()

  // Packetize into trains; the last train embeds the AppMessage that
  // drives delivery bookkeeping at the destination.
  const double train_bytes = config_.mtu_bytes * config_.train_packets;
  const int total_packets =
      std::max(1, static_cast<int>(std::ceil(bytes / config_.mtu_bytes)));
  const int trains =
      std::max(1, static_cast<int>(std::ceil(bytes / train_bytes)));
  const std::uint64_t flow = flow_id(src, dst, tag);

  const int shard = pool_shard();
  double remaining_bytes = bytes;
  int remaining_packets = total_packets;
  for (int i = 0; i < trains; ++i) {
    Packet* train = pool_.acquire(shard);
    train->src = src;
    train->dst = dst;
    train->kind = PacketKind::Data;
    train->flow = flow;
    if (i + 1 < trains) {
      train->bytes = train_bytes;
      train->packets = config_.train_packets;
    } else {
      train->bytes = remaining_bytes;
      train->packets = std::max(1, remaining_packets);
      train->has_message = true;
      train->message = AppMessage{src,     dst, bytes,    tag, message_id,
                                  sent_at, 0,   reliable, corr};
    }
    remaining_bytes -= train_bytes;
    remaining_packets -= config_.train_packets;

    // Each train is injected as its own kernel event at the send time: the
    // injection overhead the paper measures "by the number of requests
    // coming from the application".
    ++sender.trains_injected;
    kernel_->schedule_packet(engine_of(src), at, {train, src});
  }
}

std::uint64_t Emulator::register_send(NodeId src, NodeId dst, double bytes,
                                      int tag, SimTime at) {
  MASSF_REQUIRE(src >= 0 && src < network_.node_count(), "src out of range");
  MASSF_REQUIRE(dst >= 0 && dst < network_.node_count(), "dst out of range");
  MASSF_REQUIRE(src != dst, "messages must cross the network (src != dst)");
  MASSF_REQUIRE(bytes > 0, "message size must be positive");

  HostState& sender = host_state_[static_cast<std::size_t>(src)];
  const std::uint64_t message_id =
      message_id_for(src, ++sender.message_counter);
  ++sender.messages_sent;
  if (recorder_ != nullptr)
    recorder_->on_send(src, dst, bytes, tag, message_id, at);
  return message_id;
}

std::uint64_t Emulator::send_message(NodeId src, NodeId dst, double bytes,
                                     int tag, SimTime at, std::uint64_t corr) {
  const std::uint64_t message_id = register_send(src, dst, bytes, tag, at);
  inject_trains(src, dst, bytes, tag, message_id, at, /*reliable=*/false, corr,
                at);
  return message_id;
}

std::uint64_t Emulator::send_reliable(NodeId src, NodeId dst, double bytes,
                                      int tag, SimTime at,
                                      std::uint64_t corr) {
  const std::uint64_t message_id = register_send(src, dst, bytes, tag, at);
  HostState& sender = host_state_[static_cast<std::size_t>(src)];
  ++sender.reliable_sent;
  sender.pending.try_insert(
      message_id, PendingReliable{dst, bytes, tag, at, /*attempts=*/1, corr});
  inject_trains(src, dst, bytes, tag, message_id, at, /*reliable=*/true, corr,
                at);
  // A first attempt times out `base_timeout_s` after its send, so on the
  // host's own LP (now never decreases, seq grows) the host's timeouts
  // follow one another: its timeout lane queues them as a chain.
  Packet* timeout =
      make_control(PacketKind::CtrlReliableTimeout, src, message_id);
  kernel_->schedule_packet(engine_of(src),
                           at + config_.reliable.base_timeout_s,
                           {timeout, src, lanes_.host_timeouts(src)});
  return message_id;
}

void Emulator::reliable_timeout(NodeId src, std::uint64_t message_id) {
  HostState& sender = host_state_[static_cast<std::size_t>(src)];
  PendingReliable* const pending = sender.pending.find(message_id);
  if (pending == nullptr) return;  // ACKed in the meantime
  PendingReliable& p = *pending;
  if (p.attempts >= 1 + config_.reliable.max_retries) {
    ++sender.reliable_failed;
    // Surface the exhaustion to the sender's endpoint as an app-visible
    // failure. The upcall runs here — on the sender's engine, at the final
    // timeout event — so it is as deterministic as any receive() upcall.
    const AppMessage failed{src,          p.dst, p.bytes, p.tag, message_id,
                            p.first_sent, 0,     true,    p.corr};
    sender.pending.erase(message_id);
    if (sender.endpoint != nullptr) {
      AppApi api(*this, src);
      sender.endpoint->on_send_failed(api, failed);
    }
    return;
  }
  ++p.attempts;
  ++sender.retransmissions;
  const SimTime now = kernel_->now();
  if (faults_) ++epoch_counters(epoch_for(now)).retransmissions;
  inject_trains(src, p.dst, p.bytes, p.tag, message_id, p.first_sent,
                /*reliable=*/true, p.corr, now);
  // The backed-off deadline would break the host lane's FIFO, and re-arms
  // are rare: this one queues loose.
  const double timeout = config_.reliable.base_timeout_s *
                         std::pow(kReliableBackoff, p.attempts - 1);
  Packet* rearm = make_control(PacketKind::CtrlReliableTimeout, src,
                               message_id);
  kernel_->schedule_packet(engine_of(src), now + timeout, {rearm, src});
}

void Emulator::set_fault_timeline(const fault::FaultTimeline* timeline) {
  MASSF_REQUIRE(!ran_, "set the fault timeline before run()");
  faults_ = timeline;
  epoch_cursor_.clear();
  epoch_slots_.clear();
  // Latency slots are epoch-shaped; re-shape them (they are all-zero before
  // run(), so reshaping loses nothing regardless of registration order).
  latency_epochs_ = timeline != nullptr ? timeline->epoch_count() : 1;
  latency_slots_.assign(latency_names_.size() * latency_epochs_ *
                            static_cast<std::size_t>(engines_),
                        LatencyHistogram{});
  if (timeline == nullptr) return;
  MASSF_REQUIRE(timeline->node_count() == network_.node_count() &&
                    timeline->link_count() == network_.link_count(),
                "fault timeline was built for a different network");
  epoch_cursor_.assign(static_cast<std::size_t>(engines_), EpochCursor{});
  epoch_slots_.assign(
      timeline->epoch_count() * static_cast<std::size_t>(engines_),
      EpochCounters{});
  // Every epoch boundary becomes a kernel event on every engine: faults are
  // observed inside the simulation (identically in Sequential and Threaded
  // modes), and an engine crosses the boundary even when idle. Control
  // packets with node key -1 (never migrates — the boundary belongs to the
  // engine, not any virtual node) so pending boundaries serialize at a
  // checkpoint.
  for (const double t : timeline->boundaries()) {
    for (int lp = 0; lp < engines_; ++lp) {
      Packet* boundary = make_control(PacketKind::CtrlEpoch, -1, 0);
      kernel_->schedule_packet(lp, t, {boundary, -1});
    }
  }
}

int Emulator::register_latency_series(const std::string& name) {
  MASSF_REQUIRE(!ran_, "register latency series before run()");
  MASSF_REQUIRE(!name.empty(), "latency series needs a name");
  const int id = static_cast<int>(latency_names_.size());
  latency_names_.push_back(name);
  latency_slots_.resize(latency_names_.size() * latency_epochs_ *
                        static_cast<std::size_t>(engines_));
  return id;
}

void Emulator::record_latency(int series, double seconds) {
  MASSF_REQUIRE(series >= 0 &&
                    static_cast<std::size_t>(series) < latency_names_.size(),
                "unknown latency series");
  const std::size_t epoch =
      faults_ != nullptr ? epoch_for(kernel_->now()) : 0;
  const std::size_t slot =
      (static_cast<std::size_t>(series) * latency_epochs_ + epoch) *
          static_cast<std::size_t>(engines_) +
      static_cast<std::size_t>(pool_shard());
  latency_slots_[slot].record(seconds);
}

std::vector<LatencySummary> Emulator::latency_summaries() const {
  std::vector<LatencySummary> out(latency_names_.size());
  const auto engines = static_cast<std::size_t>(engines_);
  for (std::size_t s = 0; s < latency_names_.size(); ++s) {
    LatencySummary& summary = out[s];
    summary.name = latency_names_[s];
    if (faults_ != nullptr) summary.per_epoch.resize(latency_epochs_);
    for (std::size_t e = 0; e < latency_epochs_; ++e)
      for (std::size_t lp = 0; lp < engines; ++lp) {
        const LatencyHistogram& slot =
            latency_slots_[(s * latency_epochs_ + e) * engines + lp];
        summary.total.merge(slot);
        if (faults_ != nullptr) summary.per_epoch[e].merge(slot);
      }
  }
  return out;
}

std::size_t Emulator::epoch_for(SimTime t) {
  const int lp = kernel_->current_lp();
  if (lp < 0) return faults_->epoch_at(t);
  std::size_t& cursor = epoch_cursor_[static_cast<std::size_t>(lp)].epoch;
  while (cursor + 1 < faults_->epoch_count() &&
         faults_->epoch(cursor + 1).start <= t) {
    ++cursor;
  }
  return cursor;
}

void Emulator::send_probe(NodeId src, NodeId dst, int ttl,
                          std::uint64_t probe_id, SimTime at) {
  MASSF_REQUIRE(src >= 0 && src < network_.node_count(), "src out of range");
  MASSF_REQUIRE(dst >= 0 && dst < network_.node_count(), "dst out of range");
  MASSF_REQUIRE(src != dst, "probe src and dst must differ");
  MASSF_REQUIRE(ttl >= 1, "probe TTL must be >= 1");
  Packet* probe = pool_.acquire(pool_shard());
  probe->src = src;
  probe->dst = dst;
  probe->bytes = 64;
  probe->packets = 1;
  probe->ttl = ttl;
  probe->kind = PacketKind::IcmpEcho;
  probe->flow = kIcmpFlowBase ^ probe_id;
  probe->probe_id = probe_id;
  if (final_stats_) final_stats_.reset();  // a probe after run()
  ++host_state_[static_cast<std::size_t>(src)].trains_injected;
  kernel_->schedule_packet(engine_of(src), at, {probe, src});
}

int Emulator::pool_shard() const {
  const int lp = kernel_->current_lp();
  return lp >= 0 ? lp : 0;
}

void Emulator::on_packet_event(const des::PacketEvent& event) {
  Packet* packet = static_cast<Packet*>(event.payload);
  if (is_control(packet->kind)) {
    // Copy, release, then dispatch: the handler may acquire from the same
    // shard (re-armed timers, injected trains) and immediately reuse the
    // slot, keeping the pool's high-water mark at the packet-hop level.
    const Packet control = *packet;
    pool_.release(pool_shard(), packet);
    handle_control(control);
    return;
  }
  arrive(event.node, packet);
}

void Emulator::handle_control(const Packet& packet) {
  switch (packet.kind) {
    case PacketKind::CtrlStart: {
      HostState& state = host_state_[static_cast<std::size_t>(packet.dst)];
      if (state.endpoint != nullptr) {
        AppApi api(*this, packet.dst);
        state.endpoint->start(api);
      }
      break;
    }
    case PacketKind::CtrlTimer: {
      HostState& state = host_state_[static_cast<std::size_t>(packet.dst)];
      if (state.endpoint != nullptr) {
        AppApi api(*this, packet.dst);
        state.endpoint->on_timer(api,
                                 static_cast<std::int64_t>(packet.probe_id));
      }
      break;
    }
    case PacketKind::CtrlReliableTimeout:
      reliable_timeout(packet.dst, packet.probe_id);
      break;
    case PacketKind::CtrlEpoch:
      (void)epoch_for(kernel_->now());
      break;
    default:
      MASSF_CHECK(false, "non-control packet dispatched to handle_control");
  }
}

void Emulator::arrive(NodeId at, Packet* packet) {
  const SimTime t = kernel_->now();

  if (faults_ != nullptr) {
    const std::size_t epoch = epoch_for(t);
    // A train is cut when the link it rode, or the node it reaches, is down
    // at *arrival* time — so a flap shorter than the flight is survived.
    const bool link_cut =
        packet->via >= 0 && !faults_->link_up(epoch, packet->via);
    if (link_cut || !faults_->node_up(epoch, at)) {
      ++host_state_[static_cast<std::size_t>(at)].trains_dropped_fault;
      ++epoch_counters(epoch).dropped_fault;
      pool_.release(pool_shard(), packet);
      return;
    }
  }

  if (netflow_) netflow_->record_node(at, *packet, t);

  if (at == packet->dst) {
    deliver(at, *packet, t);
    pool_.release(pool_shard(), packet);
    return;
  }
  if (at != packet->src) {
    // Forwarding at an intermediate node consumes TTL.
    --packet->ttl;
    if (packet->ttl <= 0) {
      if (packet->kind == PacketKind::IcmpEcho) {
        // ICMP TTL-exceeded report back to the prober (the mechanism the
        // real traceroute relies on).
        send_reply(at, packet->src, PacketKind::IcmpTtlExceeded,
                   kIcmpFlowBase ^ packet->probe_id, packet->probe_id, at, t);
      }
      // Original packet dropped either way.
      ++host_state_[static_cast<std::size_t>(at)].trains_expired;
      pool_.release(pool_shard(), packet);
      return;
    }
  }
  transmit(at, packet, t);
}

void Emulator::send_reply(NodeId from, NodeId to, PacketKind kind,
                          std::uint64_t flow, std::uint64_t probe_id,
                          NodeId reporter, SimTime t) {
  Packet* reply = pool_.acquire(pool_shard());
  reply->src = from;
  reply->dst = to;
  reply->bytes = kReplyBytes;
  reply->packets = 1;
  reply->ttl = 255;
  reply->kind = kind;
  reply->flow = flow;
  reply->probe_id = probe_id;
  reply->reporter = reporter;
  ++host_state_[static_cast<std::size_t>(from)].trains_injected;
  transmit(from, reply, t);
}

void Emulator::transmit(NodeId from, Packet* packet, SimTime t) {
  const routing::RoutingView* tables = &routes_;
  std::size_t epoch = 0;
  if (faults_ != nullptr) {
    epoch = epoch_for(t);
    tables = faults_->epoch(epoch).routes.get();
  }
  const topology::LinkId link_id = tables->next_link(from, packet->dst);
  if (link_id < 0) {
    // No route to the destination in this epoch. Data packets elicit an
    // ICMP-unreachable report toward the source; reports and ACKs that
    // themselves hit a dead end drop silently (bounding the recursion).
    HostState& here = host_state_[static_cast<std::size_t>(from)];
    ++here.trains_dropped_unreachable;
    if (faults_ != nullptr) ++epoch_counters(epoch).dropped_unreachable;
    if (packet->kind == PacketKind::Data) {
      ++here.icmp_unreachable_sent;
      if (faults_ != nullptr) ++epoch_counters(epoch).icmp_unreachable;
      const std::uint64_t flow = kIcmpFlowBase ^ packet->flow;
      const std::uint64_t id = packet->has_message ? packet->message.id : 0;
      if (from != packet->src) {
        send_reply(from, packet->src, PacketKind::IcmpUnreachable, flow, id,
                   from, t);
      } else if (icmp_handler_) {
        // The source itself has no route: report locally, no wire packet.
        Packet report{};
        report.src = from;
        report.dst = packet->src;
        report.bytes = kReplyBytes;
        report.kind = PacketKind::IcmpUnreachable;
        report.flow = flow;
        report.probe_id = id;
        report.reporter = from;
        icmp_handler_(report, t);
      }
    }
    pool_.release(pool_shard(), packet);
    return;
  }
  packet->via = link_id;
  const topology::Link& link = network_.link(link_id);
  const int dir = link.a == from ? 0 : 1;
  const std::int32_t lane = lanes_.link_direction(link_id, dir);
  const auto slot = static_cast<std::size_t>(lane);

  const double serialization = packet->bytes * 8.0 / link.bandwidth_bps;
  const double depart = std::max(t, link_next_free_[slot]);
  if (depart - t > config_.max_queue_delay) {
    ++link_drops_[slot];
    pool_.release(pool_shard(), packet);
    return;  // drop-tail
  }
  link_next_free_[slot] = depart + serialization;
  const SimTime arrival = depart + serialization + link.latency_s;

  if (netflow_) netflow_->record_link(link_id, dir, *packet);

  // The link direction is the train's kernel lane: its arrivals come in
  // time order (FIFO departures, one latency), so they queue as a chain.
  const NodeId to = link.a == from ? link.b : link.a;
  const des::PacketEvent hop{packet, to, lane};
  const int to_engine = engine_of(to);
  if (to_engine == engine_of(from))
    kernel_->schedule_packet(to_engine, arrival, hop);
  else
    kernel_->schedule_packet_remote(to_engine, arrival, hop);
}

void Emulator::deliver(NodeId at, const Packet& packet, SimTime t) {
  HostState& state = host_state_[static_cast<std::size_t>(at)];
  ++state.trains_delivered;

  switch (packet.kind) {
    case PacketKind::Data:
      if (packet.has_message) {
        AppMessage message = packet.message;
        message.delivered_at = t;
        HostState& receiver =
            host_state_[static_cast<std::size_t>(message.dst)];
        if (message.reliable) {
          // ACK every copy (the previous ACK may itself have been lost);
          // deduplicate before the bookkeeping and the endpoint upcall.
          // NetFlow key: the acknowledged data flow in reverse, so a
          // stream's ACKs share one record per node; the message id
          // rides in probe_id for the sender's bookkeeping.
          send_reply(at, message.src, PacketKind::Ack,
                     kAckFlowBase ^ packet.flow, message.id,
                     /*reporter=*/-1, t);
          if (!receiver.reliable_seen.try_insert(message.id)) {
            ++receiver.duplicate_deliveries;
            break;
          }
          ++receiver.reliable_delivered;
        }
        ++receiver.messages_delivered;
        receiver.bytes_delivered += message.bytes;
        if (recorder_ != nullptr) recorder_->on_delivery(message, t);
        if (receiver.endpoint != nullptr) {
          AppApi api(*this, message.dst);
          receiver.endpoint->receive(api, message);
        }
      }
      break;
    case PacketKind::Ack: {
      // `at` is the original sender; retire the pending entry.
      const PendingReliable* const pending =
          state.pending.find(packet.probe_id);
      if (pending != nullptr) {
        ++state.reliable_acked;
        if (faults_ != nullptr && pending->attempts > 1) {
          EpochCounters& counters = epoch_counters(epoch_for(t));
          ++counters.recovered;
          counters.max_recovery_s =
              std::max(counters.max_recovery_s, t - pending->first_sent);
        }
        state.pending.erase(packet.probe_id);
      }
      break;  // duplicate ACKs for an already-retired message are ignored
    }
    case PacketKind::IcmpEcho: {
      // Destination answers the probe: echo reply back to the prober.
      send_reply(at, packet.src, PacketKind::IcmpEchoReply,
                 kIcmpFlowBase ^ packet.probe_id, packet.probe_id, at, t);
      break;
    }
    case PacketKind::IcmpEchoReply:
    case PacketKind::IcmpTtlExceeded:
    case PacketKind::IcmpUnreachable:
      if (icmp_handler_) icmp_handler_(packet, t);
      break;
    case PacketKind::CtrlStart:
    case PacketKind::CtrlTimer:
    case PacketKind::CtrlReliableTimeout:
    case PacketKind::CtrlEpoch:
      // Control events dispatch via handle_control() and never touch the
      // wire, so they cannot arrive at deliver().
      MASSF_CHECK(false, "control event reached packet delivery");
      break;
  }
}

void Emulator::add_rebalance_safepoint(SimTime t) {
  MASSF_REQUIRE(!ran_, "add rebalance safepoints before run()");
  kernel_->add_safepoint(t);
}

void Emulator::set_rebalance_hook(std::function<void(SimTime)> hook) {
  MASSF_REQUIRE(!ran_, "set the rebalance hook before run()");
  rebalance_hook_ = std::move(hook);
}

void Emulator::set_pre_safepoint_hook(std::function<void(SimTime)> hook) {
  MASSF_REQUIRE(!ran_, "set the pre-safepoint hook before run()");
  pre_safepoint_hook_ = std::move(hook);
}

double Emulator::serialize_host_state(NodeId node) const {
  MASSF_REQUIRE(node >= 0 && node < network_.node_count(),
                "node out of range");
  const HostState& s = host_state_[static_cast<std::size_t>(node)];
  // Modeled serialization: fixed LP header + counters, the endpoint's
  // opaque state, one record per pending reliable message (key, dst,
  // bytes, tag, timestamps, attempts) and one key per receiver dedup
  // entry.
  double bytes = 128.0;
  if (s.endpoint != nullptr) bytes += 256.0;
  bytes += 48.0 * static_cast<double>(s.pending.size());
  bytes += 8.0 * static_cast<double>(s.reliable_seen.size());
  return bytes;
}

Emulator::MigrationSize Emulator::migration_size(
    const std::vector<int>& new_node_engine) const {
  MASSF_REQUIRE(new_node_engine.size() == node_engine_.size(),
                "new assignment must cover every node");
  MigrationSize size;
  for (NodeId n = 0; n < network_.node_count(); ++n) {
    if (new_node_engine[static_cast<std::size_t>(n)] ==
        node_engine_[static_cast<std::size_t>(n)])
      continue;
    ++size.nodes;
    size.bytes += serialize_host_state(n);
  }
  return size;
}

double Emulator::estimate_migration_bytes(
    const std::vector<int>& new_node_engine) const {
  return migration_size(new_node_engine).bytes;
}

std::vector<double> Emulator::engine_event_counts() const {
  std::vector<double> out(static_cast<std::size_t>(engines_), 0.0);
  for (int lp = 0; lp < engines_; ++lp)
    out[static_cast<std::size_t>(lp)] =
        static_cast<double>(kernel_->events_executed(lp));
  return out;
}

int Emulator::migrate_nodes(const std::vector<int>& new_node_engine) {
  MASSF_REQUIRE(kernel_->in_safepoint(),
                "migrate_nodes may only run inside a rebalance safepoint");
  const MigrationSize size = migration_size(new_node_engine);
  for (int e : new_node_engine)
    MASSF_REQUIRE(e >= 0 && e < engines_, "engine id out of range");
  if (size.nodes == 0) return 0;  // identical assignment: guaranteed no-op

  node_engine_ = new_node_engine;

  // The new cut may contain a lower-latency link than the old one; the
  // global conservative bound must shrink *before* per-pair channels are
  // re-registered (a channel may never promise less than the global
  // bound). It must never grow mid-run — events already in flight were
  // promised under the old bound. Channels for pairs no longer joined by a
  // cut link stay registered at their old lookahead: stale coupling is
  // merely conservative.
  const topology::CutLatency cut =
      topology::cut_latency(network_, node_engine_, engines_);
  const double new_lookahead = lookahead_of(cut);
  if (new_lookahead < lookahead_) {
    kernel_->lower_global_lookahead(new_lookahead);
    lookahead_ = new_lookahead;
  }
  register_channel_lookaheads(cut);

  const std::uint64_t rehomed =
      kernel_->rehome_events([this](std::int32_t key) {
        return node_engine_[static_cast<std::size_t>(key)];
      });

  ++rebalance_stats_.rebalances;
  ++rebalance_stats_.epoch;
  rebalance_stats_.nodes_migrated += static_cast<std::uint64_t>(size.nodes);
  rebalance_stats_.migration_bytes += size.bytes;
  rebalance_stats_.events_rehomed += rehomed;
  return size.nodes;
}

void Emulator::run(SimTime until, des::ExecutionMode mode) {
  MASSF_REQUIRE(!ran_, "run() may only be called once");
  if (pre_safepoint_hook_ || rebalance_hook_ || ckpt_enabled_) {
    kernel_->set_safepoint_hook([this](SimTime t) {
      if (pre_safepoint_hook_) pre_safepoint_hook_(t);
      if (rebalance_hook_) rebalance_hook_(t);
      if (ckpt_enabled_) {
        bool due = false;
        while (ckpt_cursor_ < ckpt_times_.size() &&
               ckpt_times_[ckpt_cursor_] <= t) {
          due = true;
          ++ckpt_cursor_;
        }
        if (due) write_checkpoint(t);
      }
    });
  }
  ran_ = true;
  run_until_ = until;
  // A restored run resumes past snapshot instants the original already
  // wrote; skip them so numbering and cadence continue seamlessly.
  while (ckpt_cursor_ < ckpt_times_.size() &&
         ckpt_times_[ckpt_cursor_] <= kernel_->resume_time())
    ++ckpt_cursor_;
  kernel_->run_until(until, mode);

  // Run-end invariants. Every pending kernel event carries exactly one
  // pool packet and every live packet rides exactly one event, so an event
  // lost or duplicated by the kernel queues shows up as a mismatch.
  const std::uint64_t pending = kernel_->pending_events();
  const std::size_t live = pool_.live();
  MASSF_CHECK(pending == live,
              "run end: the kernel holds "
                  << pending << " pending events but " << live
                  << " packets are live in the pool — a kernel event was "
                     "lost or duplicated");
  EmulatorStats folded = fold_stats();
  const std::string fault = conservation_fault(folded);
  MASSF_CHECK(fault.empty(), "run end: " << fault);
  final_stats_ = folded;
}

void Emulator::set_checkpoint_schedule(const CheckpointConfig& cfg,
                                       SimTime horizon) {
  MASSF_REQUIRE(!ran_, "set the checkpoint schedule before run()");
  MASSF_REQUIRE(!cfg.dir.empty(), "checkpoint directory must be set");
  MASSF_REQUIRE(cfg.period_s > 0, "checkpoint period must be positive");
  MASSF_REQUIRE(cfg.first_s >= 0, "first checkpoint time must be >= 0");
  MASSF_REQUIRE(cfg.keep >= 1, "must keep at least one snapshot");
  MASSF_REQUIRE(horizon > 0, "run horizon must be positive");
  ckpt_cfg_ = cfg;
  ckpt_enabled_ = true;
  ckpt_seq_ = cfg.first_seq;
  ckpt_times_.clear();
  ckpt_cursor_ = 0;
  const double first = cfg.first_s > 0 ? cfg.first_s : cfg.period_s;
  for (double t = first; t < horizon; t += cfg.period_s) {
    ckpt_times_.push_back(t);
    kernel_->add_safepoint(t);
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.dir, ec);
  MASSF_REQUIRE(!ec, "cannot create checkpoint directory '"
                         << cfg.dir << "': " << ec.message());
}

void Emulator::write_checkpoint(SimTime t) {
  ckpt::maybe_crash("before-checkpoint");
  ckpt::Writer w;
  serialize(w, *this, t, ckpt_cfg_.save_extra);
  const std::uint64_t seq = ckpt_seq_++;
  const std::string path =
      ckpt_cfg_.dir + "/" + ckpt::checkpoint_filename(seq);
  w.commit(path);  // fsync + rename; the mid-write crash hook fires inside
  ++ckpt_written_;
  const auto snapshots = ckpt::list_checkpoints(ckpt_cfg_.dir);
  if (snapshots.size() > static_cast<std::size_t>(ckpt_cfg_.keep)) {
    const std::size_t drop =
        snapshots.size() - static_cast<std::size_t>(ckpt_cfg_.keep);
    for (std::size_t i = 0; i < drop; ++i) {
      std::error_code ec;
      std::filesystem::remove(snapshots[i].second, ec);  // prune best-effort
    }
  }
  if (ckpt_cfg_.on_checkpoint) ckpt_cfg_.on_checkpoint(seq, path);
  ckpt::maybe_crash("after-checkpoint");
}

template <class Io, class Self, class Event>
void Emulator::serialize_payload(Io& io, Self& self, Event& e) {
  MASSF_REQUIRE(io.same_u8(1),
                "snapshot pending event at node "
                    << e.node << " carries no packet payload — the snapshot "
                    << "is corrupt");
  auto* p = static_cast<Packet*>(e.payload);
  if constexpr (Io::kLoading) {
    p = self.pool_.acquire(/*shard=*/0);  // restore is single-threaded setup
    e.payload = p;
  }
  io.i64(p->src);
  io.i64(p->dst);
  io.f64(p->bytes);
  io.i64(p->packets);
  io.i64(p->ttl);
  io.u8(p->kind);
  MASSF_REQUIRE(p->kind <= PacketKind::CtrlEpoch,
                "snapshot carries an unknown packet kind ("
                    << static_cast<int>(p->kind)
                    << ") — it was written by an incompatible build");
  // Packet hops arrive at their node; control events may be keyless (-1).
  MASSF_REQUIRE(e.node >= (is_control(p->kind) ? -1 : 0) &&
                    e.node < self.network_.node_count(),
                "snapshot pending event targets node "
                    << e.node << " outside this network's "
                    << self.network_.node_count()
                    << " nodes — the snapshot is corrupt");
  // Delivery and control dispatch index host state with these ids. Wire
  // packets name both hosts; control events name their host in dst, except
  // the host-less epoch boundary.
  const auto is_host = [&](NodeId v) {
    return v >= 0 && v < self.network_.node_count();
  };
  MASSF_REQUIRE(is_control(p->kind)
                    ? p->kind == PacketKind::CtrlEpoch || is_host(p->dst)
                    : is_host(p->src) && is_host(p->dst),
                "snapshot pending event at node "
                    << e.node << " names packet hosts " << p->src << " → "
                    << p->dst << " outside this network's "
                    << self.network_.node_count()
                    << " nodes — the snapshot is corrupt");
  io.u8(p->has_message);
  io.u64(p->flow);
  io.u64(p->probe_id);
  io.i64(p->reporter);
  io.i64(p->via);
  MASSF_REQUIRE(p->via >= -1 && p->via < self.network_.link_count(),
                "snapshot pending event at node "
                    << e.node << " rides link " << p->via
                    << " outside this network's " << self.network_.link_count()
                    << " links — the snapshot is corrupt");
  if constexpr (Io::kLoading) {
    // The lane hints (not part of the snapshot) transmit() and
    // send_reliable() gave the event: a hop rides the direction of `via`
    // that ends at its node; a timeout rides its host's lane unless its
    // message was already retransmitted (a re-arm, loose). Host state is
    // restored before the events.
    if (!is_control(p->kind) && p->via >= 0) {
      e.lane = self.lanes_.link_direction(
          p->via, self.network_.link(p->via).b == e.node ? 0 : 1);
    } else if (p->kind == PacketKind::CtrlReliableTimeout) {
      const PendingReliable* const pending =
          self.host_state_[static_cast<std::size_t>(p->dst)].pending.find(
              p->probe_id);
      if (pending == nullptr || pending->attempts == 1)
        e.lane = self.lanes_.host_timeouts(p->dst);
    }
  }
  if (p->has_message) {
    auto& m = p->message;
    io.i64(m.src);
    io.i64(m.dst);
    MASSF_REQUIRE(is_host(m.src) && is_host(m.dst),
                  "snapshot pending event at node "
                      << e.node << " names message hosts " << m.src << " → "
                      << m.dst << " outside this network's "
                      << self.network_.node_count()
                      << " nodes — the snapshot is corrupt");
    io.f64(m.bytes);
    io.i64(m.tag);
    io.u64(m.id);
    io.f64(m.sent_at);
    io.f64(m.delivered_at);
    io.u8(m.reliable);
    io.u64(m.corr);
  }
}

template <class Io, class Self, class Extra>
void Emulator::serialize(Io& io, Self& self, SimTime& t, const Extra& extra) {
  constexpr bool kLoad = Io::kLoading;
  io.tag(kTagSnapshot, "snapshot header");
  io.f64(t);
  io.tag(kTagEmu, "emulator section");
  MASSF_REQUIRE(
      io.same_u64(self.network_.node_count()),
      "snapshot node count does not match this network — rebuild the "
      "emulator against the checkpointed topology before restoring");
  MASSF_REQUIRE(io.same_u64(self.engines_),
                "snapshot engine count does not match — rebuild the emulator "
                "with the same engine count before restoring");
  io.f64(self.lookahead_);
  for (auto& e : self.node_engine_) {
    io.i64(e);
    MASSF_REQUIRE(e >= 0 && e < self.engines_,
                  "snapshot node→engine assignment is corrupt");
  }
  for (auto& s : self.host_state_) {
    io.u64(s.message_counter);
    io.u64(s.trains_injected);
    io.u64(s.trains_delivered);
    io.u64(s.trains_dropped_fault);
    io.u64(s.trains_dropped_unreachable);
    io.u64(s.trains_expired);
    io.u64(s.icmp_unreachable_sent);
    io.u64(s.messages_sent);
    io.u64(s.messages_delivered);
    io.u64(s.reliable_sent);
    io.u64(s.reliable_delivered);
    io.u64(s.reliable_acked);
    io.u64(s.reliable_failed);
    io.u64(s.retransmissions);
    io.u64(s.duplicate_deliveries);
    io.f64(s.bytes_delivered);
    MASSF_REQUIRE(io.same_u8(s.endpoint != nullptr),
                  "snapshot endpoint installation does not match — install "
                  "the same workload on the rebuilt emulator before "
                  "restoring");
    if (s.endpoint != nullptr) {
      std::vector<std::uint64_t> words;
      if constexpr (!kLoad) s.endpoint->save_state(words);
      io.u64s(words, "emulator section");
      if constexpr (kLoad) s.endpoint->load_state(words);
    }
    // The tables are written sorted by key, so equal contents give equal
    // bytes whatever the insert/erase history (DESIGN.md §9).
    std::vector<std::pair<std::uint64_t, PendingReliable>> pending;
    std::vector<std::uint64_t> seen;
    if constexpr (!kLoad) {
      pending = s.pending.sorted();
      seen = s.reliable_seen.sorted();
    }
    io.len(pending, kPendingReliableBytes, "emulator section");
    for (auto& [id, rec] : pending) {
      io.u64(id);
      io.i64(rec.dst);
      io.f64(rec.bytes);
      io.i64(rec.tag);
      io.f64(rec.first_sent);
      io.i64(rec.attempts);
      io.u64(rec.corr);
      if constexpr (kLoad) {
        // Retransmission re-sends these fields and re-arms the timeout
        // from them, so each must be one a live send could have made.
        const auto host = static_cast<NodeId>(&s - self.host_state_.data());
        const char* bad = nullptr;
        if (rec.dst < 0 || rec.dst >= self.network_.node_count() ||
            rec.dst == host)
          bad = "dst (an in-range node other than the sender)";
        else if (!std::isfinite(rec.bytes) || rec.bytes <= 0)
          bad = "bytes (finite and > 0)";
        else if (rec.attempts < 1 ||
                 rec.attempts > 1 + self.config_.reliable.max_retries)
          bad = "attempts (in [1, 1 + max_retries])";
        // A setup-time send may be due after the snapshot; a resent one
        // cannot be.
        else if (!std::isfinite(rec.first_sent) || rec.first_sent < 0 ||
                 (rec.attempts > 1 && rec.first_sent > t))
          bad = "first_sent (finite, >= 0, and <= the snapshot time once "
                "resent)";
        if (bad != nullptr) {
          std::ostringstream os;
          os << "snapshot pending reliable message " << id << " of host "
             << host << " has a bad " << bad << ": dst " << rec.dst
             << ", bytes " << rec.bytes << ", attempts " << rec.attempts
             << ", first_sent " << rec.first_sent
             << " — the snapshot is corrupt";
          io.fail(os.str());
        }
      }
    }
    io.u64s(seen, "emulator section");
    if constexpr (kLoad) {
      s.pending.clear();
      for (const auto& [id, rec] : pending) s.pending.try_insert(id, rec);
      s.reliable_seen.clear();
      for (std::uint64_t id : seen) s.reliable_seen.try_insert(id);
    }
  }
  for (auto& v : self.link_next_free_) io.f64(v);
  for (auto& v : self.link_drops_) io.u64(v);
  MASSF_REQUIRE(io.same_u64(self.epoch_cursor_.size()),
                "snapshot epoch cursors do not match this engine count");
  for (auto& c : self.epoch_cursor_) {
    io.u64(c.epoch);
    MASSF_REQUIRE(c.epoch < self.latency_epochs_,
                  "snapshot fault-epoch cursor is corrupt");
  }
  MASSF_REQUIRE(
      io.same_u64(self.epoch_slots_.size()),
      "snapshot fault-epoch table does not match — attach the same fault "
      "timeline before restoring");
  for (auto& slot : self.epoch_slots_) {
    io.u64(slot.dropped_fault);
    io.u64(slot.dropped_unreachable);
    io.u64(slot.icmp_unreachable);
    io.u64(slot.retransmissions);
    io.u64(slot.recovered);
    io.f64(slot.max_recovery_s);
  }
  MASSF_REQUIRE(
      io.same_u64(self.latency_slots_.size()),
      "snapshot latency-histogram table does not match — register the same "
      "latency series (and fault timeline) before restoring");
  for (auto& h : self.latency_slots_) {
    auto counts = h.raw();
    for (std::uint64_t& c : counts) io.u64(c);
    if constexpr (kLoad) h.set_raw(counts);
  }
  io.u64(self.rebalance_stats_.rebalances);
  io.u64(self.rebalance_stats_.nodes_migrated);
  io.f64(self.rebalance_stats_.migration_bytes);
  io.u64(self.rebalance_stats_.events_rehomed);
  io.u64(self.rebalance_stats_.epoch);
  MASSF_REQUIRE(io.same_u8(self.netflow_ != nullptr),
                "snapshot NetFlow collection does not match the config — "
                "rebuild the emulator with collect_netflow set identically");
  if (self.netflow_ != nullptr) io.nested(*self.netflow_);
  if constexpr (kLoad) {
    self.kernel_->restore_checkpoint(
        io,
        [&self](ckpt::Reader& r, des::PacketEvent& e) {
          serialize_payload(r, self, e);
        },
        [&self](void* payload) {
          self.pool_.release(/*shard=*/0, static_cast<Packet*>(payload));
        });
  } else {
    self.kernel_->save_checkpoint(
        io, [&self](ckpt::Writer& w, const des::PacketEvent& e) {
          serialize_payload(w, self, e);
        });
  }
  io.tag(kTagEmuEnd, "emulator trailer");
  bool has_extra = static_cast<bool>(extra);
  io.u8(has_extra);
  if (has_extra) {
    MASSF_REQUIRE(static_cast<bool>(extra),
                  "snapshot carries a save_extra section but no load_extra "
                  "was supplied to restore()");
    extra(io);
  }
}

void Emulator::checkpoint(ckpt::Writer& w) const {
  MASSF_REQUIRE(kernel_->in_safepoint(),
                "checkpoint() may only run inside a safepoint hook");
  SimTime t = kernel_->now();
  serialize(w, *this, t, ckpt_cfg_.save_extra);
}

SimTime Emulator::restore(
    ckpt::Reader& r, const std::function<void(ckpt::Reader&)>& load_extra) {
  MASSF_REQUIRE(!ran_, "restore() must run before run()");
  SimTime t = 0;
  serialize(r, *this, t, load_extra);
  // Counters no run can produce would otherwise surface only at run end,
  // as an InternalError blaming the program.
  const std::string fault = conservation_fault(fold_stats());
  if (!fault.empty())
    r.fail("snapshot counters: " + fault + " — the snapshot is corrupt");
  return t;
}

const NetFlowCollector& Emulator::netflow() const {
  MASSF_REQUIRE(netflow_ != nullptr,
                "NetFlow collection was disabled in the config");
  return *netflow_;
}

EmulatorStats Emulator::stats() const {
  return final_stats_ ? *final_stats_ : fold_stats();
}

EmulatorStats Emulator::fold_stats() const {
  EmulatorStats out;
  for (const HostState& s : host_state_) {
    out.trains_injected += s.trains_injected;
    out.trains_delivered += s.trains_delivered;
    out.trains_dropped_fault += s.trains_dropped_fault;
    out.trains_dropped_unreachable += s.trains_dropped_unreachable;
    out.trains_expired += s.trains_expired;
    out.icmp_unreachable_sent += s.icmp_unreachable_sent;
    out.messages_sent += s.messages_sent;
    out.messages_delivered += s.messages_delivered;
    out.reliable_messages_sent += s.reliable_sent;
    out.reliable_messages_delivered += s.reliable_delivered;
    out.reliable_messages_acked += s.reliable_acked;
    out.reliable_messages_failed += s.reliable_failed;
    out.retransmissions += s.retransmissions;
    out.duplicate_deliveries += s.duplicate_deliveries;
    out.bytes_delivered += s.bytes_delivered;
  }
  // trains_dropped is *defined* as the drop-tail ledger: the sum of the
  // per-direction link_drops_ slots, nothing else folded in.
  for (std::uint64_t d : link_drops_) out.trains_dropped += d;
  return out;
}

std::string Emulator::conservation_fault(const EmulatorStats& folded) const {
  std::ostringstream os;
  // `total` minus each part, or false once the parts exceed it (the
  // subtraction form cannot wrap around, whatever a snapshot holds).
  const auto take = [](std::uint64_t& total,
                       std::initializer_list<std::uint64_t> parts) {
    for (const std::uint64_t part : parts) {
      if (part > total) return false;
      total -= part;
    }
    return true;
  };
  for (const HostState& s : host_state_) {
    const auto host = &s - host_state_.data();
    std::uint64_t unsettled = s.reliable_sent;
    if (!take(unsettled, {s.reliable_acked, s.reliable_failed}) ||
        unsettled != s.pending.size()) {
      os << "host " << host << " sent " << s.reliable_sent
         << " reliable messages but " << s.reliable_acked << " were acked, "
         << s.reliable_failed << " failed and " << s.pending.size()
         << " are pending — a reliable message was lost or settled twice";
      return os.str();
    }
    if (s.reliable_seen.size() != s.reliable_delivered) {
      os << "host " << host << " delivered " << s.reliable_delivered
         << " reliable messages but has seen " << s.reliable_seen.size()
         << " message ids — exactly-once delivery is broken";
      return os.str();
    }
  }
  if (folded.reliable_messages_acked > folded.reliable_messages_delivered ||
      folded.reliable_messages_delivered > folded.reliable_messages_sent) {
    os << "reliable messages: " << folded.reliable_messages_acked
       << " acked, " << folded.reliable_messages_delivered << " delivered, "
       << folded.reliable_messages_sent
       << " sent — an ACK without a delivery or a delivery without a send";
    return os.str();
  }
  // Every wire packet (train, probe or reply) rides exactly one pending
  // kernel event until it settles; control events carry none.
  std::uint64_t in_flight = 0;
  kernel_->for_each_pending([&in_flight](const des::PacketEvent& e) {
    if (!is_control(static_cast<const Packet*>(e.payload)->kind))
      ++in_flight;
  });
  std::uint64_t unsettled = folded.trains_injected;
  if (!take(unsettled,
            {folded.trains_delivered, folded.trains_dropped,
             folded.trains_dropped_fault, folded.trains_dropped_unreachable,
             folded.trains_expired}) ||
      unsettled != in_flight) {
    os << folded.trains_injected << " trains were injected but "
       << folded.trains_delivered << " delivered, " << folded.trains_dropped
       << " dropped by queues, " << folded.trains_dropped_fault
       << " by faults, " << folded.trains_dropped_unreachable
       << " unreachable, " << folded.trains_expired << " expired and "
       << in_flight << " are in flight — train conservation is broken";
    return os.str();
  }
  return {};
}

std::vector<EpochStats> Emulator::epoch_stats() const {
  std::vector<EpochStats> out;
  if (faults_ == nullptr) return out;
  const auto engines = static_cast<std::size_t>(engines_);
  out.resize(faults_->epoch_count());
  for (std::size_t e = 0; e < faults_->epoch_count(); ++e) {
    EpochStats& stats = out[e];
    const fault::FaultTimeline::Epoch& epoch = faults_->epoch(e);
    stats.start = epoch.start;
    stats.end = e + 1 < faults_->epoch_count() ? faults_->epoch(e + 1).start
                                               : std::max(run_until_,
                                                          epoch.start);
    stats.links_down = epoch.links_down;
    stats.nodes_down = epoch.nodes_down;
    for (std::size_t lp = 0; lp < engines; ++lp) {
      const EpochCounters& slot = epoch_slots_[e * engines + lp];
      stats.trains_dropped_fault += slot.dropped_fault;
      stats.trains_dropped_unreachable += slot.dropped_unreachable;
      stats.icmp_unreachable_sent += slot.icmp_unreachable;
      stats.retransmissions += slot.retransmissions;
      stats.reliable_recovered += slot.recovered;
      stats.max_recovery_s = std::max(stats.max_recovery_s,
                                      slot.max_recovery_s);
    }
  }
  return out;
}

}  // namespace massf::emu
