#include "traffic/http.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

#include "util/rng.hpp"

namespace massf::traffic {

namespace {

// Tag layout: kTagGet+session for requests, kTagResponse+session for the
// matching responses (session = index of the client's server list).
constexpr int kTagGet = 100000;
constexpr int kTagResponse = 200000;

/// Pareto shape of response sizes (Barford–Crovella-style heavy tail).
constexpr double kParetoShape = 1.5;

/// Client endpoint driving one independent browsing session per assigned
/// server: request → (wait for response) → think → request ...
/// A host that was drawn as the client of several servers runs all those
/// sessions concurrently from one endpoint.
class HttpClient : public emu::AppEndpoint {
 public:
  HttpClient(std::vector<NodeId> servers, const HttpParams& params,
             std::uint64_t seed)
      : servers_(std::move(servers)), params_(params), rng_(seed) {}

  void start(emu::AppApi& api) override {
    // Staggered starts desynchronize the session population.
    for (std::size_t session = 0; session < servers_.size(); ++session)
      arm(api, session, rng_.next_double(0, params_.think_time_s));
  }

  void receive(emu::AppApi& api, const emu::AppMessage& message) override {
    if (message.tag < kTagResponse) return;
    const auto session = static_cast<std::size_t>(message.tag - kTagResponse);
    if (session >= servers_.size()) return;
    if (api.now() >= params_.duration_s) return;  // session over
    arm(api, session, rng_.next_exponential(params_.think_time_s));
  }

  /// Timer tag = session index: the think time elapsed, issue the GET.
  void on_timer(emu::AppApi& api, std::int64_t tag) override {
    if (api.now() >= params_.duration_s) return;
    const auto session = static_cast<std::size_t>(tag);
    api.send(servers_[session], params_.get_bytes,
             kTagGet + static_cast<int>(session));
  }

  void save_state(std::vector<std::uint64_t>& out) const override {
    for (std::uint64_t word : rng_.state()) out.push_back(word);
  }

  void load_state(const std::vector<std::uint64_t>& in) override {
    MASSF_REQUIRE(in.size() == 4,
                  "HTTP client snapshot state must be 4 RNG words");
    rng_.set_state({in[0], in[1], in[2], in[3]});
  }

 private:
  void arm(emu::AppApi& api, std::size_t session, double delay) {
    api.set_timer(delay, static_cast<std::int64_t>(session));
  }

  std::vector<NodeId> servers_;
  HttpParams params_;
  Rng rng_;
};

/// Server endpoint: GET → heavy-tailed response to the requester.
class HttpServer : public emu::AppEndpoint {
 public:
  HttpServer(const HttpParams& params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  void receive(emu::AppApi& api, const emu::AppMessage& message) override {
    if (message.tag < kTagGet || message.tag >= kTagResponse) return;
    const int session = message.tag - kTagGet;
    // Pareto with mean == request_size: scale = mean*(shape-1)/shape.
    const double scale =
        params_.request_size_bytes * (kParetoShape - 1.0) / kParetoShape;
    double bytes = rng_.next_pareto(kParetoShape, scale);
    // Cap the tail so one flow cannot dominate an entire run.
    bytes = std::min(bytes, 50.0 * params_.request_size_bytes);
    api.send(message.src, bytes, kTagResponse + session);
  }

  void save_state(std::vector<std::uint64_t>& out) const override {
    for (std::uint64_t word : rng_.state()) out.push_back(word);
  }

  void load_state(const std::vector<std::uint64_t>& in) override {
    MASSF_REQUIRE(in.size() == 4,
                  "HTTP server snapshot state must be 4 RNG words");
    rng_.set_state({in[0], in[1], in[2], in[3]});
  }

 private:
  HttpParams params_;
  Rng rng_;
};

}  // namespace

HttpBackground::HttpBackground(const topology::Network& network,
                               HttpParams params,
                               std::vector<NodeId> excluded)
    : params_(params) {
  MASSF_REQUIRE(params_.server_number >= 1, "need at least one server");
  MASSF_REQUIRE(params_.clients_per_server >= 1,
                "need at least one client per server");
  Rng rng(params_.seed);
  std::vector<NodeId> hosts;
  for (NodeId h : network.hosts())
    if (std::find(excluded.begin(), excluded.end(), h) == excluded.end())
      hosts.push_back(h);
  MASSF_REQUIRE(hosts.size() >= 2,
                "network needs at least two non-excluded hosts");
  rng.shuffle(hosts);

  const int servers =
      std::min<int>(params_.server_number,
                    static_cast<int>(hosts.size()) / 2);
  // Distribute the total session population across servers by Zipf
  // popularity (rank 0 = most popular), keeping the configured average of
  // clients_per_server sessions per server.
  const int total_sessions = servers * params_.clients_per_server;
  std::vector<double> popularity(static_cast<std::size_t>(servers));
  double popularity_sum = 0;
  for (int s = 0; s < servers; ++s) {
    popularity[static_cast<std::size_t>(s)] =
        1.0 / std::pow(static_cast<double>(s + 1), params_.zipf_exponent);
    popularity_sum += popularity[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < servers; ++s) {
    const NodeId server = hosts[static_cast<std::size_t>(s)];
    const int sessions = std::max(
        1, static_cast<int>(popularity[static_cast<std::size_t>(s)] /
                                popularity_sum * total_sessions +
                            0.5));
    for (int c = 0; c < sessions; ++c) {
      // Clients drawn from the remaining hosts (may serve several servers).
      const std::size_t pick =
          static_cast<std::size_t>(servers) +
          rng.next_below(hosts.size() - static_cast<std::size_t>(servers));
      pairs_.emplace_back(hosts[pick], server);
    }
  }
}

void HttpBackground::install(emu::Emulator& emulator) const {
  const std::uint64_t dynamics =
      params_.dynamics_seed != 0 ? params_.dynamics_seed : params_.seed;
  Rng rng(mix_seed(dynamics, 0xbeef));
  const auto n = static_cast<std::size_t>(emulator.network().node_count());
  // One server endpoint per distinct server host; one client endpoint per
  // distinct client host, driving all of that host's sessions concurrently.
  std::vector<char> is_server(n, 0);
  for (const auto& [client, server] : pairs_)
    is_server[static_cast<std::size_t>(server)] = 1;
  for (NodeId host = 0; static_cast<std::size_t>(host) < n; ++host)
    if (is_server[static_cast<std::size_t>(host)])
      emulator.install_endpoint(
          host, std::make_unique<HttpServer>(
                    params_, mix_seed(dynamics,
                                      static_cast<std::uint64_t>(host))));

  std::vector<std::vector<NodeId>> sessions(n);
  for (const auto& [client, server] : pairs_)
    sessions[static_cast<std::size_t>(client)].push_back(server);
  for (NodeId host = 0; static_cast<std::size_t>(host) < n; ++host) {
    auto& list = sessions[static_cast<std::size_t>(host)];
    if (list.empty()) continue;
    MASSF_CHECK(!is_server[static_cast<std::size_t>(host)],
                "a host cannot be both HTTP client and server");
    emulator.install_endpoint(
        host,
        std::make_unique<HttpClient>(
            std::move(list), params_,
            mix_seed(dynamics, static_cast<std::uint64_t>(host) * 31)),
        rng.next_double(0, 1.0));
  }
}

std::vector<Flow> HttpBackground::predicted_background(
    const topology::Network& network) const {
  (void)network;
  // Average per-pair load: one cycle = think + transfer; predicted volume
  // in packets/s of response traffic (requests are negligible but included
  // for symmetry). This is the "average traffic bandwidth between two
  // endpoints" prediction §3.2 expects of generators.
  std::vector<Flow> flows;
  const double cycle = std::max(params_.think_time_s, 1e-3);
  const double response_pps = params_.request_size_bytes / 1500.0 / cycle;
  const double request_pps = params_.get_bytes / 1500.0 / cycle;
  for (const auto& [client, server] : pairs_) {
    flows.push_back({server, client, response_pps});
    flows.push_back({client, server, std::max(request_pps, 0.05)});
  }
  return flows;
}

}  // namespace massf::traffic
