#include "app/rpc.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace massf::app {

namespace {

std::uint64_t u64_of_f64(double v) {
  std::uint64_t word;
  static_assert(sizeof(word) == sizeof(v));
  __builtin_memcpy(&word, &v, sizeof(word));
  return word;
}

double f64_of_u64(std::uint64_t word) {
  double v;
  __builtin_memcpy(&v, &word, sizeof(v));
  return v;
}

}  // namespace

// ---- ServerEndpoint --------------------------------------------------------

ServerEndpoint::ServerEndpoint(ServerParams params)
    : params_(std::move(params)) {
  MASSF_REQUIRE(params_.workers >= 1, "server needs >= 1 worker");
  MASSF_REQUIRE(params_.mean_s > 0, "service mean must be positive");
  worker_free_.assign(static_cast<std::size_t>(params_.workers), 0.0);
}

void ServerEndpoint::start(emu::AppApi& api) {
  // Per-host stream: two servers with the same params draw independently.
  rng_.reseed(mix_seed(params_.seed, static_cast<std::uint64_t>(api.self())));
}

void ServerEndpoint::receive(emu::AppApi& api,
                             const emu::AppMessage& message) {
  MASSF_REQUIRE(message.tag == kTagRequest,
                "server received a non-request message");
  // Earliest-free worker, lowest index on ties: FIFO queueing whose delay
  // grows with backlog — the signal load-aware policies exploit.
  std::size_t worker = 0;
  for (std::size_t w = 1; w < worker_free_.size(); ++w)
    if (worker_free_[w] < worker_free_[worker]) worker = w;
  const double now = api.now();
  const double begin = std::max(now, worker_free_[worker]);
  const double done = begin + rng_.next_exponential(params_.mean_s);
  worker_free_[worker] = done;
  const std::uint64_t job = ++job_seq_;
  jobs_.try_insert(job, Job{message.src, message.corr});
  api.set_timer(done - now, static_cast<std::int64_t>(job));
}

void ServerEndpoint::on_timer(emu::AppApi& api, std::int64_t tag) {
  const auto seq = static_cast<std::uint64_t>(tag);
  const Job* const found = jobs_.find(seq);
  MASSF_REQUIRE(found != nullptr, "server timer for unknown job");
  const Job job = *found;
  jobs_.erase(seq);
  if (params_.reliable)
    api.send_reliable(job.reply_to, params_.response_bytes, kTagResponse,
                      job.corr);
  else
    api.send(job.reply_to, params_.response_bytes, kTagResponse, job.corr);
}

void ServerEndpoint::save_state(std::vector<std::uint64_t>& out) const {
  for (std::uint64_t w : rng_.state()) out.push_back(w);
  out.push_back(job_seq_);
  for (double f : worker_free_) out.push_back(u64_of_f64(f));
  // Slot order depends on the insert/erase history; serialize sorted by
  // key.
  const auto jobs = jobs_.sorted();
  out.push_back(jobs.size());
  for (const auto& [seq, job] : jobs) {
    out.push_back(seq);
    out.push_back(static_cast<std::uint64_t>(job.reply_to));
    out.push_back(job.corr);
  }
}

void ServerEndpoint::load_state(const std::vector<std::uint64_t>& in) {
  std::size_t i = 0;
  const auto next = [&] {
    MASSF_REQUIRE(i < in.size(), "server snapshot state truncated");
    return in[i++];
  };
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& w : rng_state) w = next();
  rng_.set_state(rng_state);
  job_seq_ = next();
  for (double& f : worker_free_) f = f64_of_u64(next());
  const std::uint64_t jobs = next();
  jobs_.clear();
  for (std::uint64_t j = 0; j < jobs; ++j) {
    const std::uint64_t seq = next();
    Job job;
    job.reply_to = static_cast<NodeId>(next());
    job.corr = next();
    jobs_.try_insert(seq, job);
  }
  MASSF_REQUIRE(i == in.size(), "server snapshot state has extra words");
}

// ---- LoadBalancerEndpoint --------------------------------------------------

LoadBalancerEndpoint::LoadBalancerEndpoint(
    LoadBalancerParams params, std::shared_ptr<LbCounters> counters)
    : params_(std::move(params)), counters_(std::move(counters)) {
  MASSF_REQUIRE(!params_.backends.empty(), "load balancer needs backends");
  std::vector<std::uint64_t> ids;
  ids.reserve(params_.backends.size());
  for (NodeId backend : params_.backends)
    ids.push_back(static_cast<std::uint64_t>(backend));
  policy_ = make_policy(params_.policy, std::move(ids), params_.policy_config);
  if (counters_ == nullptr) counters_ = std::make_shared<LbCounters>();
}

// massf-check: hot-path-root
void LoadBalancerEndpoint::receive(emu::AppApi& api,
                                   const emu::AppMessage& message) {
  const double now = api.now();
  if (message.tag == kTagRequest) {
    // Key on (client host, user id) so affinity policies distinguish the
    // whole simulated user population, not just the client hosts.
    const std::uint64_t key =
        mix_seed(static_cast<std::uint64_t>(message.src),
                 corr_user(message.corr));
    const std::size_t backend = policy_->pick(key, now);
    const std::uint64_t flight = ++flight_seq_;
    inflight_.try_insert(flight,
                         Flight{message.src, message.corr, message.bytes, now,
                                static_cast<std::uint32_t>(backend)});
    policy_->on_start(backend, now);
    ++counters_->requests_forwarded;
    if (params_.reliable)
      api.send_reliable(params_.backends[backend], message.bytes, kTagRequest,
                        flight);
    else
      api.send(params_.backends[backend], message.bytes, kTagRequest, flight);
    return;
  }
  MASSF_REQUIRE(message.tag == kTagResponse,
                "load balancer received a non-RPC message");
  const Flight* const found = inflight_.find(message.corr);
  if (found == nullptr) {
    // The flight was written off (reliable retries exhausted on lost ACKs)
    // but a copy of the request had been delivered anyway.
    ++counters_->stale_responses;
    return;
  }
  const Flight flight = *found;
  inflight_.erase(message.corr);
  policy_->on_finish(flight.backend, now, now - flight.t0);
  ++counters_->responses_relayed;
  if (params_.reliable)
    api.send_reliable(flight.client, message.bytes, kTagResponse,
                      flight.client_corr);
  else
    api.send(flight.client, message.bytes, kTagResponse, flight.client_corr);
}

void LoadBalancerEndpoint::on_send_failed(emu::AppApi& api,
                                          const emu::AppMessage& message) {
  if (message.tag == kTagResponse) {
    // LB → client relay failed; the flight is already closed.
    ++counters_->relay_errors;
    return;
  }
  const Flight* const found = inflight_.find(message.corr);
  if (found == nullptr) return;
  policy_->on_error(found->backend, api.now());
  inflight_.erase(message.corr);
  ++counters_->backend_errors;
}

void LoadBalancerEndpoint::save_state(std::vector<std::uint64_t>& out) const {
  out.push_back(flight_seq_);
  std::vector<std::uint64_t> policy_words;
  policy_->save_state(policy_words);
  out.push_back(policy_words.size());
  for (std::uint64_t w : policy_words) out.push_back(w);
  const auto flights = inflight_.sorted();
  out.push_back(flights.size());
  for (const auto& [seq, f] : flights) {
    out.push_back(seq);
    out.push_back(static_cast<std::uint64_t>(f.client));
    out.push_back(f.client_corr);
    out.push_back(u64_of_f64(f.bytes));
    out.push_back(u64_of_f64(f.t0));
    out.push_back(f.backend);
  }
  out.push_back(counters_->requests_forwarded);
  out.push_back(counters_->responses_relayed);
  out.push_back(counters_->backend_errors);
  out.push_back(counters_->relay_errors);
  out.push_back(counters_->stale_responses);
}

void LoadBalancerEndpoint::load_state(const std::vector<std::uint64_t>& in) {
  std::size_t i = 0;
  const auto next = [&] {
    MASSF_REQUIRE(i < in.size(), "LB snapshot state truncated");
    return in[i++];
  };
  flight_seq_ = next();
  const std::uint64_t policy_count = next();
  MASSF_REQUIRE(policy_count <= in.size() - i, "LB snapshot state truncated");
  std::vector<std::uint64_t> policy_words(policy_count);
  for (std::uint64_t& w : policy_words) w = next();
  policy_->load_state(policy_words);
  const std::uint64_t flights = next();
  inflight_.clear();
  for (std::uint64_t n = 0; n < flights; ++n) {
    const std::uint64_t seq = next();
    Flight f;
    f.client = static_cast<NodeId>(next());
    f.client_corr = next();
    f.bytes = f64_of_u64(next());
    f.t0 = f64_of_u64(next());
    f.backend = static_cast<std::uint32_t>(next());
    inflight_.try_insert(seq, f);
  }
  counters_->requests_forwarded = next();
  counters_->responses_relayed = next();
  counters_->backend_errors = next();
  counters_->relay_errors = next();
  counters_->stale_responses = next();
  MASSF_REQUIRE(i == in.size(), "LB snapshot state has extra words");
}

// ---- ClientEndpoint --------------------------------------------------------

ClientEndpoint::ClientEndpoint(ClientParams params,
                               std::shared_ptr<ClientCounters> counters)
    : params_(std::move(params)), counters_(std::move(counters)) {
  MASSF_REQUIRE(params_.lb >= 0, "client needs a load-balancer host");
  MASSF_REQUIRE(params_.users >= 1, "client aggregates >= 1 user");
  MASSF_REQUIRE(params_.rate_per_user > 0, "request rate must be positive");
  MASSF_REQUIRE(params_.duration_s > 0, "duration must be positive");
  if (counters_ == nullptr) counters_ = std::make_shared<ClientCounters>();
}

void ClientEndpoint::start(emu::AppApi& api) {
  rng_.reseed(mix_seed(params_.seed, static_cast<std::uint64_t>(api.self())));
  arm_next(api);
}

void ClientEndpoint::arm_next(emu::AppApi& api) {
  // Superposed Poisson arrivals: rate = users × rate_per_user, so one
  // exponential-gap timer chain stands in for the whole user population.
  const double rate =
      static_cast<double>(params_.users) * params_.rate_per_user;
  const double gap = rng_.next_exponential(1.0 / rate);
  if (api.now() + gap <= params_.duration_s) api.set_timer(gap, 0);
}

void ClientEndpoint::on_timer(emu::AppApi& api, std::int64_t tag) {
  (void)tag;
  const std::uint64_t user =
      params_.user_base +
      rng_.next_below(static_cast<std::uint64_t>(params_.users));
  const std::uint64_t corr = pack_corr(user, seq_++);
  outstanding_.try_insert(corr, api.now());
  ++counters_->requests_sent;
  if (params_.reliable)
    api.send_reliable(params_.lb, params_.request_bytes, kTagRequest, corr);
  else
    api.send(params_.lb, params_.request_bytes, kTagRequest, corr);
  arm_next(api);
}

// massf-check: determinism-root
void ClientEndpoint::receive(emu::AppApi& api,
                             const emu::AppMessage& message) {
  MASSF_REQUIRE(message.tag == kTagResponse,
                "client received a non-response message");
  const double* const sent_at = outstanding_.find(message.corr);
  if (sent_at == nullptr) {
    ++counters_->stale_responses;
    return;
  }
  api.record_latency(params_.series, api.now() - *sent_at);
  outstanding_.erase(message.corr);
  ++counters_->responses_received;
}

void ClientEndpoint::on_send_failed(emu::AppApi& api,
                                    const emu::AppMessage& message) {
  (void)api;
  if (message.tag != kTagRequest) return;
  if (!outstanding_.erase(message.corr)) return;
  ++counters_->send_failures;
}

void ClientEndpoint::save_state(std::vector<std::uint64_t>& out) const {
  for (std::uint64_t w : rng_.state()) out.push_back(w);
  out.push_back(seq_);
  const auto pending = outstanding_.sorted();
  out.push_back(pending.size());
  for (const auto& [corr, t0] : pending) {
    out.push_back(corr);
    out.push_back(u64_of_f64(t0));
  }
  out.push_back(counters_->requests_sent);
  out.push_back(counters_->responses_received);
  out.push_back(counters_->send_failures);
  out.push_back(counters_->stale_responses);
}

void ClientEndpoint::load_state(const std::vector<std::uint64_t>& in) {
  std::size_t i = 0;
  const auto next = [&] {
    MASSF_REQUIRE(i < in.size(), "client snapshot state truncated");
    return in[i++];
  };
  std::array<std::uint64_t, 4> rng_state{};
  for (std::uint64_t& w : rng_state) w = next();
  rng_.set_state(rng_state);
  seq_ = next();
  const std::uint64_t pending = next();
  outstanding_.clear();
  for (std::uint64_t n = 0; n < pending; ++n) {
    const std::uint64_t corr = next();
    outstanding_.try_insert(corr, f64_of_u64(next()));
  }
  counters_->requests_sent = next();
  counters_->responses_received = next();
  counters_->send_failures = next();
  counters_->stale_responses = next();
  MASSF_REQUIRE(i == in.size(), "client snapshot state has extra words");
}

}  // namespace massf::app
