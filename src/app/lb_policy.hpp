// Load-balancing policy strategies for the front-end LoadBalancer host
// (src/app/rpc.hpp).
//
// A policy sees the request stream through three upcalls — pick (choose a
// backend), on_start (request dispatched), on_finish/on_error (response or
// failure observed) — and never touches the emulator directly, so the same
// implementations can be unit-tested without a network. All state is owned
// by the LoadBalancer endpoint's host and mutated only on that host's
// engine, keeping threaded runs race-free by the same argument as every
// other endpoint (DESIGN.md §14).
//
// Determinism rules: no RNG in steady state (hashing uses the seeded
// mix_seed chain), all tie-breaks by lowest backend index, and pick/on_*
// bodies are allocation-free so they stay clean under the hot-path-alloc
// analyzer closure rooted at the kernel dispatch loop.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace massf::app {

enum class PolicyKind : std::uint8_t {
  RoundRobin,    // rotate through backends
  LeastRequest,  // fewest outstanding requests
  PeakEwma,      // lowest (peak-decaying EWMA latency) × (outstanding + 1)
  RingHash,      // consistent hashing on a vnode ring (key affinity)
  Maglev,        // Maglev permutation-table consistent hashing
};

const char* policy_name(PolicyKind kind);

struct PolicyConfig {
  /// Peak-EWMA latency decay time constant (seconds).
  double ewma_tau_s = 1.0;
  /// Cold-start latency estimate for backends with no samples yet (keeps
  /// peak-EWMA from dogpiling one untried backend forever).
  double ewma_initial_s = 0.0;
  /// Virtual nodes per backend on the ring.
  int ring_vnodes = 64;
  /// Maglev lookup-table size; must be prime and > backends.
  int maglev_table_size = 65537;
  /// Seed for the hash chains (ring placement, maglev permutations).
  std::uint64_t seed = 0x6c625f706f6cULL;  // "lb_pol"
};

/// Strategy interface. Backends are identified to the policy by stable
/// 64-bit ids fixed at construction; pick() returns an *index* into that
/// id vector. Consistent-hash policies place ids (not indices) on the
/// ring/table, so rebuilding a policy over a backend subset preserves the
/// assignment of keys whose backend survived — the minimal-disruption
/// property the unit tests pin down.
class LbPolicy {
 public:
  virtual ~LbPolicy() = default;

  virtual const char* name() const = 0;

  /// Choose a backend index for a request key at sim time `now`.
  virtual std::size_t pick(std::uint64_t key, double now) = 0;

  /// A request was dispatched to `backend`.
  virtual void on_start(std::size_t backend, double now) {
    (void)backend;
    (void)now;
  }

  /// Its response came back after `latency_s`.
  virtual void on_finish(std::size_t backend, double now, double latency_s) {
    (void)backend;
    (void)now;
    (void)latency_s;
  }

  /// The request failed (reliable-delivery retry budget exhausted).
  virtual void on_error(std::size_t backend, double now) {
    (void)backend;
    (void)now;
  }

  const std::vector<std::uint64_t>& backend_ids() const {
    return backend_ids_;
  }

  /// Checkpoint support, mirroring AppEndpoint::save_state/load_state:
  /// mutable policy state as opaque 64-bit words (doubles bit-cast).
  virtual void save_state(std::vector<std::uint64_t>& out) const {
    (void)out;
  }
  virtual void load_state(const std::vector<std::uint64_t>& in) { (void)in; }

 protected:
  explicit LbPolicy(std::vector<std::uint64_t> backend_ids);

  std::vector<std::uint64_t> backend_ids_;
};

/// Build a policy over the given stable backend ids.
std::unique_ptr<LbPolicy> make_policy(PolicyKind kind,
                                      std::vector<std::uint64_t> backend_ids,
                                      const PolicyConfig& config = {});

}  // namespace massf::app
