// Measurement probes for the traced benchmark run.
//
// Everything here wraps the program's public API from the outside: spans
// are taken around calls into each layer, routing lookups are counted by a
// forwarding RoutingView, and application upcalls are timed by a
// forwarding AppEndpoint. None of them changes what the emulator computes,
// so a traced run reproduces the untraced history_hash.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "emu/app.hpp"
#include "routing/routing.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

/// One timed interval. `parent` indexes the enclosing span (-1 = root).
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;
  double seconds() const { return seconds_between(start, end); }
};

/// In-memory span log, written out once as Chrome trace-event JSON.
class SpanLog {
 public:
  /// Open a span under the innermost open span; returns its index.
  int open(const std::string& name);
  void close(int index);
  /// Record an already finished interval under `parent`.
  int add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  /// Index of the innermost open span (-1 when none is open).
  int current() const { return stack_.empty() ? -1 : stack_.back(); }
  /// Sum of the durations of `parent`'s direct children.
  double children_seconds(int parent) const;
  /// First span with this name, or -1.
  int find(const std::string& name) const;
  double seconds(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds from the
  /// first span's start). `other_data` is a JSON object placed verbatim
  /// under "otherData".
  std::string chrome_json(const std::string& other_data) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name)
      : log_(log), index_(log.open(name)) {}
  ~ScopedSpan() { log_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Counts and samples the routing lookups made through CountingView while
/// `counting` is set. The sample keeps every stride-th call, halving itself
/// and doubling the stride when full, so it covers the whole run evenly.
struct LookupLog {
  struct Lookup {
    const massf::routing::RoutingView* view = nullptr;
    massf::topology::NodeId src = -1;
    massf::topology::NodeId dst = -1;
    bool link = false;
  };
  static constexpr std::size_t kMaxSample = 1 << 15;

  bool counting = false;
  std::uint64_t next_hop_calls = 0;
  std::uint64_t next_link_calls = 0;
  std::uint64_t stride = 1;
  std::vector<Lookup> sample;

  std::uint64_t calls() const { return next_hop_calls + next_link_calls; }
  void record(const massf::routing::RoutingView* view,
              massf::topology::NodeId src, massf::topology::NodeId dst,
              bool link);
  /// Mean wall nanoseconds per sampled lookup, replayed against the real
  /// views (median of `reps` passes over the sample). The views must still
  /// be alive.
  double replay_ns(int reps) const;
};

/// Forwarding RoutingView that reports every next_hop/next_link call to a
/// LookupLog. Single-threaded use only (the benchmark runs Sequential).
class CountingView final : public massf::routing::RoutingView {
 public:
  CountingView(std::shared_ptr<const massf::routing::RoutingView> inner,
               LookupLog& log)
      : inner_(std::move(inner)), log_(log) {}

  massf::topology::NodeId node_count() const override {
    return inner_->node_count();
  }
  massf::topology::NodeId next_hop(massf::topology::NodeId src,
                                   massf::topology::NodeId dst) const override {
    if (log_.counting) {
      ++log_.next_hop_calls;
      log_.record(inner_.get(), src, dst, false);
    }
    return inner_->next_hop(src, dst);
  }
  massf::topology::LinkId next_link(massf::topology::NodeId src,
                                    massf::topology::NodeId dst) const override {
    if (log_.counting) {
      ++log_.next_link_calls;
      log_.record(inner_.get(), src, dst, true);
    }
    return inner_->next_link(src, dst);
  }
  std::size_t memory_bytes() const override { return inner_->memory_bytes(); }

 private:
  std::shared_ptr<const massf::routing::RoutingView> inner_;
  LookupLog& log_;
};

/// Wall time spent inside application upcalls (inclusive of the emulator
/// work the upcall triggers, such as packetizing a send).
struct UpcallLog {
  std::uint64_t upcalls = 0;
  double seconds = 0;
};

/// Forwarding AppEndpoint that times every upcall into `inner`.
class TimedEndpoint final : public massf::emu::AppEndpoint {
 public:
  TimedEndpoint(std::unique_ptr<massf::emu::AppEndpoint> inner, UpcallLog& log)
      : inner_(std::move(inner)), log_(log) {}

  void start(massf::emu::AppApi& api) override {
    const auto t0 = Clock::now();
    inner_->start(api);
    charge(t0);
  }
  void receive(massf::emu::AppApi& api,
               const massf::emu::AppMessage& message) override {
    const auto t0 = Clock::now();
    inner_->receive(api, message);
    charge(t0);
  }
  void on_timer(massf::emu::AppApi& api, std::int64_t tag) override {
    const auto t0 = Clock::now();
    inner_->on_timer(api, tag);
    charge(t0);
  }
  void on_send_failed(massf::emu::AppApi& api,
                      const massf::emu::AppMessage& message) override {
    const auto t0 = Clock::now();
    inner_->on_send_failed(api, message);
    charge(t0);
  }
  void save_state(std::vector<std::uint64_t>& out) const override {
    inner_->save_state(out);
  }
  void load_state(const std::vector<std::uint64_t>& in) override {
    inner_->load_state(in);
  }

 private:
  void charge(Clock::time_point t0) {
    ++log_.upcalls;
    log_.seconds += seconds_between(t0, Clock::now());
  }

  std::unique_ptr<massf::emu::AppEndpoint> inner_;
  UpcallLog& log_;
};

}  // namespace perfbench
