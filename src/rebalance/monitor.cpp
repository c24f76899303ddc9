#include "rebalance/monitor.hpp"

#include "emu/emulator.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace massf::rebalance {

LoadMonitor::LoadMonitor(double window_s) : window_s_(window_s) {
  MASSF_REQUIRE(window_s > 0, "monitor window must be positive");
}

void LoadMonitor::reset(double window_s) {
  MASSF_REQUIRE(window_s > 0, "monitor window must be positive");
  window_s_ = window_s;
  history_.clear();
}

void LoadMonitor::sample(const emu::Emulator& emulator, SimTime t) {
  MASSF_REQUIRE(history_.empty() || t > history_.back().t,
                "samples must be taken at increasing times");
  LoadSample s;
  s.t = t;
  s.engine_events = emulator.engine_event_counts();
  if (emulator.collects_netflow()) {
    s.node_packets = emulator.netflow().node_packets();
    s.link_packets = emulator.netflow().link_packets();
  }
  history_.push_back(std::move(s));
  // Retain the window plus the sample that anchors its far edge.
  while (history_.size() > 2 &&
         history_.front().t < history_.back().t - window_s_ &&
         history_[1].t <= history_.back().t - window_s_) {
    history_.pop_front();
  }
}

std::vector<double> LoadMonitor::window_rate(
    std::vector<double> LoadSample::* field) const {
  if (history_.size() < 2) return {};
  const LoadSample& oldest = history_.front();
  const LoadSample& newest = history_.back();
  const std::vector<double>& a = oldest.*field;
  const std::vector<double>& b = newest.*field;
  if (a.empty() || b.empty()) return {};
  MASSF_CHECK(a.size() == b.size(), "counter vectors changed size");
  const double dt = newest.t - oldest.t;
  std::vector<double> rates(b.size(), 0.0);
  if (dt <= 0) return rates;
  for (std::size_t i = 0; i < b.size(); ++i)
    rates[i] = std::max(0.0, b[i] - a[i]) / dt;
  return rates;
}

std::vector<double> LoadMonitor::engine_rates() const {
  return window_rate(&LoadSample::engine_events);
}

std::vector<double> LoadMonitor::node_rates() const {
  return window_rate(&LoadSample::node_packets);
}

std::vector<double> LoadMonitor::link_rates() const {
  return window_rate(&LoadSample::link_packets);
}

double LoadMonitor::imbalance() const {
  const std::vector<double> rates = engine_rates();
  if (rates.empty()) return 1.0;
  return max_over_mean(rates);
}

double LoadMonitor::observed_event_rate() const {
  double total = 0;
  for (double r : engine_rates()) total += r;
  return total;
}

namespace {
constexpr std::uint32_t kTagMonitor = 0x6d6f6e69;  // "moni"
// Minimum encoded size of one sample: its time and three vector lengths.
constexpr std::size_t kSampleBytes = 4 * 8;
}  // namespace

template <class Io, class Self>
void LoadMonitor::serialize(Io& io, Self& self) {
  io.tag(kTagMonitor, "load-monitor section");
  io.f64(self.window_s_);
  MASSF_REQUIRE(self.window_s_ > 0, "snapshot monitor window is corrupt");
  io.len(self.history_, kSampleBytes, "load-monitor section");
  for (auto& s : self.history_) {
    io.f64(s.t);
    io.f64s(s.engine_events, "load-monitor section");
    io.f64s(s.node_packets, "load-monitor section");
    io.f64s(s.link_packets, "load-monitor section");
    const LoadSample& first = self.history_.front();
    MASSF_REQUIRE(s.engine_events.size() == first.engine_events.size() &&
                      s.node_packets.size() == first.node_packets.size() &&
                      s.link_packets.size() == first.link_packets.size(),
                  "snapshot monitor samples disagree in size — the snapshot "
                  "is corrupt");
  }
}

void LoadMonitor::save(ckpt::Writer& w) const { serialize(w, *this); }

void LoadMonitor::load(ckpt::Reader& r) { serialize(r, *this); }

}  // namespace massf::rebalance
