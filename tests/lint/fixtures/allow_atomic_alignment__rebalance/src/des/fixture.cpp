// massf-check fixture: MUST be clean.
// The sanctioned shape of a rebalance-monitor gauge: the cross-thread
// gauge owns its cache line via member alignas(64), so safepoint-hook
// stores never falsely share with the sliding-window bookkeeping next
// to it.
#include <atomic>
#include <cstddef>
#include <deque>

struct Sample {
  double t = 0;
  double events = 0;
};

class Monitor {
 public:
  void publish(double imbalance) {
    gauge_.store(imbalance, std::memory_order_relaxed);
  }
  double gauge() const {
    return gauge_.load(std::memory_order_relaxed);
  }

 private:
  std::deque<Sample> history_;
  alignas(64) std::atomic<double> gauge_{1.0};
};
