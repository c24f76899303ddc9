// massf-check fixture: MUST trip `atomic-alignment`.
// The rebalance monitor's shape: a cross-thread progress gauge published
// by the safepoint hook while worker threads poll it. Without alignas(64)
// the gauge shares a cache line with the sliding-window bookkeeping the
// hook mutates on every sample, so every poll invalidates the hook's
// working set — false sharing on the exact member meant to be cheap.
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
  std::atomic<double> gauge_{1.0};  // shares a line with history_
};
