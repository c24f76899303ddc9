// massf-check fixture: MUST be clean.
// The sanctioned rebalance-monitor shape: the cross-thread gauge owns its
// cache line via member alignas(64), so safepoint-hook stores never
// falsely share with the sliding-window bookkeeping next to it (this is
// the shape src/rebalance/monitor.hpp uses).
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
    last_imbalance_.store(imbalance, std::memory_order_relaxed);
  }
  double last_imbalance() const {
    return last_imbalance_.load(std::memory_order_relaxed);
  }

 private:
  std::deque<Sample> history_;
  alignas(64) std::atomic<double> last_imbalance_{1.0};
};
