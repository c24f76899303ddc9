// Adaptive spin-then-park waiting primitives shared by the DES kernel's
// worker loop (both SyncMode protocols — DESIGN.md §11).
//
// Yield-polling burns a scheduler quantum per poll and a futex-backed
// barrier pays a syscall per window. Both are wrong defaults for a
// conservative DES: idle spans are usually *short* (a neighbour LP
// publishes its clock within a few hundred nanoseconds) but occasionally
// *long* (a genuinely idle simulation span that only a rendezvous can
// jump). The primitives here split the difference:
//
//   * SpinWait — a bounded cpu_relax() spin that escalates: for the first
//     `spin_budget` iterations it executes a pause instruction (cheap,
//     keeps the core's load port free for the line it is polling); past
//     the budget it tells the caller to park.
//   * WaitSlot — a one-waiter eventcount: the waiter snapshots an epoch,
//     re-checks its predicate, and parks on the epoch word via C++20
//     atomic wait (futex on Linux); signalers bump the epoch and issue the
//     wake syscall only when a waiter actually announced itself, so the
//     signal fast path is one uncontended fetch_add + load.
//   * SpinBarrier — a sense-reversing centralized barrier over the same
//     spin-then-park policy, with a single-threaded completion step. With
//     one participant it completes on arrival, so a single-worker run pays
//     a few uncontended atomics per phase and never waits.
//
// Every busy-wait loop in src/ must go through this header — massf-check's
// busy-wait rule flags raw yield/empty-while polls elsewhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

namespace massf::util {

/// One iteration of polite same-core waiting: the architectural pause/yield
/// hint, a compiler barrier on unknown targets. Never a syscall.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bounded-spin policy object. Usage:
///
///   SpinWait spin(budget);
///   while (!predicate()) {
///     if (spin.should_park()) { <announce + park>; spin.reset(); }
///   }
///
/// should_park() burns one cpu_relax() per call while the budget lasts and
/// returns false; once exhausted it returns true.
class SpinWait {
 public:
  explicit SpinWait(std::uint32_t spin_budget) : budget_(spin_budget) {}

  bool should_park() noexcept {
    if (spun_ < budget_) {
      ++spun_;
      cpu_relax();
      return false;
    }
    return true;
  }

  /// Re-arm the spin budget (after a park or a successful poll).
  void reset() noexcept { spun_ = 0; }

  std::uint32_t spun() const noexcept { return spun_; }

 private:
  std::uint32_t spun_ = 0;
  const std::uint32_t budget_;
};

/// One-waiter eventcount. The waiter side:
///
///   const std::uint32_t e = slot.prepare();
///   if (predicate()) ...        // re-check AFTER prepare()
///   else slot.park(e);          // sleeps unless a signal raced in
///
/// Any number of signalers call signal() after making their predicate
/// change visible. prepare() → predicate → park() never loses a wakeup:
/// a signal between prepare() and park() bumps the epoch, and atomic
/// wait(old) refuses to sleep on a changed word. The parked_ announcement
/// uses seq_cst on both sides (classic Dekker handshake) so a signaler
/// either sees the announcement and wakes, or the waiter's recheck sees
/// the bumped epoch.
class alignas(64) WaitSlot {
 public:
  std::uint32_t prepare() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Park until the epoch moves past `seen`. Returns immediately if a
  /// signal already raced in.
  void park(std::uint32_t seen) noexcept {
    parked_.store(true, std::memory_order_seq_cst);
    if (epoch_.load(std::memory_order_seq_cst) == seen)
      epoch_.wait(seen, std::memory_order_acquire);
    parked_.store(false, std::memory_order_relaxed);
  }

  /// Publish "something changed": bump the epoch, wake a parked waiter.
  /// The wake syscall is skipped when no waiter announced itself.
  void signal() noexcept {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst)) epoch_.notify_one();
  }

  /// Observability for tests: is a waiter currently announced?
  bool has_parked_waiter() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<bool> parked_{false};
};

/// Sense-reversing centralized barrier with a completion step, built on the
/// spin-then-park policy. Semantics match std::barrier with a completion
/// function: the last arriver runs `completion` single-threaded (every
/// other participant is blocked in arrive_and_wait), then releases the
/// phase. Reusable across phases; the participant count is fixed.
class SpinBarrier {
 public:
  SpinBarrier(int participants, std::function<void()> completion,
              std::uint32_t spin_budget)
      : n_(participants),
        completion_(std::move(completion)),
        spin_budget_(spin_budget) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  void arrive_and_wait() noexcept {
    const std::uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      arrived_.store(0, std::memory_order_relaxed);
      if (completion_) completion_();
      // Release the phase; wake sleepers only if any announced themselves
      // (same Dekker handshake as WaitSlot).
      phase_.fetch_add(1, std::memory_order_seq_cst);
      if (parked_.load(std::memory_order_seq_cst) > 0) phase_.notify_all();
      return;
    }
    SpinWait spin(spin_budget_);
    while (phase_.load(std::memory_order_acquire) == phase) {
      if (spin.should_park()) {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        if (phase_.load(std::memory_order_seq_cst) == phase)
          phase_.wait(phase, std::memory_order_acquire);
        parked_.fetch_sub(1, std::memory_order_relaxed);
        spin.reset();
      }
    }
  }

 private:
  const int n_;
  const std::function<void()> completion_;
  const std::uint32_t spin_budget_;
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint32_t> phase_{0};
  alignas(64) std::atomic<int> parked_{0};
};

}  // namespace massf::util
