// massf-check fixture: MUST be clean.
// Three sanctioned shapes — member alignas, struct alignas, function-local
// atomic — plus one audited unaligned member under allow().
#include <atomic>
#include <cstdint>

struct MemberAligned {
  alignas(64) std::atomic<std::uint64_t> counter{0};
};

struct alignas(64) SlotAligned {
  std::atomic<double> clock{0.0};  // the whole slot owns its cache line
};

struct ColdPath {
  // Touched only on the failure path, never polled — audited as cold.
  // massf-check: allow(atomic-alignment)
  std::atomic<bool> failed{false};
};

std::uint64_t locals_are_fine() {
  std::atomic<std::uint64_t> scratch{1};  // stack-local: no member rule
  return scratch.load();
}
