// Open-addressing hash table keyed by std::uint64_t.
//
// The reliable layer and the RPC endpoints keep one small side table per
// host or endpoint, touched once or twice per message: pending sends,
// delivered ids, server jobs, LB flights, client requests. A node-based
// std::unordered_* pays an allocation and a free per message for that, and
// its teardown walks one node per id ever seen. This table is one flat slot
// array instead, the scheme of NetFlowCollector::FlowTable: Fibonacci
// hashing (the multiply carries every key bit into the high bits the slot
// is taken from, so sequential job numbers spread as well as mixed message
// ids), linear probing, backward-shift erase (no tombstones, so probes stay
// short however many keys come and go), and power-of-two doubling at load
// ½. Nothing is allocated but the doublings, and the table never shrinks.
//
// Key 0 marks an empty slot. A real key 0 (a packed RPC corr of user 0,
// seq 0; a message id whose mix came out 0) lives in one extra slot past
// the probed range, flagged once per table, not once per slot.
//
// Slot order is a function of the insert/erase history alone, never of
// addresses, but it still depends on the history; anything written out
// goes through sorted(), so equal contents give equal bytes.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace massf::util {

/// Map from std::uint64_t to V, or a set of bare 8-byte keys when V is
/// void. Pointers from find() are invalidated by try_insert() and erase().
template <class V>
class U64Table {
  /// One map entry: the key and its value, side by side in the slot array.
  template <class W>
  struct Entry {
    std::uint64_t key = 0;
    W value{};
  };
  static constexpr bool kSet = std::is_void_v<V>;
  using Slot = std::conditional_t<kSet, std::uint64_t, Entry<V>>;

 public:
  std::size_t size() const { return used_ + (has_zero_ ? 1 : 0); }
  /// Probed slots (0 or a power of two); the key-0 slot is not counted.
  std::size_t capacity() const {
    return slots_.empty() ? 0 : slots_.size() - 1;
  }

  /// The value stored under `key`, or nullptr.
  V* find(std::uint64_t key)
    requires(!kSet)
  {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  const V* find(std::uint64_t key) const
    requires(!kSet)
  {
    if (slots_.empty()) return nullptr;
    const Slot& slot = key == 0 ? zero_slot() : slots_[probe(key)];
    return (key == 0 ? has_zero_ : slot.key != 0) ? &slot.value : nullptr;
  }

  /// Insert `key` unless it is present; true if it was inserted.
  bool try_insert(std::uint64_t key)
    requires kSet
  {
    Slot* slot = claim(key);
    if (slot != nullptr) *slot = key;
    return slot != nullptr;
  }
  /// Insert `key → value` unless `key` is present (the stored value is
  /// kept then); true if it was inserted.
  template <class T = V>  // T only defers the parameter type for V = void
  bool try_insert(std::uint64_t key, std::type_identity_t<T> value)
    requires(!kSet)
  {
    Slot* slot = claim(key);
    if (slot != nullptr) *slot = {key, std::move(value)};
    return slot != nullptr;
  }

  /// Remove `key`; true if it was present. Later members of its probe
  /// cluster shift back into the hole, wrapping past the array end.
  bool erase(std::uint64_t key) {
    if (key == 0) {
      if (!has_zero_) return false;
      has_zero_ = false;
      zero_slot() = Slot{};
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = probe(key);
    if (key_of(slots_[hole]) == 0) return false;
    const std::size_t mask = capacity() - 1;
    for (std::size_t s = (hole + 1) & mask; key_of(slots_[s]) != 0;
         s = (s + 1) & mask) {
      // The key at s may fill the hole only if the hole lies on its probe
      // path, from its home slot to s (cyclically).
      if (((s - home(key_of(slots_[s]))) & mask) >= ((s - hole) & mask)) {
        slots_[hole] = std::move(slots_[s]);
        hole = s;
      }
    }
    slots_[hole] = Slot{};
    --used_;
    return true;
  }

  /// Remove every key; the slot array keeps its size.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
    has_zero_ = false;
  }

  /// fn(key) for a set, fn(key, value) for a map, over every key: key 0
  /// first, then slot order.
  template <class Fn>
  void for_each(Fn&& fn) const {
    const auto visit = [&fn](const Slot& slot) {
      if constexpr (kSet)
        fn(slot);
      else
        fn(slot.key, slot.value);
    };
    if (has_zero_) visit(zero_slot());
    for (std::size_t s = 0; s < capacity(); ++s)
      if (key_of(slots_[s]) != 0) visit(slots_[s]);
  }

  /// Every key (a set) or (key, value) pair (a map), ascending by key:
  /// the form snapshots write.
  auto sorted() const {
    using Item = std::conditional_t<kSet, std::uint64_t,
                                    std::pair<std::uint64_t, V>>;
    std::vector<Item> out;
    out.reserve(size());
    for_each([&out](std::uint64_t key, const auto&... value) {
      out.push_back(Item{key, value...});
    });
    std::sort(out.begin(), out.end(), [](const Item& a, const Item& b) {
      if constexpr (kSet)
        return a < b;
      else
        return a.first < b.first;
    });
    return out;
  }

 private:
  static constexpr std::uint64_t kFibonacci = 0x9E3779B97F4A7C15ull;
  static constexpr std::size_t kMinCapacity = 8;

  static std::uint64_t key_of(const Slot& slot) {
    if constexpr (kSet)
      return slot;
    else
      return slot.key;
  }

  Slot& zero_slot() { return slots_.back(); }
  const Slot& zero_slot() const { return slots_.back(); }

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * kFibonacci) >> shift_);
  }

  /// Slot holding nonzero `key`, or the empty slot where it belongs (load
  /// ≤ ½ keeps one free). The array must be allocated.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = capacity() - 1;
    for (std::size_t s = home(key);; s = (s + 1) & mask) {
      const std::uint64_t k = key_of(slots_[s]);
      if (k == 0 || k == key) return s;
    }
  }

  /// The free slot `key` goes into, counted as filled; nullptr if `key` is
  /// present.
  Slot* claim(std::uint64_t key) {
    if (slots_.empty()) grow();
    if (key == 0) {
      if (has_zero_) return nullptr;
      has_zero_ = true;
      return &zero_slot();
    }
    std::size_t s = probe(key);
    if (key_of(slots_[s]) != 0) return nullptr;
    if (2 * (used_ + 1) > capacity()) {
      grow();
      s = probe(key);
    }
    ++used_;
    return &slots_[s];
  }

  /// Double the probed range (kMinCapacity when unallocated) and re-insert
  /// every key; the key-0 slot moves to the new end.
  void grow() {
    const std::size_t n = std::max(kMinCapacity, 2 * capacity());
    std::vector<Slot> old = std::move(slots_);
    // massf-check: allow(hot-path-alloc) — doubling: amortized O(1) per
    // insert, bounded by the table's peak key count.
    slots_.assign(n + 1, Slot{});
    shift_ = 64 - std::countr_zero(n);
    if (old.empty()) return;
    zero_slot() = std::move(old.back());
    old.pop_back();
    for (Slot& slot : old)
      if (key_of(slot) != 0) slots_[probe(key_of(slot))] = std::move(slot);
  }

  std::vector<Slot> slots_;  // capacity() probed slots, then the key-0 slot
  std::size_t used_ = 0;     // nonzero keys in the probed slots
  int shift_ = 64;           // 64 − log2(capacity())
  bool has_zero_ = false;
};

/// A set of bare std::uint64_t keys.
using U64Set = U64Table<void>;

}  // namespace massf::util
