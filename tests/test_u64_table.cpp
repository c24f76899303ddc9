// util::U64Table, the flat table behind the reliable layer's pending sends
// and delivered ids and the RPC endpoints' jobs, flights and requests:
// randomized differential runs against std::map over the key shapes those
// tables see, probe clusters that wrap past the array end, and the sorted
// form snapshots write.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "app/rpc.hpp"
#include "util/rng.hpp"
#include "util/u64_table.hpp"

namespace massf::util {
namespace {

// The table's home slot for `key` at `capacity` (a power of two).
std::size_t home_slot(std::uint64_t key, std::size_t capacity) {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(capacity)));
}

// Every observable of `table` equals the oracle's: size, lookups of live
// and erased keys, for_each's key set and sorted()'s sequence.
void expect_same(const U64Table<std::uint64_t>& table,
                 const std::map<std::uint64_t, std::uint64_t>& oracle,
                 const std::vector<std::uint64_t>& universe) {
  ASSERT_EQ(table.size(), oracle.size());
  for (std::uint64_t key : universe) {
    const std::uint64_t* value = table.find(key);
    const auto it = oracle.find(key);
    ASSERT_EQ(value != nullptr, it != oracle.end()) << "key " << key;
    if (value != nullptr) {
      ASSERT_EQ(*value, it->second) << "key " << key;
    }
  }
  std::map<std::uint64_t, std::uint64_t> visited;
  table.for_each([&](std::uint64_t key, std::uint64_t value) {
    EXPECT_TRUE(visited.emplace(key, value).second) << "key " << key;
  });
  EXPECT_EQ(visited, oracle);
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
      oracle.begin(), oracle.end());
  EXPECT_EQ(table.sorted(), want);
}

// Random adds, finds and erases over `universe` (which names keys both
// present and absent), checked against std::map after every operation.
void run_differential(const std::vector<std::uint64_t>& universe,
                      std::uint64_t seed) {
  Rng rng(seed);
  U64Table<std::uint64_t> table;
  std::map<std::uint64_t, std::uint64_t> oracle;
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t key = universe[rng.next_below(universe.size())];
    const std::uint64_t value = rng();
    // Lean towards adding for the first half (the table grows through
    // several doublings), towards erasing for the second (it drains).
    const bool add = rng.next_below(100) < (op < 2000 ? 70u : 30u);
    if (add) {
      ASSERT_EQ(table.try_insert(key, value), oracle.emplace(key, value).second);
    } else {
      ASSERT_EQ(table.erase(key), oracle.erase(key) == 1);
    }
    if (op % 97 == 0 || op > 3900) expect_same(table, oracle, universe);
    ASSERT_EQ(table.size(), oracle.size());
  }
  // Erase what is left in random order, checking every step.
  std::vector<std::uint64_t> live;
  for (const auto& [key, value] : oracle) live.push_back(key);
  rng.shuffle(live);
  for (std::uint64_t key : live) {
    ASSERT_TRUE(table.erase(key));
    oracle.erase(key);
    expect_same(table, oracle, universe);
  }
  EXPECT_EQ(table.size(), 0u);
}

TEST(U64Table, MatchesMapOnSequentialKeys) {
  // Job and flight sequence numbers: 1, 2, 3, ... (and 0, never issued,
  // as an absent key).
  std::vector<std::uint64_t> universe;
  for (std::uint64_t k = 0; k <= 600; ++k) universe.push_back(k);
  run_differential(universe, 1);
}

TEST(U64Table, MatchesMapOnPackedCorrKeysIncludingZero) {
  // Client corrs: user in the high bits, sequence in the low bits; user 0
  // at seq 0 packs to key 0.
  std::vector<std::uint64_t> universe;
  for (std::uint64_t user = 0; user < 12; ++user)
    for (std::uint64_t seq = 0; seq < 40; ++seq)
      universe.push_back(app::pack_corr(user, seq));
  ASSERT_EQ(universe.front(), 0u);
  run_differential(universe, 2);
}

TEST(U64Table, MatchesMapOnMixedIds) {
  // Reliable message ids: mixed (src, counter) words, plus key 0.
  std::vector<std::uint64_t> universe{0};
  for (std::uint64_t src = 1; src <= 6; ++src)
    for (std::uint64_t n = 1; n <= 80; ++n)
      universe.push_back(mix_seed(splitmix64(src), n));
  run_differential(universe, 3);
}

TEST(U64Table, BackwardShiftEraseAcrossTheArrayEnd) {
  constexpr std::size_t kCapacity = 64;
  // Keys homed on the last two slots and the first: they fill the end of
  // the array and wrap onto index 0 and beyond, one cluster across it.
  std::vector<std::uint64_t> cluster;
  for (std::uint64_t k = 1; cluster.size() < 14; ++k) {
    const std::size_t home = home_slot(k, kCapacity);
    const std::size_t near_end =
        std::count_if(cluster.begin(), cluster.end(), [](std::uint64_t c) {
          return home_slot(c, kCapacity) >= kCapacity - 2;
        });
    if ((home >= kCapacity - 2 && near_end < 8) ||
        (home == 0 && cluster.size() - near_end < 6))
      cluster.push_back(k);
  }
  // Filler keys homed mid-array grow the table to kCapacity first.
  std::vector<std::uint64_t> filler;
  for (std::uint64_t k = 1u << 20; filler.size() < 17; ++k) {
    const std::size_t home = home_slot(k, kCapacity);
    if (home > 20 && home < 40) filler.push_back(k);
  }
  Rng rng(4);
  for (int round = 0; round < 200; ++round) {
    // Then the cluster, in random order; load stays ≤ ½, so no doubling
    // moves it.
    U64Table<std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> oracle;
    for (std::uint64_t k : filler) {
      table.try_insert(k, k);
      oracle.emplace(k, k);
    }
    ASSERT_EQ(table.capacity(), kCapacity);
    rng.shuffle(cluster);
    for (std::uint64_t k : cluster) {
      table.try_insert(k, ~k);
      oracle.emplace(k, ~k);
    }
    ASSERT_EQ(table.capacity(), kCapacity);
    // Slot order: a key homed at the end sits below the filler, so the
    // cluster really wraps.
    bool below_filler = true;
    bool wrapped = false;
    table.for_each([&](std::uint64_t key, std::uint64_t) {
      if (std::find(filler.begin(), filler.end(), key) != filler.end())
        below_filler = false;
      if (below_filler && home_slot(key, kCapacity) >= kCapacity - 2)
        wrapped = true;
    });
    ASSERT_TRUE(wrapped);
    std::vector<std::uint64_t> universe = cluster;
    universe.insert(universe.end(), filler.begin(), filler.end());
    std::vector<std::uint64_t> order = universe;
    rng.shuffle(order);
    for (std::uint64_t k : order) {
      ASSERT_TRUE(table.erase(k));
      ASSERT_FALSE(table.erase(k));
      oracle.erase(k);
      expect_same(table, oracle, universe);
    }
  }
}

TEST(U64Table, KeyZeroLivesBesideTheSlots) {
  U64Table<double> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_FALSE(table.erase(0));
  EXPECT_TRUE(table.try_insert(0, 1.5));
  EXPECT_FALSE(table.try_insert(0, 2.5));  // present: the stored value stays
  ASSERT_NE(table.find(0), nullptr);
  EXPECT_EQ(*table.find(0), 1.5);
  // Key 0 survives doublings and is visited first.
  for (std::uint64_t k = 1; k <= 100; ++k) table.try_insert(k, static_cast<double>(k));
  EXPECT_EQ(table.size(), 101u);
  EXPECT_EQ(*table.find(0), 1.5);
  std::vector<std::uint64_t> keys;
  table.for_each([&](std::uint64_t key, double) { keys.push_back(key); });
  ASSERT_EQ(keys.size(), 101u);
  EXPECT_EQ(keys.front(), 0u);
  *table.find(0) = 3.0;  // values are mutable in place
  EXPECT_EQ(table.sorted().front(), std::make_pair(std::uint64_t{0}, 3.0));
  EXPECT_TRUE(table.erase(0));
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.size(), 100u);
}

TEST(U64Table, SetStoresBareKeys) {
  static_assert(sizeof(U64Set) <= 40, "a set is a vector and two words");
  U64Set set;
  std::set<std::uint64_t> oracle;
  for (std::uint64_t n = 0; n < 300; ++n) {
    const std::uint64_t id = n % 7 == 0 ? 0 : mix_seed(9, n % 250);
    EXPECT_EQ(set.try_insert(id), oracle.insert(id).second) << "id " << id;
  }
  EXPECT_EQ(set.size(), oracle.size());
  EXPECT_EQ(set.sorted(),
            std::vector<std::uint64_t>(oracle.begin(), oracle.end()));
  std::set<std::uint64_t> visited;
  set.for_each([&](std::uint64_t id) { EXPECT_TRUE(visited.insert(id).second); });
  EXPECT_EQ(visited, oracle);

  const std::size_t capacity = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_TRUE(set.sorted().empty());
  set.for_each([](std::uint64_t id) { ADD_FAILURE() << "id " << id; });
  for (std::uint64_t id : oracle) EXPECT_TRUE(set.try_insert(id));
  for (std::uint64_t id : oracle) EXPECT_FALSE(set.try_insert(id));
  EXPECT_EQ(set.size(), oracle.size());
  EXPECT_EQ(set.capacity(), capacity);
  EXPECT_EQ(set.sorted(),
            std::vector<std::uint64_t>(oracle.begin(), oracle.end()));
}

TEST(U64Table, SameContentsSortSameWhateverTheHistory) {
  // Table a: keys 0..199 in order. Table b: a shuffled superset, then the
  // extras erased — other doubling points, other slot order.
  Rng rng(5);
  U64Table<std::uint64_t> a;
  U64Table<std::uint64_t> b;
  for (std::uint64_t k = 0; k < 200; ++k) a.try_insert(k, k * 3);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; k < 900; ++k) keys.push_back(k);
  rng.shuffle(keys);
  for (std::uint64_t k : keys) b.try_insert(k, k * 3);
  for (std::uint64_t k : keys)
    if (k >= 200) b.erase(k);
  EXPECT_LT(a.capacity(), b.capacity());  // b doubled further
  EXPECT_EQ(a.sorted(), b.sorted());
  EXPECT_EQ(a.sorted().size(), 200u);
}

}  // namespace
}  // namespace massf::util
