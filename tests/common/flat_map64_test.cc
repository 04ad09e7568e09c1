// FlatMap64: growth/rehash behaviour, erase (backward-shift deletion) and
// erase-reinsert cycles, iteration (and the AppendEntries gather) under
// load, a randomized differential test against std::unordered_map, and
// one of the cached ascending key order (and LoadRows) against std::map.

#include "common/flat_map64.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

namespace albic {
namespace {

/// AppendEntries must append exactly the iterator's sequence (zero key
/// first, then the slot array), after whatever the buffer already holds.
void ExpectAppendEntriesMatchesIterator(const FlatMap64<int64_t>& map) {
  std::vector<std::pair<uint64_t, int64_t>> expected = {{7, -7}};
  for (const auto& entry : map) expected.push_back(entry);
  std::vector<std::pair<uint64_t, int64_t>> gathered = {{7, -7}};
  map.AppendEntries(&gathered);
  ASSERT_EQ(gathered, expected);
}

TEST(FlatMap64Test, GrowthAndRehashKeepAllEntries) {
  FlatMap64<int64_t> map;
  EXPECT_TRUE(map.empty());
  // Push far past several doublings (16 -> 32 -> ... -> 16384).
  constexpr uint64_t kN = 10000;
  for (uint64_t k = 1; k <= kN; ++k) map[k] = static_cast<int64_t>(k * 3);
  EXPECT_EQ(map.size(), kN);
  for (uint64_t k = 1; k <= kN; ++k) {
    const int64_t* v = map.find(k);
    ASSERT_NE(v, nullptr) << "key " << k << " lost in a rehash";
    EXPECT_EQ(*v, static_cast<int64_t>(k * 3));
  }
  EXPECT_EQ(map.find(kN + 1), nullptr);
  // The zero key lives in its side slot and survives growth.
  map[0] = -7;
  EXPECT_EQ(map.size(), kN + 1);
  EXPECT_EQ(map.at(0), -7);
}

TEST(FlatMap64Test, EraseRemovesAndReinsertWorks) {
  FlatMap64<int64_t> map;
  for (uint64_t k = 1; k <= 500; ++k) map[k] = static_cast<int64_t>(k);
  // Erase every even key; all odd keys must stay reachable (backward-shift
  // deletion must not break any probe chain).
  for (uint64_t k = 2; k <= 500; k += 2) EXPECT_EQ(map.erase(k), 1u);
  EXPECT_EQ(map.size(), 250u);
  for (uint64_t k = 1; k <= 500; ++k) {
    if (k % 2 == 0) {
      EXPECT_EQ(map.find(k), nullptr) << "erased key " << k << " still found";
    } else {
      ASSERT_NE(map.find(k), nullptr) << "key " << k << " lost by erase";
      EXPECT_EQ(map.at(k), static_cast<int64_t>(k));
    }
  }
  // Erasing a missing key is a no-op.
  EXPECT_EQ(map.erase(2), 0u);
  EXPECT_EQ(map.erase(10001), 0u);
  // Reinsert the erased keys with new values.
  for (uint64_t k = 2; k <= 500; k += 2) map[k] = static_cast<int64_t>(-k);
  EXPECT_EQ(map.size(), 500u);
  for (uint64_t k = 2; k <= 500; k += 2) {
    EXPECT_EQ(map.at(k), static_cast<int64_t>(-k));
  }
  // Zero-key erase path.
  EXPECT_EQ(map.erase(0), 0u);
  map[0] = 42;
  EXPECT_EQ(map.erase(0), 1u);
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.size(), 500u);
}

TEST(FlatMap64Test, IterationUnderLoadVisitsEveryEntryOnce) {
  FlatMap64<int64_t> map;
  // Load close to the 3/4 growth threshold and include the zero key, then
  // punch holes with erase: iteration must still visit each survivor once.
  constexpr uint64_t kN = 3000;
  int64_t expected_sum = 0;
  for (uint64_t k = 0; k < kN; ++k) {
    map[k * 2654435761u + 1] = static_cast<int64_t>(k);
  }
  map[0] = 1000000;
  for (uint64_t k = 0; k < kN; k += 3) map.erase(k * 2654435761u + 1);
  std::unordered_map<uint64_t, int64_t> reference;
  for (uint64_t k = 0; k < kN; ++k) {
    if (k % 3 != 0) reference[k * 2654435761u + 1] = static_cast<int64_t>(k);
  }
  reference[0] = 1000000;
  for (const auto& [key, value] : reference) expected_sum += value;

  int64_t sum = 0;
  size_t visited = 0;
  for (const auto& [key, value] : map) {
    ++visited;
    sum += value;
    auto it = reference.find(key);
    ASSERT_NE(it, reference.end()) << "iterator yielded phantom key " << key;
    EXPECT_EQ(it->second, value);
  }
  EXPECT_EQ(visited, reference.size());
  EXPECT_EQ(map.size(), reference.size());
  EXPECT_EQ(sum, expected_sum);
  ExpectAppendEntriesMatchesIterator(map);
}

TEST(FlatMap64Test, RandomizedDifferentialAgainstUnorderedMap) {
  // Two key spaces: 0..400, so inserts, hits, erases and re-inserts all
  // happen frequently, and 0..6000, whose longer runs between clears grow
  // the table further. Occasional clear() exercises the wholesale reset,
  // which keeps capacity, and AppendEntries is checked at every step.
  struct KeySpace {
    uint64_t max_key;
    uint64_t seed;
  };
  for (const KeySpace space : {KeySpace{400, 0xA1B1C5ull},
                               KeySpace{6000, 0xD1FF5EEDull}}) {
    SCOPED_TRACE(testing::Message() << "keys 0.." << space.max_key);
    std::mt19937_64 rng(space.seed);
    FlatMap64<int64_t> map;
    std::unordered_map<uint64_t, int64_t> reference;
    std::uniform_int_distribution<uint64_t> key_dist(0, space.max_key);
    std::uniform_int_distribution<int> op_dist(0, 99);
    for (int step = 0; step < 200000; ++step) {
      const uint64_t key = key_dist(rng);
      const int op = op_dist(rng);
      if (op < 50) {
        const int64_t value = static_cast<int64_t>(rng());
        map[key] = value;
        reference[key] = value;
      } else if (op < 75) {
        EXPECT_EQ(map.erase(key), reference.erase(key)) << "step " << step;
      } else if (op < 99) {
        const int64_t* v = map.find(key);
        const auto it = reference.find(key);
        if (it == reference.end()) {
          EXPECT_EQ(v, nullptr) << "step " << step << " key " << key;
        } else {
          ASSERT_NE(v, nullptr) << "step " << step << " key " << key;
          EXPECT_EQ(*v, it->second);
        }
      } else {
        map.clear();
        reference.clear();
      }
      EXPECT_EQ(map.size(), reference.size());
      ASSERT_NO_FATAL_FAILURE(ExpectAppendEntriesMatchesIterator(map))
          << "step " << step;
    }
    // Full final sweep both ways.
    for (const auto& [key, value] : reference) {
      ASSERT_NE(map.find(key), nullptr) << "key " << key;
      EXPECT_EQ(map.at(key), value);
    }
    size_t visited = 0;
    for (const auto& [key, value] : map) {
      ++visited;
      const auto it = reference.find(key);
      ASSERT_NE(it, reference.end()) << "phantom key " << key;
      EXPECT_EQ(it->second, value);
    }
    EXPECT_EQ(visited, reference.size());
    // Both runs grew the table through several doublings.
    EXPECT_GE(map.full_rehashes(), 5u);
  }
}

TEST(FlatMap64Test, ReserveEndsAtGrownCapacityWithoutRehashes) {
  // Reserve(n) + n inserts must pay zero rehashes of live entries and land
  // on exactly the capacity insertion-driven growth reaches — pinned
  // observably: the NEXT doubling fires at the same insert count for the
  // reserved map as for a grown one.
  for (const size_t n : {1ul, 12ul, 1000ul, 5000ul}) {
    FlatMap64<int64_t> grown;
    FlatMap64<int64_t> reserved;
    reserved.Reserve(n);
    for (size_t k = 1; k <= n; ++k) {
      const uint64_t key = k * 2654435761u + 3;
      grown[key] = static_cast<int64_t>(k);
      reserved[key] = static_cast<int64_t>(k);
    }
    EXPECT_EQ(reserved.full_rehashes(), 0u) << "n = " << n;
    EXPECT_EQ(reserved.size(), grown.size());
    for (size_t k = 1; k <= n; ++k) {
      const uint64_t key = k * 2654435761u + 3;
      ASSERT_NE(reserved.find(key), nullptr) << "n = " << n << " key " << key;
      EXPECT_EQ(reserved.at(key), grown.at(key));
    }
    // Same final capacity: keep inserting and the two maps must cross the
    // 3/4 growth threshold on exactly the same insert.
    const size_t grown_base = grown.full_rehashes();
    for (size_t extra = 1; extra <= n + 16; ++extra) {
      const uint64_t key = (n + extra) * 2654435761u + 3;
      grown[key] = 1;
      reserved[key] = 1;
      ASSERT_EQ(reserved.full_rehashes() > 0, grown.full_rehashes() > grown_base)
          << "n = " << n << " extra = " << extra;
      if (reserved.full_rehashes() > 0) break;
    }
    EXPECT_GT(reserved.full_rehashes(), 0u) << "n = " << n;
  }
  // Reserve(0) and a shrinking Reserve are no-ops.
  FlatMap64<int64_t> map;
  map.Reserve(0);
  EXPECT_TRUE(map.empty());
  for (uint64_t k = 1; k <= 100; ++k) map[k] = static_cast<int64_t>(k);
  map.Reserve(1);
  EXPECT_EQ(map.size(), 100u);
  for (uint64_t k = 1; k <= 100; ++k) EXPECT_EQ(map.at(k), static_cast<int64_t>(k));
}

using Rows = std::vector<std::pair<uint64_t, int64_t>>;

/// The ordered visit must yield exactly \p oracle's entries, ascending.
void ExpectAscendingVisit(const FlatMap64<int64_t>& map,
                          const std::map<uint64_t, int64_t>& oracle) {
  Rows visited;
  map.ForEachAscending([&](uint64_t key, const int64_t& value) {
    visited.emplace_back(key, value);
  });
  ASSERT_EQ(visited, Rows(oracle.begin(), oracle.end()));
}

/// Loads \p rows through LoadRows, and into \p oracle as successive
/// assignments after a clear.
void Load(const Rows& rows, FlatMap64<int64_t>* map,
          std::map<uint64_t, int64_t>* oracle) {
  map->LoadRows(rows.size(), [&rows](size_t i) { return rows[i]; });
  oracle->clear();
  for (const auto& [key, value] : rows) (*oracle)[key] = value;
}

TEST(FlatMap64Test, AscendingVisitMatchesOrderedOracle) {
  // Every step is a short burst of mutations, so an order that should have
  // been dropped can be left with exactly the map's size (an erase and a
  // new key in one burst), then the visit is checked. Keys 0..300 keep key
  // 0, hits and re-inserts frequent; 0..5000 grows the table further.
  for (const uint64_t max_key : {uint64_t{300}, uint64_t{5000}}) {
    SCOPED_TRACE(testing::Message() << "keys 0.." << max_key);
    std::mt19937_64 rng(0x0DE2ull + max_key);
    std::uniform_int_distribution<uint64_t> key_dist(0, max_key);
    std::uniform_int_distribution<int> op_dist(0, 99);
    FlatMap64<int64_t> map;
    std::map<uint64_t, int64_t> oracle;
    const auto random_rows = [&](size_t n) {
      Rows rows;
      for (size_t i = 0; i < n; ++i) {
        rows.emplace_back(key_dist(rng), static_cast<int64_t>(rng()));
      }
      return rows;
    };
    for (int step = 0; step < 20000; ++step) {
      const int bursts = 1 + static_cast<int>(rng() % 3);
      for (int b = 0; b < bursts; ++b) {
        const uint64_t key = key_dist(rng);
        const int op = op_dist(rng);
        if (op < 55) {  // a new key, or an update of an existing one
          const int64_t value = static_cast<int64_t>(rng());
          map[key] = value;
          oracle[key] = value;
        } else if (op < 80) {
          ASSERT_EQ(map.erase(key), oracle.erase(key)) << "step " << step;
        } else if (op < 82) {
          map.Reserve(static_cast<size_t>(rng() % (2 * max_key)));
        } else if (op < 84) {
          // Clear, then refill with as many fresh keys as the map held.
          const size_t n = oracle.size();
          map.clear();
          oracle.clear();
          while (oracle.size() < n) {
            const uint64_t k = key_dist(rng);
            map[k] = static_cast<int64_t>(k);
            oracle[k] = static_cast<int64_t>(k);
          }
        } else if (op < 87) {
          // A copy carries the order; both then diverge independently.
          FlatMap64<int64_t> copy(map);
          std::map<uint64_t, int64_t> copy_oracle = oracle;
          copy[key] = -1;
          copy_oracle[key] = -1;
          ASSERT_NO_FATAL_FAILURE(ExpectAscendingVisit(copy, copy_oracle));
          ASSERT_NO_FATAL_FAILURE(ExpectAscendingVisit(map, oracle));
          if (op == 86) {
            map = std::move(copy);
            oracle = copy_oracle;
          }
        } else if (op < 88) {
          FlatMap64<int64_t> moved(std::move(map));
          map = std::move(moved);
        } else if (op < 91) {
          // Ascending rows, the image layout, key 0 among them at times.
          std::map<uint64_t, int64_t> sorted;
          for (const auto& [k, v] : random_rows(rng() % 400)) sorted[k] = v;
          Load(Rows(sorted.begin(), sorted.end()), &map, &oracle);
        } else if (op < 93) {
          // Unsorted rows, repeated keys among them: the last value wins.
          Rows rows = random_rows(rng() % 400);
          if (!rows.empty()) rows.push_back({rows.front().first, -2});
          Load(rows, &map, &oracle);
        } else if (op < 94) {
          // Ascending but for one repeated key, or key 0 listed last.
          std::map<uint64_t, int64_t> sorted;
          for (const auto& [k, v] : random_rows(rng() % 50)) sorted[k] = v;
          Rows rows(sorted.begin(), sorted.end());
          if (rows.empty()) continue;
          if (rng() % 2 == 0) {
            rows.insert(rows.begin() + 1, {rows.front().first, -3});
          } else {
            rows.push_back({0, -4});
          }
          Load(rows, &map, &oracle);
        }
        // Other ops are plain visits.
      }
      ASSERT_EQ(map.size(), oracle.size()) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(ExpectAscendingVisit(map, oracle))
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace albic
