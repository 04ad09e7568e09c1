// State-image helpers: the radix row sort against a comparison sort over
// the key ranges whose digits it skips or keeps, and the map-row section
// round trip, including counts the image's bytes cannot hold.

#include "ops/serde_util.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace albic::ops {
namespace {

using Rows = std::vector<std::pair<uint64_t, double>>;

/// n rows with keys from \p key_of and each row's input position as value.
Rows MakeRows(size_t n, const std::function<uint64_t()>& key_of) {
  Rows rows;
  for (size_t i = 0; i < n; ++i) {
    rows.emplace_back(key_of(), static_cast<double>(i));
  }
  return rows;
}

void ExpectSortsLikeComparisonSort(Rows rows) {
  Rows expected = rows;
  // The radix passes are stable, so even repeated keys (possible in the
  // 8-bit range) must keep their input order; unique keys make this
  // std::sort's order.
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  SortRowsByKey(&rows, [](const auto& row) { return row.first; });
  EXPECT_EQ(rows, expected);
}

TEST(SerdeUtilTest, SortRowsByKeyMatchesComparisonSort) {
  std::mt19937_64 rng(0x5E7D1Cull);
  using KeyRange = std::pair<const char*, std::function<uint64_t()>>;
  const std::vector<KeyRange> ranges = {
      {"below 2^8", [&] { return rng() & 0xff; }},
      {"below 2^16", [&] { return rng() & 0xffff; }},
      {"full 64-bit", [&] { return rng(); }},
      {"shared high bytes",
       [&] { return 0xABCDEF0123000000ull | (rng() & 0xffffff); }},
      {"bytes 0 and 5 only",
       [&] { return 0x1100220033004400ull ^ (rng() & 0xff000000ffull); }},
  };
  for (const auto& [name, key_of] : ranges) {
    for (const size_t n : {0ul, 1ul, 2ul, 1024ul}) {
      SCOPED_TRACE(std::string(name) + ", n = " + std::to_string(n));
      ExpectSortsLikeComparisonSort(MakeRows(n, key_of));
      // Key 0 among the rows: the zero-key entry every map gathers first.
      Rows with_zero = MakeRows(n, key_of);
      if (!with_zero.empty()) with_zero[with_zero.size() / 2].first = 0;
      ExpectSortsLikeComparisonSort(with_zero);
    }
  }
}

TEST(SerdeUtilTest, MapRowsRoundTripInAscendingKeyOrder) {
  FlatMap64<double> map;
  for (uint64_t k = 300; k > 0; --k) map[k * 7919] = static_cast<double>(k);
  map[0] = -1.0;
  StateWriter w;
  WriteMapRows(w, map);
  const std::string image = w.Take();
  ASSERT_EQ(image.size(), 8 + map.size() * kMapRowBytes);
  std::vector<uint64_t> keys(map.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    std::memcpy(&keys[i], image.data() + 8 + i * kMapRowBytes, 8);
  }
  EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end(),
                               std::greater_equal<uint64_t>()),
            keys.end());
  FlatMap64<double> copy;
  StateReader r(image);
  ASSERT_TRUE(ReadMapRows(r, copy).ok());
  EXPECT_TRUE(r.AtEnd());
  ASSERT_EQ(copy.size(), map.size());
  map.ForEach([&](uint64_t key, double value) {
    ASSERT_NE(copy.find(key), nullptr) << "key " << key;
    EXPECT_EQ(*copy.find(key), value);
  });
}

TEST(SerdeUtilTest, ReadMapRowsRejectsCountsBeyondTheImage) {
  FlatMap64<double> map;
  map[5] = 2.5;
  for (const uint64_t count : {uint64_t{2}, uint64_t{1} << 40, ~uint64_t{0}}) {
    SCOPED_TRACE(count);
    // One whole row follows the count, so any count above 1 overruns.
    StateWriter w;
    w.PutU64(count);
    w.PutU64(9);
    w.PutDouble(1.0);
    const std::string image = w.Take();
    StateReader r(image);
    EXPECT_EQ(ReadMapRows(r, map).code(), StatusCode::kOutOfRange);
    // A rejected image leaves the map as it was.
    ASSERT_EQ(map.size(), 1u);
    EXPECT_EQ(map.at(5), 2.5);
  }
}

}  // namespace
}  // namespace albic::ops
