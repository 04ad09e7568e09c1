// Map-backed state images are canonical whatever the map's cached key
// order holds: after updates only (order current), after new keys (order
// stale), after a live round trip (order recorded by the loader) and after
// a delta that erases a key, a SumByKey or StoreSink image must be
// byte-identical to that of a fresh operator filled in shuffled order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/operator.h"
#include "engine/replay_log.h"
#include "ops/aggregate.h"
#include "ops/store.h"

namespace albic::ops {
namespace {

engine::Tuple MakeTuple(uint64_t key, double num) {
  engine::Tuple t;
  t.key = key;
  t.num = num;
  return t;
}

struct OperatorCase {
  const char* name;
  std::function<std::unique_ptr<engine::StreamOperator>()> make;
  /// A processed tuple's effect on its key's value: a sum adds, the store
  /// overwrites.
  bool sums;
};

class MapImageTest : public ::testing::TestWithParam<OperatorCase> {
 protected:
  /// Processes (key, num) on group 0 of \p op, and on the expected values.
  void Feed(engine::StreamOperator& op, uint64_t key, double num) {
    op.Process(MakeTuple(key, num), 0, nullptr);
    double& value = expected_[key];
    value = GetParam().sums ? value + num : num;
  }

  /// Group 0 of \p op must serialize exactly as a fresh operator holding
  /// the expected values, filled one tuple per key in shuffled order.
  void ExpectCanonical(const engine::StreamOperator& op, const char* state) {
    SCOPED_TRACE(state);
    std::vector<std::pair<uint64_t, double>> rows(expected_.begin(),
                                                  expected_.end());
    std::shuffle(rows.begin(), rows.end(), rng_);
    auto fresh = GetParam().make();
    for (const auto& [key, value] : rows) {
      fresh->Process(MakeTuple(key, value), 0, nullptr);
    }
    EXPECT_EQ(op.SerializeGroupState(0), fresh->SerializeGroupState(0));
  }

  std::map<uint64_t, double> expected_;
  std::mt19937_64 rng_{0x1A6E5ull};
};

TEST_P(MapImageTest, ImagesStayCanonicalAcrossOrderChanges) {
  auto live = GetParam().make();
  // 600 keys, key 0 among them, spread over all eight key bytes.
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 600; ++k) {
    keys.push_back(k * 0x9E3779B97F4A7C15ull);
    Feed(*live, keys.back(), static_cast<double>(k) + 0.5);
  }
  ExpectCanonical(*live, "filled");

  for (size_t i = 0; i < keys.size(); i += 7) Feed(*live, keys[i], 2.0);
  ExpectCanonical(*live, "updates only");

  for (uint64_t k = 1; k <= 40; ++k) Feed(*live, k, 1.25);
  ExpectCanonical(*live, "new keys");

  // A live round trip, as a direct move does: the target loads the image.
  auto moved = GetParam().make();
  ASSERT_TRUE(moved->DeserializeGroupState(0, live->SerializeGroupState(0))
                  .ok());
  ExpectCanonical(*moved, "loaded");
  for (size_t i = 0; i < keys.size(); i += 5) Feed(*moved, keys[i], -3.0);
  ExpectCanonical(*moved, "loaded, then updates");

  // A delta that erases a key and adds one, leaving the size unchanged:
  // the source lacks the erased key, and the log names it, as a record
  // written after the key left the state would.
  const uint64_t erased = keys[keys.size() / 2];
  const uint64_t added = 77777;
  expected_.erase(erased);
  expected_[added] = 9.0;
  auto source = GetParam().make();
  for (const auto& [key, value] : expected_) {
    source->Process(MakeTuple(key, value), 0, nullptr);
  }
  engine::ReplayLog log;
  log.AppendChunk({MakeTuple(erased, 0.0), MakeTuple(added, 0.0)});
  std::string delta;
  ASSERT_TRUE(source->SerializeGroupDelta(0, log, &delta));
  ASSERT_TRUE(moved->ApplyGroupDelta(0, delta).ok());
  ExpectCanonical(*moved, "delta erased a key");
  for (size_t i = 1; i < keys.size(); i += 9) {
    if (keys[i] != erased) Feed(*moved, keys[i], 4.0);
  }
  ExpectCanonical(*moved, "delta, then updates");
}

INSTANTIATE_TEST_SUITE_P(
    MapBackedOperators, MapImageTest,
    ::testing::Values(
        OperatorCase{"SumByKey",
                     [] {
                       return std::make_unique<SumByKeyOperator>(
                           1, GroupField::kKey, /*emit_updates=*/false);
                     },
                     /*sums=*/true},
        OperatorCase{"StoreSink",
                     [] { return std::make_unique<StoreSinkOperator>(1); },
                     /*sums=*/false}),
    [](const ::testing::TestParamInfo<OperatorCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace albic::ops
