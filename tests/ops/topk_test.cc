#include "ops/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "ops/serde_util.h"

namespace albic::ops {
namespace {

class Capture : public engine::Emitter {
 public:
  void Emit(const engine::Tuple& t) override { tuples.push_back(t); }
  std::vector<engine::Tuple> tuples;
};

engine::Tuple ForId(uint64_t id) {
  engine::Tuple t;
  t.key = id;
  t.aux = id;
  return t;
}

TEST(TopKTest, CountsWithinWindow) {
  WindowedTopKOperator op(1, 3);
  Capture out;
  for (int i = 0; i < 5; ++i) op.Process(ForId(1), 0, &out);
  for (int i = 0; i < 2; ++i) op.Process(ForId(2), 0, &out);
  EXPECT_TRUE(out.tuples.empty());  // nothing until the window closes
  EXPECT_EQ(op.counts(0).at(1), 5);
  EXPECT_EQ(op.counts(0).at(2), 2);
}

TEST(TopKTest, WindowEmitsTopKAndResets) {
  WindowedTopKOperator op(1, 2);
  Capture out;
  for (int i = 0; i < 5; ++i) op.Process(ForId(10), 0, &out);
  for (int i = 0; i < 3; ++i) op.Process(ForId(20), 0, &out);
  for (int i = 0; i < 1; ++i) op.Process(ForId(30), 0, &out);
  op.OnWindow(0, &out);
  ASSERT_EQ(out.tuples.size(), 2u);  // k = 2
  EXPECT_EQ(out.tuples[0].aux, 10u);
  EXPECT_DOUBLE_EQ(out.tuples[0].num, 5.0);
  EXPECT_EQ(out.tuples[1].aux, 20u);
  EXPECT_TRUE(op.counts(0).empty());  // window reset
  ASSERT_EQ(op.last_window_top(0).size(), 2u);
  EXPECT_EQ(op.last_window_top(0)[0].first, 10u);
}

TEST(TopKTest, EmptyWindowEmitsNothing) {
  WindowedTopKOperator op(1, 3);
  Capture out;
  op.OnWindow(0, &out);
  EXPECT_TRUE(out.tuples.empty());
}

TEST(TopKTest, EmptyWindowClearsLastWindowTop) {
  // last_window_top reports the most recently closed window, so a window
  // that closes with no input leaves it empty, not at an older window's.
  WindowedTopKOperator op(1, 3);
  Capture out;
  op.Process(ForId(1), 0, &out);
  op.OnWindow(0, &out);
  ASSERT_EQ(op.last_window_top(0).size(), 1u);
  out.tuples.clear();
  op.OnWindow(0, &out);
  EXPECT_TRUE(out.tuples.empty());
  EXPECT_TRUE(op.last_window_top(0).empty());
}

TEST(TopKTest, DeterministicTieBreakById) {
  WindowedTopKOperator op(1, 2);
  Capture out;
  op.Process(ForId(7), 0, &out);
  op.Process(ForId(3), 0, &out);
  op.Process(ForId(5), 0, &out);
  op.OnWindow(0, &out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].aux, 3u);  // equal counts: smaller id first
  EXPECT_EQ(out.tuples[1].aux, 5u);
}

TEST(TopKTest, GroupsAreIndependent) {
  WindowedTopKOperator op(2, 1);
  Capture out;
  op.Process(ForId(1), 0, &out);
  op.Process(ForId(2), 1, &out);
  EXPECT_EQ(op.counts(0).count(2), 0u);
  EXPECT_EQ(op.counts(1).count(1), 0u);
}

TEST(TopKTest, StateRoundTripPreservesCountsAndLastTop) {
  WindowedTopKOperator op(1, 2);
  Capture out;
  for (int i = 0; i < 4; ++i) op.Process(ForId(1), 0, &out);
  op.OnWindow(0, &out);
  op.Process(ForId(2), 0, &out);  // mid-window state
  std::string state = op.SerializeGroupState(0);
  op.ClearGroupState(0);
  EXPECT_TRUE(op.counts(0).empty());
  ASSERT_TRUE(op.DeserializeGroupState(0, state).ok());
  EXPECT_EQ(op.counts(0).at(2), 1);
  ASSERT_EQ(op.last_window_top(0).size(), 1u);
  EXPECT_EQ(op.last_window_top(0)[0].first, 1u);
}

TEST(TopKTest, DeserializeRejectsHostileRowCount) {
  // A row count far beyond the image's bytes is rejected before anything
  // is reserved for it.
  WindowedTopKOperator op(1, 2);
  StateWriter hostile;
  hostile.PutU64(uint64_t{1} << 40);  // the row count; no rows follow
  EXPECT_EQ(op.DeserializeGroupState(0, hostile.Take()).code(),
            StatusCode::kOutOfRange);
}

TEST(TopKTest, SumNumModeMergesUpstreamSummaries) {
  // A global TopK merging per-cell summaries must add the incoming counts,
  // not count the summary tuples.
  WindowedTopKOperator op(1, 2, TopKCountMode::kSumNum);
  Capture out;
  engine::Tuple t = ForId(5);
  t.num = 7.0;  // upstream window count
  op.Process(t, 0, &out);
  t.num = 3.0;  // a second cell's summary for the same article
  op.Process(t, 0, &out);
  engine::Tuple u = ForId(6);
  u.num = 8.0;
  op.Process(u, 0, &out);
  op.OnWindow(0, &out);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_EQ(out.tuples[0].aux, 5u);
  EXPECT_DOUBLE_EQ(out.tuples[0].num, 10.0);  // 7 + 3 merged
  EXPECT_EQ(out.tuples[1].aux, 6u);
}

using Entries = std::vector<std::pair<uint64_t, int64_t>>;

// The window fire's contract by a full sort: count descending, then id.
Entries ReferenceTop(const FlatMap64<int64_t>& counts, int k) {
  Entries all;
  for (const auto& entry : counts) all.push_back(entry);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  all.resize(std::min(all.size(), static_cast<size_t>(k)));
  return all;
}

// Fires group 0 of \p op and checks both the emitted tuples and
// last_window_top against ReferenceTop of the counts before the fire.
void ExpectFireMatchesFullSort(WindowedTopKOperator& op, int k) {
  const Entries expected = ReferenceTop(op.counts(0), k);
  Capture out;
  op.OnWindow(0, &out);
  EXPECT_EQ(op.last_window_top(0), expected);
  ASSERT_EQ(out.tuples.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out.tuples[i].key, expected[i].first);
    EXPECT_EQ(out.tuples[i].aux, expected[i].first);
    EXPECT_EQ(out.tuples[i].num, static_cast<double>(expected[i].second));
  }
  EXPECT_TRUE(op.counts(0).empty());
}

TEST(TopKTest, FireMatchesFullSortBelowAtAndAboveK) {
  constexpr int kK = 8;
  for (const int distinct : {3, kK, 300}) {
    WindowedTopKOperator op(1, kK);
    Capture out;
    Rng rng(static_cast<uint64_t>(distinct));
    ZipfSampler ids(static_cast<size_t>(distinct), 0.8);
    for (int i = 0; i < 40 * distinct; ++i) {
      op.Process(ForId(1 + ids.Sample(&rng)), 0, &out);
    }
    ASSERT_EQ(op.counts(0).size(), static_cast<size_t>(distinct));
    SCOPED_TRACE(distinct);
    ExpectFireMatchesFullSort(op, kK);
  }
}

TEST(TopKTest, FireBreaksTiesAtTheKthCountById) {
  // Ten ids share the 4th-highest count: the top 5 takes the two smallest.
  WindowedTopKOperator op(1, 5);
  Capture out;
  for (uint64_t id = 1; id <= 3; ++id) {
    for (int i = 0; i < 20; ++i) op.Process(ForId(id), 0, &out);
  }
  for (uint64_t id = 40; id > 30; --id) {
    for (int i = 0; i < 7; ++i) op.Process(ForId(id), 0, &out);
  }
  for (uint64_t id = 50; id < 60; ++id) op.Process(ForId(id), 0, &out);
  ExpectFireMatchesFullSort(op, 5);
  ASSERT_EQ(op.last_window_top(0).size(), 5u);
  EXPECT_EQ(op.last_window_top(0)[3].first, 31u);
  EXPECT_EQ(op.last_window_top(0)[4].first, 32u);
}

TEST(TopKTest, FireMatchesFullSortWithCountsAbove255) {
  // Summed counts far above 255, many of them, so more than k entries
  // share the top histogram bucket; plus a few small ones.
  constexpr int kK = 4;
  WindowedTopKOperator op(1, kK, TopKCountMode::kSumNum);
  Capture out;
  Rng rng(9);
  for (uint64_t id = 1; id <= 50; ++id) {
    engine::Tuple t = ForId(id);
    t.num = id <= 40 ? rng.Uniform(200.0, 5000.0) : rng.Uniform(1.0, 9.0);
    op.Process(t, 0, &out);
    op.Process(t, 0, &out);
  }
  ExpectFireMatchesFullSort(op, kK);
}

TEST(TopKTest, FireMatchesFullSortOnLoadedZeroAndNegativeCounts) {
  // An image may carry any int64 count; the fire's selection must not
  // assume counts are positive.
  for (const int k : {2, 6}) {
    FlatMap64<int64_t> counts;
    const int64_t values[] = {0, -5, 3, -1, 0, 7,
                              std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), 3};
    for (uint64_t i = 0; i < std::size(values); ++i) {
      counts[100 + i] = values[i];
    }
    StateWriter image;
    WriteMapRows(image, counts);
    image.PutU64(0);  // no last_top_ rows
    WindowedTopKOperator op(1, k, TopKCountMode::kSumNum);
    ASSERT_TRUE(op.DeserializeGroupState(0, image.Take()).ok());
    SCOPED_TRACE(k);
    ExpectFireMatchesFullSort(op, k);
  }
}

TEST(TopKTest, FireMatchesFullSortInBothCountModes) {
  for (const TopKCountMode mode :
       {TopKCountMode::kOccurrences, TopKCountMode::kSumNum}) {
    WindowedTopKOperator op(1, 32, mode);
    Capture out;
    Rng rng(17);
    ZipfSampler ids(837, 0.8);
    for (int window = 0; window < 3; ++window) {
      for (int i = 0; i < 20000; ++i) {
        engine::Tuple t = ForId(1 + ids.Sample(&rng));
        t.num = static_cast<double>(1 + rng.Index(4));
        op.Process(t, 0, &out);
      }
      ExpectFireMatchesFullSort(op, 32);
    }
  }
}

// Adds \p times occurrences of \p id to group 0.
void Feed(WindowedTopKOperator& op, uint64_t id, int times) {
  Capture out;
  for (int i = 0; i < times; ++i) op.Process(ForId(id), 0, &out);
}

// Closes a window of \p k ids counted \p kth times each, so the next
// window's threshold is kth / 2; ids from 10,000 up.
void Arm(WindowedTopKOperator& op, int k, int kth) {
  for (int i = 0; i < k; ++i) Feed(op, 10000 + static_cast<uint64_t>(i), kth);
  ExpectFireMatchesFullSort(op, k);
}

// An image of \p counts with no last-top rows.
std::string ImageOf(const FlatMap64<int64_t>& counts) {
  StateWriter image;
  WriteMapRows(image, counts);
  image.PutU64(0);
  return image.Take();
}

TEST(TopKTest, SumNumWeightIsDefinedForEveryDouble) {
  // NaN and anything below 1 weigh 1, 2^63 and up weigh INT64_MAX, and a
  // count saturates at INT64_MAX instead of wrapping, in Process and
  // ProcessBatch alike; a loaded INT64_MAX count stays there.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::pair<double, int64_t> cases[] = {
      {std::numeric_limits<double>::quiet_NaN(), 1},
      {kInf, kMax},
      {-kInf, 1},
      {1e300, kMax},
      {-1e300, 1},
      {9223372036854775808.0, kMax},  // 2^63
      {9223372036854774784.0, 9223372036854774784},  // the double below 2^63
      {0.5, 1},
      {-3.5, 1},
      {3.9, 3},
  };
  for (const bool batched : {false, true}) {
    WindowedTopKOperator op(1, 4, TopKCountMode::kSumNum);
    FlatMap64<int64_t> loaded;
    loaded[100] = kMax;
    ASSERT_TRUE(op.DeserializeGroupState(0, ImageOf(loaded)).ok());
    std::vector<engine::Tuple> tuples;
    uint64_t id = 1;
    for (const auto& [num, weight] : cases) {
      engine::Tuple t = ForId(id++);
      t.num = num;
      tuples.push_back(t);
    }
    engine::Tuple again = ForId(2);  // already at INT64_MAX
    again.num = 5.0;
    tuples.push_back(again);
    engine::Tuple top_up = ForId(100);  // loaded at INT64_MAX
    top_up.num = 7.0;
    tuples.push_back(top_up);
    engine::Tuple huge = ForId(7);  // 2^63 - 1024, plus 2^62
    huge.num = 4611686018427387904.0;
    tuples.push_back(huge);
    Capture out;
    if (batched) {
      op.ProcessBatch(engine::TupleBatch(std::move(tuples)), 0, &out);
    } else {
      for (const engine::Tuple& t : tuples) op.Process(t, 0, &out);
    }
    SCOPED_TRACE(batched);
    id = 1;
    for (const auto& [num, weight] : cases) {
      const int64_t want = id == 7 ? kMax : weight;
      EXPECT_EQ(op.counts(0).at(id), want) << "id " << id << " num " << num;
      ++id;
    }
    EXPECT_EQ(op.counts(0).at(100), kMax);
    ExpectFireMatchesFullSort(op, 4);
  }
  // Occurrence counts saturate too.
  WindowedTopKOperator occurrences(1, 2);
  FlatMap64<int64_t> loaded;
  loaded[5] = kMax;
  ASSERT_TRUE(occurrences.DeserializeGroupState(0, ImageOf(loaded)).ok());
  Feed(occurrences, 5, 3);
  EXPECT_EQ(occurrences.counts(0).at(5), kMax);
}

TEST(TopKTest, CandidateFiresMatchFullSortInBothCountModes) {
  // Zipf windows through ProcessBatch: every window after the first
  // follows an armed one, so its fire selects from the candidates.
  for (const TopKCountMode mode :
       {TopKCountMode::kOccurrences, TopKCountMode::kSumNum}) {
    WindowedTopKOperator op(1, 32, mode);
    Rng rng(23);
    ZipfSampler ids(1500, 0.8);
    for (int window = 0; window < 5; ++window) {
      std::vector<engine::Tuple> tuples;
      for (int i = 0; i < 8000; ++i) {
        engine::Tuple t = ForId(1 + ids.Sample(&rng));
        t.num = static_cast<double>(1 + rng.Index(3));
        tuples.push_back(t);
      }
      Capture out;
      op.ProcessBatch(engine::TupleBatch(std::move(tuples)), 0, &out);
      SCOPED_TRACE(window);
      ExpectFireMatchesFullSort(op, 32);
    }
  }
}

TEST(TopKTest, FireFallsBackWhenFewerThanKReachTheThreshold) {
  WindowedTopKOperator op(1, 8);
  Arm(op, 8, 100);  // threshold 50
  // One id crosses 50; the rest stay below, so the whole table decides.
  Feed(op, 1, 60);
  for (uint64_t id = 2; id <= 20; ++id) Feed(op, id, static_cast<int>(id));
  ExpectFireMatchesFullSort(op, 8);
  // This window armed the next at 13 / 2 = 6.
  for (uint64_t id = 30; id <= 45; ++id) Feed(op, id, static_cast<int>(id) % 9);
  ExpectFireMatchesFullSort(op, 8);
}

TEST(TopKTest, LoadedCountsDropTheCandidateList) {
  // Counts loaded mid-window did not start it at 0: the heavy loaded ids
  // never crossed the threshold, and only the whole table finds them.
  WindowedTopKOperator op(1, 8);
  Arm(op, 8, 20);  // threshold 10
  for (uint64_t id = 1; id <= 20; ++id) Feed(op, id, 15);
  FlatMap64<int64_t> loaded;
  for (uint64_t id = 500; id < 505; ++id) loaded[id] = 1000 - id;
  for (uint64_t id = 1; id <= 6; ++id) loaded[id] = 3;
  ASSERT_TRUE(op.DeserializeGroupState(0, ImageOf(loaded)).ok());
  for (uint64_t id = 1; id <= 20; ++id) Feed(op, id, 15);
  ExpectFireMatchesFullSort(op, 8);
  for (int fire = 0; fire < 2; ++fire) {
    SCOPED_TRACE(fire);
    for (uint64_t id = 1; id <= 30; ++id) Feed(op, id, 200 + 7 * (id % 5));
    ExpectFireMatchesFullSort(op, 8);
  }
}

TEST(TopKTest, AppliedDeltaDropsTheCandidateList) {
  WindowedTopKOperator op(1, 8);
  Arm(op, 8, 20);  // threshold 10
  for (uint64_t id = 1; id <= 20; ++id) Feed(op, id, 15);
  // The delta raises ids that never crossed and lowers some that did.
  FlatMap64<int64_t> changed;
  std::vector<uint64_t> keys;
  for (uint64_t id = 1; id <= 10; ++id) {
    changed[id] = 2;
    keys.push_back(id);
  }
  for (uint64_t id = 600; id < 604; ++id) {
    changed[id] = 5000 - id;
    keys.push_back(id);
  }
  StateWriter delta;
  WriteMapDelta(delta, keys, changed,
                [](StateWriter& w, int64_t v) { w.PutI64(v); });
  delta.PutU64(0);  // no last-top rows
  ASSERT_TRUE(op.ApplyGroupDelta(0, delta.Take()).ok());
  for (uint64_t id = 1; id <= 20; ++id) Feed(op, id, 1);
  ExpectFireMatchesFullSort(op, 8);
  for (int fire = 0; fire < 2; ++fire) {
    SCOPED_TRACE(fire);
    for (uint64_t id = 1; id <= 30; ++id) {
      Feed(op, id, 20 + static_cast<int>(id));
    }
    ExpectFireMatchesFullSort(op, 8);
  }
}

TEST(TopKTest, ClearedGroupDropsTheCandidateList) {
  // The ids listed before the clear are gone from the table.
  WindowedTopKOperator op(1, 4);
  Arm(op, 4, 20);  // threshold 10
  for (uint64_t id = 1; id <= 20; ++id) Feed(op, id, 12);
  op.ClearGroupState(0);
  for (uint64_t id = 300; id <= 305; ++id) {
    Feed(op, id, static_cast<int>(id) - 290);
  }
  ExpectFireMatchesFullSort(op, 4);
  for (uint64_t id = 1; id <= 12; ++id) Feed(op, id, static_cast<int>(id));
  ExpectFireMatchesFullSort(op, 4);
}

TEST(TopKTest, SumNumWeightsThatJumpOverTheThreshold) {
  // One tuple may carry an id from 0 far past the threshold, and a later
  // one past it again: each id is listed once.
  WindowedTopKOperator op(1, 4, TopKCountMode::kSumNum);
  Capture out;
  const auto send = [&](uint64_t id, double num) {
    engine::Tuple t = ForId(id);
    t.num = num;
    op.Process(t, 0, &out);
  };
  for (uint64_t id = 1; id <= 4; ++id) send(id, 100.0);
  ExpectFireMatchesFullSort(op, 4);  // threshold 50
  send(7, 1e6);
  send(7, 1e6);
  send(8, 49.0);
  send(8, 1.0);  // lands exactly on 50
  send(9, 30.0);
  send(9, 30.0);
  send(10, 49.0);  // stays below
  std::vector<engine::Tuple> batch;
  for (const auto& [id, num] : {std::pair{11, 500.0}, {11, 500.0}, {12, 51.0},
                                {12, 2.0}, {13, 1e300}, {13, 5.0}}) {
    engine::Tuple t = ForId(id);
    t.num = num;
    batch.push_back(t);
  }
  op.ProcessBatch(engine::TupleBatch(std::move(batch)), 0, &out);
  ExpectFireMatchesFullSort(op, 4);
}

TEST(TopKTest, TiesAtTheKthCountStraddlingTheThreshold) {
  // Threshold 5: three ids at 9, six at exactly 5 (listed) and six at 4
  // (not). With k = 5 the candidates decide, and the two smallest ids at 5
  // take the last places; with k = 12 fewer than k are listed, and the
  // whole table breaks the tie at 4.
  for (const int k : {5, 12}) {
    WindowedTopKOperator op(1, k);
    Arm(op, k, 11);  // threshold 5
    for (uint64_t id = 1; id <= 3; ++id) Feed(op, id, 9);
    for (uint64_t id = 20; id > 14; --id) Feed(op, id, 5);
    for (uint64_t id = 14; id > 8; --id) Feed(op, id, 4);
    SCOPED_TRACE(k);
    ExpectFireMatchesFullSort(op, k);
  }
}

TEST(TopKTest, FallsBackToPartitionKeyWithoutAux) {
  WindowedTopKOperator op(1, 1);
  Capture out;
  engine::Tuple t;
  t.key = 42;
  t.aux = 0;  // no auxiliary id
  op.Process(t, 0, &out);
  EXPECT_EQ(op.counts(0).at(42), 1);
}

}  // namespace
}  // namespace albic::ops
