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
