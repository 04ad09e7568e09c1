#include "ops/topk.h"

#include <gtest/gtest.h>

#include <vector>

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
