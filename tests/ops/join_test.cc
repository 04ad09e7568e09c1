#include "ops/join.h"

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

engine::Tuple Rain(uint64_t route, double decade) {
  engine::Tuple t;
  t.key = route;
  t.num = decade;
  t.aux = RouteRainJoinOperator::kRainMark;
  return t;
}

engine::Tuple Delay(uint64_t route, double minutes) {
  engine::Tuple t;
  t.key = route;
  t.num = minutes;
  return t;
}

TEST(JoinTest, DelayJoinsLatestRainscore) {
  RouteRainJoinOperator op(1);
  Capture out;
  op.Process(Rain(5, 30.0), 0, &out);
  EXPECT_TRUE(out.tuples.empty());  // rain side is silent
  op.Process(Delay(5, 12.0), 0, &out);
  ASSERT_EQ(out.tuples.size(), 1u);
  EXPECT_EQ(out.tuples[0].key, 30u);  // keyed by decade
  EXPECT_DOUBLE_EQ(out.tuples[0].num, 12.0);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 30), 12.0);
}

TEST(JoinTest, UnknownRouteFallsIntoDecadeZero) {
  RouteRainJoinOperator op(1);
  Capture out;
  op.Process(Delay(9, 8.0), 0, &out);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 0), 8.0);
}

TEST(JoinTest, LatestScoreWins) {
  RouteRainJoinOperator op(1);
  Capture out;
  op.Process(Rain(1, 10.0), 0, &out);
  op.Process(Rain(1, 80.0), 0, &out);
  op.Process(Delay(1, 5.0), 0, &out);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 80), 5.0);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 10), 0.0);
}

TEST(JoinTest, DelaysAccumulatePerDecade) {
  RouteRainJoinOperator op(1);
  Capture out;
  op.Process(Rain(1, 40.0), 0, &out);
  op.Process(Rain(2, 40.0), 0, &out);
  op.Process(Delay(1, 5.0), 0, &out);
  op.Process(Delay(2, 7.0), 0, &out);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 40), 12.0);
}

TEST(JoinTest, StateRoundTrip) {
  RouteRainJoinOperator op(1);
  Capture out;
  op.Process(Rain(1, 60.0), 0, &out);
  op.Process(Delay(1, 9.0), 0, &out);
  std::string state = op.SerializeGroupState(0);
  op.ClearGroupState(0);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 60), 0.0);
  ASSERT_TRUE(op.DeserializeGroupState(0, state).ok());
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 60), 9.0);
  // The route->decade map also survived: new delays keep joining correctly.
  op.Process(Delay(1, 1.0), 0, &out);
  EXPECT_DOUBLE_EQ(op.DelayForDecade(0, 60), 10.0);
}

TEST(JoinTest, DeserializeRejectsHostileRowCount) {
  // A row count far beyond the image's bytes, in either map's section, is
  // rejected before anything is reserved for it.
  RouteRainJoinOperator op(1);
  StateWriter route_section;
  route_section.PutU64(uint64_t{1} << 40);
  EXPECT_EQ(op.DeserializeGroupState(0, route_section.Take()).code(),
            StatusCode::kOutOfRange);
  StateWriter delay_section;
  delay_section.PutU64(0);  // no routes
  delay_section.PutU64(uint64_t{1} << 40);
  EXPECT_EQ(op.DeserializeGroupState(0, delay_section.Take()).code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace albic::ops
