#include "ops/aggregate.h"

#include <gtest/gtest.h>

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

TEST(SumByKeyTest, AccumulatesByKey) {
  SumByKeyOperator op(1, GroupField::kKey);
  Capture out;
  engine::Tuple t;
  t.key = 10;
  t.num = 5.0;
  op.Process(t, 0, &out);
  t.num = 7.0;
  op.Process(t, 0, &out);
  EXPECT_DOUBLE_EQ(op.SumFor(0, 10), 12.0);
  ASSERT_EQ(out.tuples.size(), 2u);
  EXPECT_DOUBLE_EQ(out.tuples[1].num, 12.0);  // running sum emitted
}

TEST(SumByKeyTest, GroupsByAuxWhenConfigured) {
  SumByKeyOperator op(1, GroupField::kAux);
  Capture out;
  engine::Tuple t;
  t.key = 1;
  t.aux = 99;  // route id
  t.num = 3.0;
  op.Process(t, 0, &out);
  t.key = 2;  // different plane, same route
  op.Process(t, 0, &out);
  EXPECT_DOUBLE_EQ(op.SumFor(0, 99), 6.0);
}

TEST(SumByKeyTest, SilentModeEmitsNothing) {
  SumByKeyOperator op(1, GroupField::kKey, /*emit_updates=*/false);
  Capture out;
  engine::Tuple t;
  t.key = 1;
  t.num = 1.0;
  op.Process(t, 0, &out);
  EXPECT_TRUE(out.tuples.empty());
}

TEST(SumByKeyTest, GroupTotalAndUnseenKeys) {
  SumByKeyOperator op(2, GroupField::kKey);
  Capture out;
  engine::Tuple t;
  t.key = 5;
  t.num = 2.5;
  op.Process(t, 0, &out);
  t.key = 6;
  op.Process(t, 0, &out);
  EXPECT_DOUBLE_EQ(op.GroupTotal(0), 5.0);
  EXPECT_DOUBLE_EQ(op.GroupTotal(1), 0.0);
  EXPECT_DOUBLE_EQ(op.SumFor(0, 12345), 0.0);
}

TEST(SumByKeyTest, StateRoundTrip) {
  SumByKeyOperator op(1, GroupField::kKey);
  Capture out;
  for (uint64_t k = 0; k < 50; ++k) {
    engine::Tuple t;
    t.key = k;
    t.num = static_cast<double>(k);
    op.Process(t, 0, &out);
  }
  std::string state = op.SerializeGroupState(0);
  op.ClearGroupState(0);
  EXPECT_DOUBLE_EQ(op.GroupTotal(0), 0.0);
  ASSERT_TRUE(op.DeserializeGroupState(0, state).ok());
  EXPECT_DOUBLE_EQ(op.SumFor(0, 49), 49.0);
  EXPECT_DOUBLE_EQ(op.GroupTotal(0), 49.0 * 50.0 / 2.0);
}

TEST(SumByKeyTest, DeserializeRejectsGarbage) {
  SumByKeyOperator op(1, GroupField::kKey);
  EXPECT_FALSE(op.DeserializeGroupState(0, "abc").ok());
  // A row count far beyond the image's bytes is rejected before anything
  // is reserved for it.
  StateWriter hostile;
  hostile.PutU64(uint64_t{1} << 40);  // the row count; no rows follow
  EXPECT_EQ(op.DeserializeGroupState(0, hostile.Take()).code(),
            StatusCode::kOutOfRange);
}

TEST(SumByKeyTest, SerializationIsCanonicalAcrossInsertionOrders) {
  // Equal sums must serialize to equal bytes regardless of insertion
  // history — what keeps checkpoint + replay reconstruction byte-stable.
  SumByKeyOperator forward(1, GroupField::kKey), shuffled(1, GroupField::kKey);
  Capture out;
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 50; ++k) keys.push_back(k);
  for (uint64_t k : keys) {
    engine::Tuple t;
    t.key = k;
    t.num = static_cast<double>(k) * 1.5;
    forward.Process(t, 0, &out);
  }
  Rng rng(9);
  rng.Shuffle(&keys);
  for (uint64_t k : keys) {
    engine::Tuple t;
    t.key = k;
    t.num = static_cast<double>(k) * 1.5;
    shuffled.Process(t, 0, &out);
  }
  EXPECT_EQ(forward.SerializeGroupState(0), shuffled.SerializeGroupState(0));
}

}  // namespace
}  // namespace albic::ops
