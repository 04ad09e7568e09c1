#include "ops/store.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
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

TEST(StoreTest, UpsertsLatestValue) {
  StoreSinkOperator op(1);
  Capture out;
  engine::Tuple t;
  t.key = 1;
  t.num = 10.0;
  op.Process(t, 0, &out);
  t.num = 20.0;
  op.Process(t, 0, &out);
  EXPECT_TRUE(out.tuples.empty());  // sink never emits
  EXPECT_EQ(op.rows(0), 1);
  EXPECT_DOUBLE_EQ(op.ValueFor(0, 1), 20.0);
}

TEST(StoreTest, ProcessBatchMatchesProcess) {
  // A batch with repeated keys and key 0, split over two groups, must leave
  // each group's table exactly as per-tuple Process does: the same values,
  // the same row count and the same state image.
  Rng rng(31);
  engine::TupleBatch batch;
  for (int i = 0; i < 500; ++i) {
    engine::Tuple t;
    t.key = static_cast<uint64_t>(rng.UniformInt(0, 40));  // includes 0
    t.num = rng.Uniform(-50.0, 50.0);
    batch.push_back(t);
  }
  StoreSinkOperator batched(2), per_tuple(2);
  Capture out;
  for (int g = 0; g < 2; ++g) {
    batched.ProcessBatch(batch, g, &out);
    for (const engine::Tuple& t : batch) per_tuple.Process(t, g, &out);
  }
  batched.ProcessBatch(engine::TupleBatch(), 1, &out);  // empty: no change
  EXPECT_TRUE(out.tuples.empty());
  for (int g = 0; g < 2; ++g) {
    ASSERT_EQ(batched.rows(g), per_tuple.rows(g));
    for (uint64_t k = 0; k <= 40; ++k) {
      EXPECT_EQ(batched.ValueFor(g, k), per_tuple.ValueFor(g, k)) << k;
    }
    EXPECT_EQ(batched.SerializeGroupState(g),
              per_tuple.SerializeGroupState(g));
  }
}

TEST(StoreTest, PeriodicFlushCounts) {
  StoreSinkOperator op(1);
  Capture out;
  op.OnWindow(0, &out);
  op.OnWindow(0, &out);
  EXPECT_EQ(op.flushes(0), 2);
}

TEST(StoreTest, StateRoundTrip) {
  StoreSinkOperator op(1);
  Capture out;
  engine::Tuple t;
  t.key = 3;
  t.num = 7.0;
  op.Process(t, 0, &out);
  op.OnWindow(0, &out);
  std::string state = op.SerializeGroupState(0);
  op.ClearGroupState(0);
  EXPECT_EQ(op.rows(0), 0);
  EXPECT_EQ(op.flushes(0), 0);
  ASSERT_TRUE(op.DeserializeGroupState(0, state).ok());
  EXPECT_DOUBLE_EQ(op.ValueFor(0, 3), 7.0);
  EXPECT_EQ(op.flushes(0), 1);
}

TEST(StoreTest, UnseenKeyIsZero) {
  StoreSinkOperator op(1);
  EXPECT_DOUBLE_EQ(op.ValueFor(0, 42), 0.0);
}

TEST(StoreTest, DeserializeRejectsHostileRowCount) {
  // A row count far beyond the image's bytes is rejected before anything
  // is reserved for it.
  StoreSinkOperator op(1);
  StateWriter hostile;
  hostile.PutU64(uint64_t{1} << 40);  // the row count; no rows follow
  EXPECT_EQ(op.DeserializeGroupState(0, hostile.Take()).code(),
            StatusCode::kOutOfRange);
}

TEST(StoreTest, RandomizedDifferentialVsUnorderedMapReference) {
  // Random upsert streams (with key 0 and heavy key reuse) against a
  // std::unordered_map reference: every lookup, the row count, and the
  // serialize -> clear -> deserialize round trip must agree with the
  // reference at every step.
  Rng rng(727);
  for (int round = 0; round < 10; ++round) {
    StoreSinkOperator op(1);
    std::unordered_map<uint64_t, double> ref;
    Capture out;
    const int upserts = static_cast<int>(rng.UniformInt(200, 800));
    for (int i = 0; i < upserts; ++i) {
      engine::Tuple t;
      t.key = static_cast<uint64_t>(rng.UniformInt(0, 63));  // includes 0
      t.num = rng.Uniform(-100.0, 100.0);
      op.Process(t, 0, &out);
      ref[t.key] = t.num;
      if (rng.Bernoulli(0.05)) {
        const std::string state = op.SerializeGroupState(0);
        op.ClearGroupState(0);
        ASSERT_TRUE(op.DeserializeGroupState(0, state).ok());
        ASSERT_EQ(op.SerializeGroupState(0), state);
      }
    }
    ASSERT_EQ(op.rows(0), static_cast<int64_t>(ref.size()));
    for (const auto& [key, value] : ref) {
      ASSERT_DOUBLE_EQ(op.ValueFor(0, key), value) << "key " << key;
    }
  }
}

TEST(StoreTest, SerializationIsCanonicalAcrossInsertionOrders) {
  // Equal contents must serialize to equal bytes regardless of insertion
  // history — what keeps checkpoint + replay reconstruction byte-stable.
  StoreSinkOperator forward(1), shuffled(1);
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
    t.num = -1.0;  // overwritten below, so growth timing differs too
    shuffled.Process(t, 0, &out);
  }
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
