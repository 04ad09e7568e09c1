// Delta-state contract of the stateful operators: a base snapshot plus the
// deltas each operator derives from the group's replay log (the events
// since the previous record) must reconstruct exactly the live state —
// including erased keys, the reset flag readers honour, and the non-map
// sidecars (flush counters, last_top_) deltas always carry whole.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map64.h"
#include "engine/operator.h"
#include "engine/replay_log.h"
#include "ops/aggregate.h"
#include "ops/serde_util.h"
#include "ops/store.h"
#include "ops/topk.h"

namespace albic::ops {
namespace {

engine::Tuple MakeTuple(uint64_t key, double num, uint64_t aux = 0) {
  engine::Tuple t;
  t.key = key;
  t.num = num;
  t.aux = aux;
  return t;
}

class Capture : public engine::Emitter {
 public:
  void Emit(const engine::Tuple& t) override { tuples.push_back(t); }
  std::vector<engine::Tuple> tuples;
};

/// Processes \p tuples on group 0 of \p op and logs them, as the engine
/// does with a delivered batch.
void Deliver(engine::StreamOperator& op, engine::ReplayLog& log,
             std::vector<engine::Tuple> tuples,
             engine::Emitter* out = nullptr) {
  for (const engine::Tuple& t : tuples) op.Process(t, 0, out);
  log.AppendChunk(std::move(tuples));
}

/// Fires group 0's window and logs the fire.
void Fire(engine::StreamOperator& op, engine::ReplayLog& log,
          engine::Emitter* out = nullptr) {
  op.OnWindow(0, out);
  log.AppendWindowFire();
}

/// Drops everything logged so far, as writing a checkpoint record does.
void Checkpointed(engine::ReplayLog& log) {
  log.TruncateBefore(log.next_seq());
}

/// Group 0's delta over \p log; the operator must accept.
std::string Delta(const engine::StreamOperator& op,
                  const engine::ReplayLog& log) {
  std::string out;
  EXPECT_TRUE(op.SerializeGroupDelta(0, log, &out));
  return out;
}

TEST(DeltaStateTest, StoreDeltaChainReconstructsBitIdentically) {
  StoreSinkOperator live(1);
  engine::ReplayLog log;
  std::vector<engine::Tuple> table;
  for (uint64_t k = 1; k <= 200; ++k) {
    table.push_back(MakeTuple(k, static_cast<double>(k) * 0.25));
  }
  Deliver(live, log, table);
  Fire(live, log);  // flush counter rides along in base and delta
  const std::string base = live.SerializeGroupState(0);
  Checkpointed(log);

  // Touch a handful of keys; the delta must be tiny next to the base. The
  // logged window fire only bumps the flush counter, so it stays a delta.
  Deliver(live, log, {MakeTuple(5, -1.0), MakeTuple(900, 3.5)});
  Fire(live, log);
  const std::string d1 = Delta(live, log);
  EXPECT_LT(d1.size(), base.size() / 8);
  Checkpointed(log);

  Deliver(live, log, {MakeTuple(900, 4.5)});
  const std::string d2 = Delta(live, log);
  Checkpointed(log);

  StoreSinkOperator restored(1);
  ASSERT_TRUE(restored.DeserializeGroupState(0, base).ok());
  ASSERT_TRUE(restored.ApplyGroupDelta(0, d1).ok());
  ASSERT_TRUE(restored.ApplyGroupDelta(0, d2).ok());
  EXPECT_EQ(restored.SerializeGroupState(0), live.SerializeGroupState(0));
  EXPECT_DOUBLE_EQ(restored.ValueFor(0, 900), 4.5);
  EXPECT_EQ(restored.flushes(0), live.flushes(0));
}

TEST(DeltaStateTest, TopKDeltaCarriesCountsAndLastTop) {
  WindowedTopKOperator live(1, /*k=*/3);
  engine::ReplayLog log;
  Capture out;
  std::vector<engine::Tuple> window;
  for (uint64_t id = 1; id <= 40; ++id) {
    for (uint64_t hits = 0; hits < id % 5 + 1; ++hits) {
      window.push_back(MakeTuple(/*key=*/7, 0.0, /*aux=*/id));
    }
  }
  Deliver(live, log, window, &out);
  Fire(live, log, &out);  // closes the window: last_top_ set, counts reset
  // The fire emptied counts the log never touched: a delta cannot
  // describe it.
  std::string declined;
  EXPECT_FALSE(live.SerializeGroupDelta(0, log, &declined));
  const std::string base = live.SerializeGroupState(0);
  Checkpointed(log);

  Deliver(live, log, {MakeTuple(7, 0.0, /*aux=*/11), MakeTuple(7, 0.0, 12)},
          &out);
  const std::string delta = Delta(live, log);

  WindowedTopKOperator restored(1, /*k=*/3);
  ASSERT_TRUE(restored.DeserializeGroupState(0, base).ok());
  ASSERT_TRUE(restored.ApplyGroupDelta(0, delta).ok());
  EXPECT_EQ(restored.SerializeGroupState(0), live.SerializeGroupState(0));
  EXPECT_EQ(restored.last_window_top(0), live.last_window_top(0));

  // A fire behind logged tuples declines too, whatever came before it.
  Fire(live, log, &out);
  EXPECT_FALSE(live.SerializeGroupDelta(0, log, &declined));
}

TEST(DeltaStateTest, AggregateDeltaMatchesLiveSums) {
  SumByKeyOperator live(1, GroupField::kKey, /*emit_updates=*/false);
  engine::ReplayLog log;
  std::vector<engine::Tuple> sums;
  for (uint64_t k = 1; k <= 100; ++k) sums.push_back(MakeTuple(k, 1.5));
  Deliver(live, log, sums);
  const std::string base = live.SerializeGroupState(0);
  Checkpointed(log);

  Deliver(live, log, {MakeTuple(17, 2.0), MakeTuple(500, 4.0)});
  const std::string delta = Delta(live, log);

  SumByKeyOperator restored(1, GroupField::kKey, /*emit_updates=*/false);
  ASSERT_TRUE(restored.DeserializeGroupState(0, base).ok());
  ASSERT_TRUE(restored.ApplyGroupDelta(0, delta).ok());
  // Compare content as well as bytes: every key of the live run and the
  // totals must agree.
  EXPECT_EQ(restored.SerializeGroupState(0), live.SerializeGroupState(0));
  EXPECT_DOUBLE_EQ(restored.GroupTotal(0), live.GroupTotal(0));
  for (uint64_t k = 1; k <= 100; ++k) {
    EXPECT_DOUBLE_EQ(restored.SumFor(0, k), live.SumFor(0, k)) << "key " << k;
  }
  EXPECT_DOUBLE_EQ(restored.SumFor(0, 500), 4.0);
}

TEST(DeltaStateTest, MapDeltaEncodesErasesAndReset) {
  // Serde-level pin of the wire format: a changed key absent from the live
  // map becomes an erase, and the reset flag makes apply clear first.
  FlatMap64<int64_t> live;
  for (uint64_t k = 1; k <= 10; ++k) live[k] = static_cast<int64_t>(k);

  FlatMap64<int64_t> target;
  for (uint64_t k = 1; k <= 10; ++k) target[k] = static_cast<int64_t>(k);
  target[99] = 99;  // divergence an erase-carrying delta must remove

  live[3] = 33;
  live.erase(7);
  // Keys 3, 7 and 99 changed; 99 was never present in `live`.
  StateWriter w;
  WriteMapDelta(w, std::vector<uint64_t>{3, 7, 99}, live,
                [](StateWriter& out, int64_t v) { out.PutI64(v); });
  const std::string delta = w.Take();
  uint64_t flags = 1;
  std::memcpy(&flags, delta.data(), sizeof(flags));
  EXPECT_EQ(flags, 0u);  // no writer sets the reset flag
  StateReader r(delta);
  ASSERT_TRUE(ReadMapDelta(r, target, [](StateReader& in, int64_t* v) {
                return in.GetI64(v);
              }).ok());
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(target.size(), live.size());
  for (const auto& [key, value] : live) {
    EXPECT_EQ(target.at(key), value) << "key " << key;
  }
  EXPECT_EQ(target.find(7), nullptr);
  EXPECT_EQ(target.find(99), nullptr);

  // Reset flag, in a record built by hand since no writer sets it: apply
  // clears the target before upserting.
  StateWriter w2;
  w2.PutU64(kDeltaResetFlag);
  w2.PutU64(0);  // upserts
  w2.PutU64(0);  // erases
  FlatMap64<int64_t> polluted;
  polluted[1234] = 1;
  const std::string reset_delta = w2.Take();
  StateReader r2(reset_delta);
  ASSERT_TRUE(ReadMapDelta(r2, polluted, [](StateReader& in, int64_t* v) {
                return in.GetI64(v);
              }).ok());
  EXPECT_TRUE(polluted.empty());  // reset + no changed keys = cleared
}

TEST(DeltaStateTest, ChangedKeysAreTheLoggedKeysOnce) {
  // Seqs 0-2: keys 70000, 3, 3; seq 3: a window fire; seqs 4-6: keys
  // 2^40, 5, 70000. The keys differ in bytes 0, 1, 2 and 5, so the radix
  // sort runs several passes.
  engine::ReplayLog log;
  log.AppendChunk({MakeTuple(70000, 0.0), MakeTuple(3, 0.0, /*aux=*/8),
                   MakeTuple(3, 0.0)});
  log.AppendWindowFire();
  log.AppendChunk({MakeTuple(uint64_t{1} << 40, 0.0), MakeTuple(5, 0.0),
                   MakeTuple(70000, 0.0)});
  const auto by_key = [](const engine::Tuple& t) { return t.key; };
  EXPECT_EQ(ChangedKeys(log, by_key),
            (std::vector<uint64_t>{3, 5, 70000, uint64_t{1} << 40}));
  // The key expression is the operator's: here the aux field.
  EXPECT_EQ(ChangedKeys(log, [](const engine::Tuple& t) { return t.aux; }),
            (std::vector<uint64_t>{0, 8}));

  // Only what the log still holds counts: truncating inside the second
  // chunk drops the first chunk, the marker and key 2^40.
  log.TruncateBefore(5);
  EXPECT_EQ(ChangedKeys(log, by_key), (std::vector<uint64_t>{5, 70000}));
  log.TruncateBefore(log.next_seq());
  EXPECT_TRUE(ChangedKeys(log, by_key).empty());
}

}  // namespace
}  // namespace albic::ops
