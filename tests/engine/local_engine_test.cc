#include "engine/local_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "ops/aggregate.h"

namespace albic::engine {
namespace {

/// Pass-through operator that re-emits every tuple (for routing tests).
class Forward : public StreamOperator {
 public:
  void Process(const Tuple& t, int /*group*/, Emitter* out) override {
    out->Emit(t);
  }
};

struct Fixture {
  Topology topo;
  Cluster cluster{2};
  Forward forward;
  ops::SumByKeyOperator sum{4, ops::GroupField::kKey, /*emit_updates=*/false};
  std::unique_ptr<LocalEngine> engine;

  explicit Fixture(PartitioningPattern pattern =
                       PartitioningPattern::kFullPartitioning) {
    topo.AddOperator("fwd", 4);
    topo.AddOperator("sum", 4);
    EXPECT_TRUE(topo.AddStream(0, 1, pattern).ok());
    Assignment assign(8);
    // fwd groups on node 0, sum groups on node 1 (all traffic remote).
    for (KeyGroupId g = 0; g < 4; ++g) assign.set_node(g, 0);
    for (KeyGroupId g = 4; g < 8; ++g) assign.set_node(g, 1);
    LocalEngineOptions opts;
    opts.serde_cost = 0.5;
    opts.window_every_us = 0;
    engine = std::make_unique<LocalEngine>(
        &topo, &cluster, assign,
        std::vector<StreamOperator*>{&forward, &sum}, opts);
  }
};

TEST(LocalEngineTest, RoutesByKeyHashDeterministically) {
  Fixture f;
  Tuple t;
  t.key = 1234;
  t.num = 2.0;
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  f.engine->Flush();  // injected tuples stage until the next drain
  const int group = LocalEngine::RouteKey(1234, 4);
  EXPECT_DOUBLE_EQ(f.sum.SumFor(group, 1234), 4.0);
}

TEST(LocalEngineTest, AccountsProcessingAndSerde) {
  Fixture f;
  Tuple t;
  t.key = 7;
  t.num = 1.0;
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  EnginePeriodStats stats = f.engine->HarvestPeriod();
  // fwd processed 1 tuple on node 0, sum processed 1 on node 1; the hop is
  // remote so each side pays 0.5 serde.
  EXPECT_DOUBLE_EQ(stats.node_work[0], 1.0 + 0.5);
  EXPECT_DOUBLE_EQ(stats.node_work[1], 1.0 + 0.5);
  EXPECT_EQ(stats.tuples_processed, 2);
  EXPECT_DOUBLE_EQ(stats.comm.TotalTraffic(), 1.0);
}

TEST(LocalEngineTest, CollocationEliminatesSerde) {
  Fixture f;
  // Move every sum group to node 0.
  for (KeyGroupId g = 4; g < 8; ++g) {
    ASSERT_TRUE(f.engine->MigrateGroup(g, 0).ok());
  }
  (void)f.engine->HarvestPeriod();  // discard migration-era stats
  Tuple t;
  t.key = 7;
  t.num = 1.0;
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  EnginePeriodStats stats = f.engine->HarvestPeriod();
  EXPECT_DOUBLE_EQ(stats.node_work[0], 2.0);  // both ops, no serde
  EXPECT_DOUBLE_EQ(stats.node_work[1], 0.0);
}

TEST(LocalEngineTest, OneToOnePatternPreservesGroupIndex) {
  Fixture f(PartitioningPattern::kOneToOne);
  Tuple t;
  t.key = 42;
  t.num = 3.0;
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  f.engine->Flush();
  const int src_group = LocalEngine::RouteKey(42, 4);
  EXPECT_DOUBLE_EQ(f.sum.SumFor(src_group, 42), 3.0);
  EnginePeriodStats stats = f.engine->HarvestPeriod();
  EXPECT_DOUBLE_EQ(stats.comm.Rate(src_group, 4 + src_group), 1.0);
}

TEST(LocalEngineTest, DirectMigrationMovesStateAndDrainsBuffer) {
  Fixture f;
  Tuple t;
  t.key = 99;
  t.num = 5.0;
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  f.engine->Flush();
  const int local = LocalEngine::RouteKey(99, 4);
  const KeyGroupId g = 4 + local;
  EXPECT_DOUBLE_EQ(f.sum.SumFor(local, 99), 5.0);

  ASSERT_TRUE(f.engine->StartMigration(g, 0).ok());
  // Tuples during migration are buffered, not processed.
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  f.engine->Flush();
  EXPECT_DOUBLE_EQ(f.sum.SumFor(local, 99), 5.0);

  auto pause = f.engine->FinishMigration(g);
  ASSERT_TRUE(pause.ok());
  EXPECT_GT(*pause, 0.0);  // non-empty state was serialized
  // Buffered tuple drained after the move; state survived the round-trip.
  EXPECT_DOUBLE_EQ(f.sum.SumFor(local, 99), 10.0);
  EXPECT_EQ(f.engine->assignment().node_of(g), 0);
}

TEST(LocalEngineTest, MigrationValidation) {
  Fixture f;
  EXPECT_FALSE(f.engine->StartMigration(99, 0).ok());   // unknown group
  EXPECT_FALSE(f.engine->StartMigration(4, 1).ok());    // already there
  EXPECT_FALSE(f.engine->FinishMigration(4).ok());      // not migrating
  ASSERT_TRUE(f.engine->StartMigration(4, 0).ok());
  EXPECT_FALSE(f.engine->StartMigration(4, 0).ok());    // double start
  ASSERT_TRUE(f.engine->FinishMigration(4).ok());
}

TEST(LocalEngineTest, BufferedTupleCountsReported) {
  Fixture f;
  ASSERT_TRUE(f.engine->StartMigration(4, 0).ok());
  Tuple t;
  // Find a key routing to sum group 0.
  for (uint64_t k = 0; k < 64; ++k) {
    if (LocalEngine::RouteKey(k, 4) == 0) {
      t.key = k;
      break;
    }
  }
  ASSERT_TRUE(f.engine->Inject(0, t).ok());
  f.engine->Flush();  // deliver into the migrating group, which buffers
  ASSERT_TRUE(f.engine->FinishMigration(4).ok());
  EnginePeriodStats stats = f.engine->HarvestPeriod();
  EXPECT_EQ(stats.tuples_buffered, 1);
}

TEST(LocalEngineTest, WindowsFireOnEventTime) {
  Topology topo;
  topo.AddOperator("fwd", 2);
  Cluster cluster(1);
  Assignment assign(2);
  assign.set_node(0, 0);
  assign.set_node(1, 0);

  class WindowCounter : public StreamOperator {
   public:
    void Process(const Tuple&, int, Emitter*) override {}
    void OnWindow(int, Emitter*) override { ++windows; }
    int windows = 0;
  } counter;

  LocalEngineOptions opts;
  opts.window_every_us = 60'000'000;  // 1 minute
  LocalEngine engine(&topo, &cluster, assign, {&counter}, opts);
  Tuple t;
  t.ts = 1'000'000;
  ASSERT_TRUE(engine.Inject(0, t).ok());   // initializes window origin
  EXPECT_EQ(counter.windows, 0);
  t.ts += 61'000'000;
  ASSERT_TRUE(engine.Inject(0, t).ok());   // one window boundary crossed
  EXPECT_EQ(counter.windows, 2);           // 2 groups x 1 window
  t.ts += 180'000'000;                      // three more boundaries
  ASSERT_TRUE(engine.Inject(0, t).ok());
  EXPECT_EQ(counter.windows, 8);
}

}  // namespace
}  // namespace albic::engine
