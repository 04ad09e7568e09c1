// The online control loop must close the measure -> decide -> act cycle on
// real engine measurements: rounds fire at event-time period boundaries
// (with latency telemetry off or on), overload measured from the stream
// triggers scale-out, the planned migrations land on the live engine, and a
// cooling stream scales back in.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "core/controller_loop.h"
#include "engine/load_model.h"
#include "ops/aggregate.h"
#include "scaling/scaling_policy.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::Tuple;

constexpr int kGroups = 16;
constexpr int64_t kPeriodUs = 1000000;  // 1 s periods

struct Harness {
  engine::Topology topo;
  engine::Cluster cluster{2};
  ops::SumByKeyOperator sum{kGroups, ops::GroupField::kKey,
                            /*emit_updates=*/false};
  std::unique_ptr<engine::LocalEngine> engine;
  balance::MilpRebalancer rebalancer;
  scaling::UtilizationScalingPolicy policy;
  std::unique_ptr<core::AdaptationFramework> framework;
  engine::LoadModel load_model{engine::CostModel{}};
  std::unique_ptr<core::ControllerLoop> controller;

  explicit Harness(int latency_sample_every = 0)
      : rebalancer([] {
          balance::MilpRebalancerOptions mopts;
          mopts.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
          mopts.time_budget_ms = 5;
          return mopts;
        }()) {
    topo.AddOperator("sum", kGroups, 1 << 10);
    engine::Assignment assign(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 2);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    eopts.latency_sample_every = latency_sample_every;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&sum}, eopts);

    core::AdaptationOptions aopts;
    aopts.constraints.max_migrations = 8;
    framework = std::make_unique<core::AdaptationFramework>(&rebalancer,
                                                            &policy, aopts);
    core::ControllerLoopOptions copts;
    copts.period_every_us = kPeriodUs;
    // 100 work units per period = 100% on a reference node.
    copts.node_capacity_work_units = 100.0;
    copts.use_comm = false;
    controller = std::make_unique<core::ControllerLoop>(
        engine.get(), framework.get(), &load_model, &topo, &cluster, copts);
  }

  /// Streams `tuples_per_period` evenly-spaced tuples for every period in
  /// [0, periods), keys spread over all groups.
  void Stream(int periods, int tuples_per_period) {
    for (int p = 0; p < periods; ++p) {
      for (int i = 0; i < tuples_per_period; ++i) {
        Tuple t;
        t.key = static_cast<uint64_t>(i);
        t.ts = static_cast<int64_t>(p) * kPeriodUs +
               i * kPeriodUs / tuples_per_period;
        t.num = 1.0;
        ASSERT_TRUE(controller->Ingest(0, t).ok());
      }
    }
  }
};

TEST(ControllerLoopTest, RoundsFireAtPeriodBoundaries) {
  // Telemetry off, then on: measured latency must neither add nor move a
  // round, and with it on every round carries the period's measurements.
  for (const int sample_every : {0, 16}) {
    SCOPED_TRACE(sample_every);
    Harness h(sample_every);
    h.Stream(/*periods=*/4, /*tuples_per_period=*/100);
    // Boundaries passed at the first tuple of periods 1, 2, 3.
    EXPECT_EQ(h.controller->rounds_run(), 3);
    for (const core::ControllerRound& r : h.controller->history()) {
      EXPECT_GT(r.tuples_processed, 0);
      if (sample_every > 0) {
        EXPECT_GT(r.latency.e2e_count, 0);
      }
    }
  }
}

TEST(ControllerLoopTest, OverloadMeasuredFromStreamTriggersScaleOut) {
  Harness h;
  // 2 nodes, 360 work units per period => 180% per node: rebalancing alone
  // cannot fix it, so the policy must acquire nodes.
  h.Stream(/*periods=*/4, /*tuples_per_period=*/360);
  ASSERT_GE(h.controller->rounds_run(), 3);
  EXPECT_GT(h.cluster.num_active(), 2);
  int added = 0;
  int applied = 0;
  for (const core::ControllerRound& r : h.controller->history()) {
    added += r.nodes_added;
    applied += r.migrations_applied;
  }
  EXPECT_GT(added, 0);
  EXPECT_GT(applied, 0) << "planned migrations must land on the engine";
  // The live engine's allocation actually uses a scaled-out node.
  bool uses_new_node = false;
  for (KeyGroupId g = 0; g < kGroups; ++g) {
    if (h.engine->assignment().node_of(g) >= 2) uses_new_node = true;
  }
  EXPECT_TRUE(uses_new_node);
}

TEST(ControllerLoopTest, CoolingStreamScalesBackIn) {
  Harness h;
  h.Stream(/*periods=*/4, /*tuples_per_period=*/360);  // hot: scale out
  const int peak = h.cluster.num_active();
  ASSERT_GT(peak, 2);
  // Cool down far below the scale-in threshold and give the controller
  // rounds to drain and terminate nodes.
  for (int p = 4; p < 14; ++p) {
    for (int i = 0; i < 40; ++i) {
      Tuple t;
      t.key = static_cast<uint64_t>(i);
      t.ts = static_cast<int64_t>(p) * kPeriodUs + i * kPeriodUs / 40;
      t.num = 1.0;
      ASSERT_TRUE(h.controller->Ingest(0, t).ok());
    }
  }
  EXPECT_LT(h.cluster.num_active(), peak);
  int terminated = 0;
  for (const core::ControllerRound& r : h.controller->history()) {
    terminated += r.nodes_terminated;
  }
  EXPECT_GT(terminated, 0);
}

TEST(ControllerLoopTest, NoRoundBeforeTheFirstBoundary) {
  Harness h;
  h.Stream(/*periods=*/1, /*tuples_per_period=*/100);
  EXPECT_EQ(h.controller->rounds_run(), 0);
}

TEST(ControllerLoopTest, IngestBatchHonoursBoundariesInsideChunk) {
  Harness h;
  std::vector<Tuple> chunk;
  for (int p = 0; p < 3; ++p) {
    for (int i = 0; i < 50; ++i) {
      Tuple t;
      t.key = static_cast<uint64_t>(i);
      t.ts = static_cast<int64_t>(p) * kPeriodUs + i * kPeriodUs / 50;
      t.num = 1.0;
      chunk.push_back(t);
    }
  }
  ASSERT_TRUE(h.controller->IngestBatch(0, chunk.data(), chunk.size()).ok());
  EXPECT_EQ(h.controller->rounds_run(), 2);
  // Every period's tuples were attributed to their own round.
  EXPECT_EQ(h.controller->history()[0].tuples_processed, 50);
  EXPECT_EQ(h.controller->history()[1].tuples_processed, 50);
}

}  // namespace
}  // namespace albic
