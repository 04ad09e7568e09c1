// The online control loop must close the measure -> decide -> act cycle on
// real engine measurements: rounds fire at event-time period boundaries,
// overload measured from the stream triggers scale-out, the planned
// migrations land on the live engine, a cooling stream scales back in, and
// the latency-SLO trigger fires rounds early (with cooldown) when the
// observed end-to-end p99 breaches its bound.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
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

  Harness()
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
  Harness h;
  h.Stream(/*periods=*/4, /*tuples_per_period=*/100);
  // Boundaries passed at the first tuple of periods 1, 2, 3.
  EXPECT_EQ(h.controller->rounds_run(), 3);
  for (const core::ControllerRound& r : h.controller->history()) {
    EXPECT_GT(r.tuples_processed, 0);
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

/// A deliberately slow terminal operator: every delivered batch costs
/// ~1 ms of wall time, so the measured end-to-end p99 is far above any
/// microsecond-scale SLO bound — deterministically, on any machine.
class SlowSinkOperator : public engine::StreamOperator {
 public:
  void Process(const engine::Tuple& tuple, int, engine::Emitter*) override {
    (void)tuple;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void ProcessBatch(const engine::TupleBatch& batch, int,
                    engine::Emitter*) override {
    (void)batch;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

TEST(ControllerLoopTest, SloBreachTriggersEarlyRoundWithCooldown) {
  engine::Topology topo;
  topo.AddOperator("slow", kGroups, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(kGroups);
  for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 2);
  SlowSinkOperator slow;
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  eopts.max_batch_tuples = 64;        // drain (and measure) often
  eopts.latency_sample_every = 16;    // telemetry on
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&slow},
                             eopts);

  balance::MilpRebalancerOptions mopts;
  mopts.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
  mopts.time_budget_ms = 5;
  balance::MilpRebalancer rebalancer(mopts);
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};

  core::ControllerLoopOptions copts;
  // No boundary rounds within the stream: any round that runs was fired by
  // the SLO trigger.
  copts.period_every_us = 3600LL * 1000 * 1000;
  copts.node_capacity_work_units = 100.0;
  copts.use_comm = false;
  copts.slo.p99_bound_us = 100;          // ~1 ms measured >> 100 us bound
  copts.slo.min_samples = 4;
  copts.slo.check_every_us = 10 * 1000;  // every 10 ms of event time
  copts.slo.cooldown_us = 100 * 1000;    // 0.1 s event-time cooldown
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  // 1 s of event time in 100-tuple chunks.
  std::vector<Tuple> chunk;
  for (int c = 0; c < 20; ++c) {
    chunk.clear();
    for (int i = 0; i < 100; ++i) {
      Tuple t;
      t.key = static_cast<uint64_t>(i);
      t.ts = (c * 100 + i) * 500;  // 0.5 ms event time per tuple
      chunk.push_back(t);
    }
    ASSERT_TRUE(controller.IngestBatch(0, chunk.data(), chunk.size()).ok());
  }

  // The breach fired at least one early round, attributed as SLO-triggered
  // and carrying the measured percentiles that justified it.
  ASSERT_GE(controller.rounds_run(), 1);
  EXPECT_TRUE(controller.history()[0].slo_triggered);
  EXPECT_GT(controller.history()[0].latency.e2e_p99_us,
            copts.slo.p99_bound_us);
  EXPECT_GT(controller.history()[0].latency.e2e_count, 0);
  EXPECT_EQ(controller.slo_policy().triggered_rounds(),
            controller.rounds_run());
  // Cooldown + backoff bound the trigger rate: within 1 s of event time at
  // a 0.1 s base cooldown (doubling each consecutive breach), no more than
  // a handful of rounds can fire — a breach must not thrash the loop.
  EXPECT_LE(controller.rounds_run(), 6);
  EXPECT_GT(controller.slo_policy().current_cooldown_us(),
            copts.slo.cooldown_us);
}

TEST(ControllerLoopTest, SloDisabledFiresNoEarlyRounds) {
  Harness h;  // telemetry off, slo off
  h.Stream(/*periods=*/1, /*tuples_per_period=*/100);
  EXPECT_EQ(h.controller->rounds_run(), 0);
  EXPECT_EQ(h.controller->slo_policy().triggered_rounds(), 0);
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
