// The online control loop must close the measure -> decide -> act cycle on
// real engine measurements: rounds fire at event-time period boundaries
// (with latency telemetry off or on), overload measured from the stream
// triggers scale-out, the planned migrations land on the live engine, and a
// cooling stream scales back in. A round's moves land one at a time across
// the following period: each at the first ingest whose tuple reaches its due
// time, reported by the next record, with the previous plan's leftovers
// landed before every harvest.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "common/metrics_registry.h"
#include "core/controller_loop.h"
#include "core/round_journal.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "ops/aggregate.h"
#include "scaling/scaling_policy.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::NodeId;
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

  explicit Harness(int latency_sample_every = 0, double plan_cap_ms = 5,
                   MetricsRegistry* metrics = nullptr)
      : rebalancer([plan_cap_ms] {
          balance::MilpRebalancerOptions mopts;
          mopts.time_budget_ms = plan_cap_ms;
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
    copts.metrics = metrics;
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

TEST(ControllerLoopTest, RecordsPlansCutShortByTheirCap) {
  // A zero cap stops every solve before it converges; a 10 s one lets each
  // converge. The round record, its journal line and the counter agree.
  for (const double cap_ms : {0.0, 10000.0}) {
    SCOPED_TRACE(cap_ms);
    const bool capped = cap_ms == 0.0;
    MetricsRegistry metrics;
    Harness h(/*latency_sample_every=*/0, cap_ms, &metrics);
    h.Stream(/*periods=*/4, /*tuples_per_period=*/100);
    ASSERT_EQ(h.controller->rounds_run(), 3);
    for (const core::ControllerRound& r : h.controller->history()) {
      EXPECT_EQ(r.plan_capped, capped);
      EXPECT_NE(core::RoundJournal::ToJson(r).find(
                    capped ? "\"plan_capped\":true" : "\"plan_capped\":false"),
                std::string::npos);
    }
    EXPECT_EQ(metrics.Counter("controller_plans_capped_total")->value(),
              capped ? 3 : 0);
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

// ---------------------------------------------------------------------------
// The move schedule
// ---------------------------------------------------------------------------

/// Returns scripted plans, one per round (no moves once the script runs
/// out), and records the assignment each round planned from and the one it
/// planned.
class ScriptedRebalancer : public balance::Rebalancer {
 public:
  /// One round's moves: (group, target node).
  using Moves = std::vector<std::pair<KeyGroupId, NodeId>>;

  explicit ScriptedRebalancer(std::vector<Moves> script)
      : script_(std::move(script)) {}

  Result<balance::RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const balance::RebalanceConstraints&) override {
    seen.push_back(snapshot.assignment);
    balance::RebalancePlan plan;
    plan.assignment = snapshot.assignment;
    if (seen.size() <= script_.size()) {
      for (const auto& [group, to] : script_[seen.size() - 1]) {
        plan.assignment.set_node(group, to);
      }
    }
    plan.migrations = snapshot.assignment.DiffTo(plan.assignment);
    planned.push_back(plan.assignment);
    return plan;
  }
  std::string name() const override { return "scripted"; }

  std::vector<engine::Assignment> seen;     ///< Each round's input.
  std::vector<engine::Assignment> planned;  ///< Each round's plan.

 private:
  std::vector<Moves> script_;
};

/// Sums whose next state restore can be made to fail, as an unreadable
/// image would.
class FlakyRestoreSum : public ops::SumByKeyOperator {
 public:
  using ops::SumByKeyOperator::SumByKeyOperator;
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override {
    if (fail_next_restore) {
      fail_next_restore = false;
      return Status::Internal("injected unreadable state image");
    }
    return ops::SumByKeyOperator::DeserializeGroupState(group_index, data);
  }
  bool fail_next_restore = false;
};

/// A deterministic controller (scripted plans, tuple-count loads, rounds
/// only through RunRoundNow) over six checkpointed sum groups on three
/// nodes, group g on node g % 3.
struct ScheduleHarness {
  static constexpr int kGroups = 6;
  static constexpr uint64_t kKeys = 97;

  engine::Topology topo;
  engine::Cluster cluster{3};
  FlakyRestoreSum sum{kGroups, ops::GroupField::kKey, /*emit_updates=*/false};
  std::unique_ptr<engine::LocalEngine> engine;
  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  ScriptedRebalancer rebalancer;
  std::unique_ptr<core::AdaptationFramework> framework;
  engine::LoadModel load_model{engine::CostModel{}};
  std::unique_ptr<core::ControllerLoop> controller;

  explicit ScheduleHarness(std::vector<ScriptedRebalancer::Moves> script)
      : rebalancer(std::move(script)) {
    topo.AddOperator("sum", kGroups, 1 << 10);
    engine::Assignment assign(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 3);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&sum}, eopts);
    engine::CheckpointCoordinatorOptions ccopts;
    ccopts.interval_us = 500;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&store, ccopts);
    EXPECT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
    framework = std::make_unique<core::AdaptationFramework>(
        &rebalancer, /*policy=*/nullptr, core::AdaptationOptions{});
    core::ControllerLoopOptions copts;
    copts.period_every_us = 0;
    copts.use_comm = false;
    copts.use_measured_costs = false;
    controller = std::make_unique<core::ControllerLoop>(
        engine.get(), framework.get(), &load_model, &topo, &cluster, copts);
  }

  /// One tuple at event time \p ts, through Ingest or, pre-routed to its
  /// group, through IngestRouted.
  void Feed(int64_t ts, bool routed = false) {
    Tuple t;
    t.key = static_cast<uint64_t>(ts) % kKeys;
    t.ts = ts;
    t.num = 1.0 + static_cast<double>(ts % 7);
    const Status st =
        routed ? controller->IngestRouted(
                     0, /*shard=*/0,
                     engine::LocalEngine::RouteKey(t.key, kGroups), &t, 1)
               : controller->Ingest(0, t);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  /// One tuple every 10 us of event time in [from, to).
  void FeedRange(int64_t from, int64_t to, bool routed = false) {
    for (int64_t ts = from; ts < to; ts += 10) Feed(ts, routed);
  }

  /// Every key's sum, after draining the engine.
  std::vector<double> Sums() {
    engine->Flush();
    std::vector<double> sums;
    for (uint64_t k = 0; k < kKeys; ++k) {
      sums.push_back(
          sum.SumFor(engine::LocalEngine::RouteKey(k, kGroups), k));
    }
    return sums;
  }
};

TEST(ControllerLoopScheduleTest, MovesLandAtTheirDueTimesInPlanOrder) {
  for (const bool routed : {false, true}) {
    SCOPED_TRACE(routed ? "IngestRouted" : "Ingest");
    // Round 0 plans nothing; round 1 plans three moves.
    ScheduleHarness h({{}, {{0, 1}, {1, 2}, {2, 0}}});
    h.FeedRange(0, 1000, routed);  // event time 990
    ASSERT_TRUE(h.controller->RunRoundNow().ok());
    h.FeedRange(1000, 2000, routed);  // event time 1990
    const engine::Assignment before = h.engine->assignment();
    const Result<core::ControllerRound> r1 = h.controller->RunRoundNow();
    ASSERT_TRUE(r1.ok());
    // A round after the first lands none of its moves before it returns.
    EXPECT_EQ(h.engine->assignment(), before);
    EXPECT_EQ(r1->migrations_planned, 0);
    EXPECT_EQ(r1->migrations_applied, 0);

    // 1000 us of event time since round 0: the i-th of the three moves is
    // due at 1990 + i * 1000 / 4.
    const KeyGroupId groups[] = {0, 1, 2};
    const NodeId targets[] = {1, 2, 0};
    const int64_t due[] = {2240, 2490, 2740};
    const std::deque<core::ControllerLoop::PendingMove>& pending =
        h.controller->pending_moves();
    ASSERT_EQ(pending.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(pending[i].move.group, groups[i]);
      EXPECT_EQ(pending[i].due_us, due[i]);
    }
    // Each lands at the first ingest whose tuple reaches its due time, in
    // plan order.
    for (int64_t ts = 2000; ts < 3000; ts += 10) {
      h.Feed(ts, routed);
      for (size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(h.engine->assignment().node_of(groups[i]),
                  ts >= due[i] ? targets[i] : before.node_of(groups[i]))
            << "move " << i << " after the tuple at " << ts;
      }
    }
    EXPECT_TRUE(pending.empty());

    // The next record reports those moves.
    const Result<core::ControllerRound> r2 = h.controller->RunRoundNow();
    ASSERT_TRUE(r2.ok());
    EXPECT_EQ(r2->migrations_planned, 3);
    EXPECT_EQ(r2->migrations_applied, 3);
    ASSERT_EQ(r2->migration_decisions.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(r2->migration_decisions[i].group, groups[i]);
      EXPECT_EQ(r2->migration_decisions[i].to, targets[i]);
    }
  }
}

TEST(ControllerLoopScheduleTest, FirstRoundAndZeroGapRoundLandAtOnce) {
  ScheduleHarness h({{{0, 1}, {1, 2}}, {{0, 2}}});
  h.FeedRange(0, 1000);
  // No earlier round: nothing to spread the moves over.
  const Result<core::ControllerRound> r0 = h.controller->RunRoundNow();
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(h.controller->pending_moves().empty());
  EXPECT_EQ(h.engine->assignment().node_of(0), 1);
  EXPECT_EQ(h.engine->assignment().node_of(1), 2);
  EXPECT_EQ(r0->migrations_applied, 2);
  // No event time since the previous round: likewise.
  const Result<core::ControllerRound> r1 = h.controller->RunRoundNow();
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(h.controller->pending_moves().empty());
  EXPECT_EQ(h.engine->assignment().node_of(0), 2);
  EXPECT_EQ(r1->migrations_applied, 1);
}

TEST(ControllerLoopScheduleTest, EachRoundPlansFromThePreviousPlanApplied) {
  // Before rounds 2 and 4 the stream stops short of the first due time, so
  // every pending move is a leftover; before round 3 all of them land in
  // the stream. Either way the round lands them before it harvests.
  ScheduleHarness h({{},
                     {{0, 1}, {3, 2}},
                     {{1, 0}, {4, 0}},
                     {{0, 2}, {5, 1}},
                     {{2, 1}}});
  const int64_t spans[] = {1000, 1000, 100, 1000, 50};
  const size_t leftovers[] = {0, 0, 2, 0, 2};
  int64_t ts = 0;
  for (int r = 0; r < 5; ++r) {
    h.FeedRange(ts, ts + spans[r]);
    ts += spans[r];
    EXPECT_EQ(h.controller->pending_moves().size(), leftovers[r])
        << "round " << r;
    ASSERT_TRUE(h.controller->RunRoundNow().ok());
  }
  ASSERT_EQ(h.rebalancer.seen.size(), 5u);
  for (size_t r = 1; r < 5; ++r) {
    SCOPED_TRACE(r);
    EXPECT_EQ(h.rebalancer.seen[r], h.rebalancer.planned[r - 1]);
    // The record reports exactly the previous plan's moves.
    EXPECT_EQ(h.controller->history()[r].migrations_applied,
              static_cast<int>(h.rebalancer.seen[r - 1]
                                   .DiffTo(h.rebalancer.planned[r - 1])
                                   .size()));
  }
}

TEST(ControllerLoopScheduleTest, KillDropsAPendingMoveTowardTheDeadNode) {
  // Round 1 plans group 0 to node 2 and group 1 to node 0, due at 2323 and
  // 2656; node 2 dies before either. KillNode's eager round lands the
  // leftovers before it harvests: the engine drops the move toward the dead
  // node and makes the other, and nothing is lost.
  const auto run = [](bool kill) {
    ScheduleHarness h({{}, {{0, 2}, {1, 0}}});
    h.FeedRange(0, 1000);
    EXPECT_TRUE(h.controller->RunRoundNow().ok());
    h.FeedRange(1000, 2000);
    EXPECT_TRUE(h.controller->RunRoundNow().ok());
    h.FeedRange(2000, 2100);
    EXPECT_EQ(h.controller->pending_moves().size(), 2u);
    if (kill) {
      EXPECT_TRUE(h.controller->KillNode(2).ok());
      EXPECT_TRUE(h.controller->pending_moves().empty());
      const core::ControllerRound& eager = h.controller->history().back();
      EXPECT_EQ(eager.nodes_failed, 1);
      EXPECT_EQ(eager.migrations_planned, 2);
      EXPECT_EQ(eager.migrations_applied, 1);
      EXPECT_EQ(eager.groups_recovered, 2);  // groups 2 and 5
      EXPECT_TRUE(h.engine->lost_groups().empty());
      EXPECT_EQ(h.engine->assignment().node_of(0), 0);
      EXPECT_EQ(h.engine->assignment().node_of(1), 0);
    }
    h.FeedRange(2100, 4000);
    EXPECT_TRUE(h.controller->RunRoundNow().ok());
    return h.Sums();
  };
  const std::vector<double> killed = run(/*kill=*/true);
  EXPECT_EQ(killed, run(/*kill=*/false));
}

TEST(ControllerLoopScheduleTest, FailedRebuildIsRestoredWhereTheMoveLands) {
  // A move whose rebuild fails at an ingest-time landing leaves its group
  // lost, as a node failure does; it is restored from checkpoint + replay
  // at its planned node right there, and the next record reports it.
  const auto run = [](bool fail) {
    ScheduleHarness h({{}, {{0, 1}}});
    h.FeedRange(0, 1000);
    EXPECT_TRUE(h.controller->RunRoundNow().ok());
    h.FeedRange(1000, 2000);
    EXPECT_TRUE(h.controller->RunRoundNow().ok());
    h.sum.fail_next_restore = fail;
    h.FeedRange(2000, 3000);  // the move is due at 2490
    EXPECT_TRUE(h.engine->lost_groups().empty());
    EXPECT_EQ(h.engine->assignment().node_of(0), 1);
    const Result<core::ControllerRound> r = h.controller->RunRoundNow();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->migrations_planned, 1);
    EXPECT_EQ(r->migrations_applied, fail ? 0 : 1);
    EXPECT_EQ(r->groups_recovered, fail ? 1 : 0);
    EXPECT_EQ(r->recovery_wall_us > 0.0, fail);
    return h.Sums();
  };
  const std::vector<double> failed = run(/*fail=*/true);
  EXPECT_EQ(failed, run(/*fail=*/false));
}

}  // namespace
}  // namespace albic
