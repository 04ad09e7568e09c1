// Measured-cost planning pins:
//  1. With telemetry off, the measured-cost path feeds the planners
//     bit-identical inputs and produces bit-identical plans/rounds — the
//     refactor cannot change any telemetry-free configuration.
//  2. On a workload whose per-tuple WALL cost is skewed (tuple counts
//     uniform, so the modeled loads see nothing), measured-cost planning
//     spreads the measurably hot groups and clears the overload that
//     tuple-count planning leaves in place — fewer overloaded periods and
//     a lower end-to-end p99.
//  3. The controller picks the migration mode PER GROUP from the cost
//     model: indirect for a large-state/short-suffix group, direct for a
//     small-state/long-suffix group, reported per migration in
//     ControllerRound::migration_decisions. A planned move whose rebuild
//     fails is recovered where it lands.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "balance/rebalancer.h"
#include "bench/skew_scenario.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "ops/aggregate.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::NodeId;
using engine::Tuple;

// ---------------------------------------------------------------------------
// 1. Bit-identity with telemetry off.
// ---------------------------------------------------------------------------

/// Deterministic rebalancer: LPT of the group loads over the retained
/// nodes. Also records every snapshot's planning inputs, so the test can
/// assert the measured-cost path fed it bit-identical loads.
class RecordingLptRebalancer : public balance::Rebalancer {
 public:
  Result<balance::RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const balance::RebalanceConstraints& constraints) override {
    (void)constraints;
    seen_loads.push_back(snapshot.group_loads);
    seen_shares.push_back(snapshot.group_service_share);
    balance::RebalancePlan plan;
    plan.assignment = engine::Assignment(
        snapshot.topology->num_key_groups());
    const std::vector<NodeId> retained = snapshot.cluster->retained_nodes();
    std::vector<double> node_load(snapshot.cluster->num_nodes_total(), 0.0);
    std::vector<KeyGroupId> order;
    for (KeyGroupId g = 0; g < snapshot.topology->num_key_groups(); ++g) {
      order.push_back(g);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](KeyGroupId a, KeyGroupId b) {
                       return snapshot.group_loads[a] >
                              snapshot.group_loads[b];
                     });
    for (KeyGroupId g : order) {
      NodeId best = retained.front();
      for (NodeId n : retained) {
        if (node_load[n] < node_load[best]) best = n;
      }
      plan.assignment.set_node(g, best);
      node_load[best] += snapshot.group_loads[g];
    }
    plan.migrations = snapshot.assignment.DiffTo(plan.assignment);
    return plan;
  }
  std::string name() const override { return "recording-lpt"; }

  std::vector<std::vector<double>> seen_loads;
  std::vector<std::vector<double>> seen_shares;
};

struct LptHarness {
  static constexpr int kGroups = 16;
  static constexpr int64_t kPeriodUs = 1000000;

  engine::Topology topo;
  engine::Cluster cluster{3};
  ops::SumByKeyOperator sum{kGroups, ops::GroupField::kKey,
                            /*emit_updates=*/false};
  RecordingLptRebalancer rebalancer;
  std::unique_ptr<engine::LocalEngine> engine;
  std::unique_ptr<core::AdaptationFramework> framework;
  engine::LoadModel load_model{engine::CostModel{}};
  std::unique_ptr<core::ControllerLoop> controller;

  explicit LptHarness(bool use_measured_costs) {
    topo.AddOperator("sum", kGroups, 1 << 10);
    engine::Assignment assign(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 3);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    // Telemetry OFF: the measured-cost path must fall back bit-identically.
    eopts.latency_sample_every = 0;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&sum}, eopts);
    framework = std::make_unique<core::AdaptationFramework>(
        &rebalancer, /*policy=*/nullptr, core::AdaptationOptions{});
    core::ControllerLoopOptions copts;
    copts.period_every_us = kPeriodUs;
    copts.node_capacity_work_units = 100.0;
    copts.use_comm = false;
    copts.use_measured_costs = use_measured_costs;
    controller = std::make_unique<core::ControllerLoop>(
        engine.get(), framework.get(), &load_model, &topo, &cluster, copts);
  }

  void Stream(int periods, int tuples_per_period) {
    for (int p = 0; p < periods; ++p) {
      for (int i = 0; i < tuples_per_period; ++i) {
        Tuple t;
        t.key = static_cast<uint64_t>(i % 7);  // skewed tuple counts
        t.ts = static_cast<int64_t>(p) * kPeriodUs +
               i * kPeriodUs / tuples_per_period;
        t.num = 1.0;
        ASSERT_TRUE(controller->Ingest(0, t).ok());
      }
    }
  }
};

TEST(MeasuredCostPlanningTest, TelemetryOffIsBitIdenticalToTupleCountPath) {
  LptHarness measured(/*use_measured_costs=*/true);
  LptHarness tuple_count(/*use_measured_costs=*/false);
  measured.Stream(5, 210);
  tuple_count.Stream(5, 210);

  // The planner saw bit-identical loads and no measured shares.
  ASSERT_EQ(measured.rebalancer.seen_loads.size(),
            tuple_count.rebalancer.seen_loads.size());
  ASSERT_GT(measured.rebalancer.seen_loads.size(), 0u);
  for (size_t i = 0; i < measured.rebalancer.seen_loads.size(); ++i) {
    EXPECT_EQ(measured.rebalancer.seen_loads[i],
              tuple_count.rebalancer.seen_loads[i]);
    EXPECT_TRUE(measured.rebalancer.seen_shares[i].empty());
  }

  // The rounds and the live engine's final allocation are identical.
  ASSERT_EQ(measured.controller->rounds_run(),
            tuple_count.controller->rounds_run());
  for (int r = 0; r < measured.controller->rounds_run(); ++r) {
    const core::ControllerRound& a = measured.controller->history()[r];
    const core::ControllerRound& b = tuple_count.controller->history()[r];
    EXPECT_EQ(a.migrations_planned, b.migrations_planned);
    EXPECT_EQ(a.migrations_applied, b.migrations_applied);
    EXPECT_DOUBLE_EQ(a.mean_load, b.mean_load);
    EXPECT_DOUBLE_EQ(a.load_distance, b.load_distance);
    EXPECT_FALSE(a.measured_costs);
    EXPECT_TRUE(a.node_service_us.empty());
    EXPECT_TRUE(b.node_service_us.empty());
  }
  for (KeyGroupId g = 0; g < LptHarness::kGroups; ++g) {
    EXPECT_EQ(measured.engine->assignment().node_of(g),
              tuple_count.engine->assignment().node_of(g));
  }
}

// ---------------------------------------------------------------------------
// 2. Skewed per-tuple wall cost: measured planning clears the overload.
//    (The harness lives in bench/skew_scenario.h, shared with
//    bench_latency's scenario 2; node capacity is probe-calibrated there,
//    so machine speed, sanitizers and CPU contention scale both sides.)
// ---------------------------------------------------------------------------

TEST(MeasuredCostPlanningTest, SkewedTupleCostMeasuredPlanningClearsOverload) {
  bench::SkewScenarioOptions opts;
  opts.hot_us = 40;
  opts.tuples_per_group = 50;
  opts.periods = 8;
  opts.checkpointed = false;  // pure planning comparison, direct moves
  opts.use_measured_costs = false;
  const bench::SkewScenarioResult tuple_count = bench::RunSkewScenario(opts);
  opts.use_measured_costs = true;
  const bench::SkewScenarioResult measured = bench::RunSkewScenario(opts);
  ASSERT_TRUE(tuple_count.ok);
  ASSERT_TRUE(measured.ok);

  // Tuple-count planning sees balanced counts: it never fixes the hot
  // node, which stays overloaded through the run.
  EXPECT_GE(tuple_count.overloaded_periods, 5);
  EXPECT_GE(tuple_count.last_round_overloaded_nodes, 1);
  EXPECT_FALSE(tuple_count.measured_rounds);

  // Measured-cost planning spreads the hot groups within the first rounds
  // and the overload disappears.
  EXPECT_TRUE(measured.measured_rounds);
  EXPECT_GT(measured.migrations, 0);
  EXPECT_EQ(measured.last_round_overloaded_nodes, 0);
  EXPECT_LT(measured.overloaded_periods, tuple_count.overloaded_periods);
}

// ---------------------------------------------------------------------------
// 3. Per-group migration-mode choice.
// ---------------------------------------------------------------------------

/// Returns a fixed plan: move the requested groups to the other node.
class FixedPlanRebalancer : public balance::Rebalancer {
 public:
  explicit FixedPlanRebalancer(std::vector<KeyGroupId> groups)
      : groups_(std::move(groups)) {}

  Result<balance::RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const balance::RebalanceConstraints&) override {
    balance::RebalancePlan plan;
    plan.assignment = snapshot.assignment;
    for (const KeyGroupId g : groups_) {
      plan.assignment.set_node(
          g, snapshot.assignment.node_of(g) == 0 ? 1 : 0);
    }
    plan.migrations = snapshot.assignment.DiffTo(plan.assignment);
    return plan;
  }
  std::string name() const override { return "fixed-plan"; }

 private:
  std::vector<KeyGroupId> groups_;
};

TEST(MeasuredCostPlanningTest, MigrationModeChosenPerGroupFromCostModel) {
  engine::Topology topo;
  // Operator 0: large modeled state per group. Operator 1: tiny state.
  topo.AddOperator("big", 2, /*state_bytes_per_group=*/8 << 20);
  topo.AddOperator("small", 2, /*state_bytes_per_group=*/64);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  ops::SumByKeyOperator big(2, ops::GroupField::kKey, false);
  ops::SumByKeyOperator small(2, ops::GroupField::kKey, false);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&big,
                                                                  &small},
                             eopts);
  engine::MemoryCheckpointStore store;
  engine::CheckpointCoordinatorOptions ccopts;
  ccopts.interval_us = int64_t{1} << 60;  // only the initial full round
  engine::CheckpointCoordinator coordinator(&store, ccopts);
  ASSERT_TRUE(engine.EnableCheckpointing(&coordinator).ok());

  const KeyGroupId big_group = topo.first_group(0);
  const KeyGroupId small_group = topo.first_group(1);
  FixedPlanRebalancer rebalancer({big_group, small_group});
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};
  core::ControllerLoopOptions copts;
  copts.period_every_us = 0;  // rounds only via RunRoundNow
  // Per-group mode selection is the default: use_indirect_migration stays
  // false, and checkpointing is on.
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  // Short suffix for the big-state group (a handful of tuples since the
  // initial checkpoint), long suffix for the small-state group.
  for (int i = 0; i < 4000; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.ts = i;
    t.num = 1.0;
    ASSERT_TRUE(controller.Ingest(1, t).ok());  // small op: long suffix
    if (i < 8) {
      ASSERT_TRUE(controller.Ingest(0, t).ok());  // big op: short suffix
    }
  }

  const Result<core::ControllerRound> round = controller.RunRoundNow();
  ASSERT_TRUE(round.ok());

  ASSERT_EQ(round->migrations_applied, 2);
  EXPECT_EQ(round->migrations_indirect, 1);
  EXPECT_EQ(round->migrations_direct, 1);
  ASSERT_EQ(round->migration_decisions.size(), 2u);
  for (const core::MigrationDecision& d : round->migration_decisions) {
    EXPECT_GT(d.predicted_pause_us, 0.0);
    EXPECT_GE(d.actual_pause_us, 0.0);
    if (d.group == big_group) {
      // Large state, short suffix: replaying the suffix is far cheaper
      // than moving the state.
      EXPECT_EQ(d.mode, engine::MigrationMode::kIndirect);
      // The indirect prediction is exact at a quiescent point.
      EXPECT_NEAR(d.predicted_pause_us, d.actual_pause_us,
                  1e-6 * std::max(1.0, d.actual_pause_us));
    } else {
      // Tiny state, long suffix: the direct move undercuts the replay.
      EXPECT_EQ(d.group, small_group);
      EXPECT_EQ(d.mode, engine::MigrationMode::kDirect);
    }
  }
}

TEST(MeasuredCostPlanningTest, LeaseModeWinsWhenOptedIn) {
  engine::Topology topo;
  topo.AddOperator("big", 2, /*state_bytes_per_group=*/8 << 20);
  topo.AddOperator("small", 2, /*state_bytes_per_group=*/64);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  ops::SumByKeyOperator big(2, ops::GroupField::kKey, false);
  ops::SumByKeyOperator small(2, ops::GroupField::kKey, false);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&big,
                                                                  &small},
                             eopts);
  // Deliberately NO checkpointing: a lease flip needs only the live slot, so
  // the opt-in must beat direct even where indirect is unavailable.

  const KeyGroupId big_group = topo.first_group(0);
  const KeyGroupId small_group = topo.first_group(1);
  FixedPlanRebalancer rebalancer({big_group, small_group});
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};
  core::ControllerLoopOptions copts;
  copts.period_every_us = 0;
  copts.use_lease_migration = true;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  for (int i = 0; i < 4000; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.ts = i;
    t.num = 1.0;
    ASSERT_TRUE(controller.Ingest(1, t).ok());
    if (i < 8) {
      ASSERT_TRUE(controller.Ingest(0, t).ok());
    }
  }

  const Result<core::ControllerRound> round = controller.RunRoundNow();
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->migrations_applied, 2);
  EXPECT_EQ(round->migrations_lease, 2);
  EXPECT_EQ(round->migrations_indirect, 0);
  EXPECT_EQ(round->migrations_direct, 0);
  ASSERT_EQ(round->migration_decisions.size(), 2u);
  for (const core::MigrationDecision& d : round->migration_decisions) {
    EXPECT_EQ(d.mode, engine::MigrationMode::kLease);
    EXPECT_STREQ(d.reason, "lease-zero-cost");
    // The full prediction is auditable: the lease's zero beat the direct
    // estimate, and the checkpoint-dependent mode was unavailable.
    EXPECT_EQ(d.est_lease_us, 0.0);
    EXPECT_GT(d.est_direct_us, 0.0);
    EXPECT_EQ(d.est_indirect_us, -1.0);
    EXPECT_EQ(d.predicted_pause_us, 0.0);
    // And the engine delivered on it: nothing travelled, nothing paused.
    EXPECT_EQ(d.actual_pause_us, 0.0);
  }
  // The round's accounted migration pause is zero end to end.
  EXPECT_EQ(round->migration_pause_us, 0.0);
}

TEST(MeasuredCostPlanningTest, LeaseOffLeavesDecisionsUnchanged) {
  // Default-off pin: without the opt-in the mode choice never considers
  // leases — est_lease_us stays at its "unavailable" sentinel
  // and the chosen modes match the pre-lease controller exactly (the
  // per-group direct/indirect split of MigrationModeChosenPerGroup).
  engine::Topology topo;
  topo.AddOperator("big", 2, /*state_bytes_per_group=*/8 << 20);
  topo.AddOperator("small", 2, /*state_bytes_per_group=*/64);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  ops::SumByKeyOperator big(2, ops::GroupField::kKey, false);
  ops::SumByKeyOperator small(2, ops::GroupField::kKey, false);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&big,
                                                                  &small},
                             eopts);
  engine::MemoryCheckpointStore store;
  engine::CheckpointCoordinatorOptions ccopts;
  ccopts.interval_us = int64_t{1} << 60;
  engine::CheckpointCoordinator coordinator(&store, ccopts);
  ASSERT_TRUE(engine.EnableCheckpointing(&coordinator).ok());

  const KeyGroupId big_group = topo.first_group(0);
  const KeyGroupId small_group = topo.first_group(1);
  FixedPlanRebalancer rebalancer({big_group, small_group});
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};
  core::ControllerLoopOptions copts;
  copts.period_every_us = 0;  // use_lease_migration stays default-false
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  for (int i = 0; i < 4000; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.ts = i;
    t.num = 1.0;
    ASSERT_TRUE(controller.Ingest(1, t).ok());
    if (i < 8) {
      ASSERT_TRUE(controller.Ingest(0, t).ok());
    }
  }

  const Result<core::ControllerRound> round = controller.RunRoundNow();
  ASSERT_TRUE(round.ok());
  ASSERT_EQ(round->migrations_applied, 2);
  EXPECT_EQ(round->migrations_lease, 0);
  EXPECT_EQ(round->migrations_indirect, 1);
  EXPECT_EQ(round->migrations_direct, 1);
  for (const core::MigrationDecision& d : round->migration_decisions) {
    EXPECT_EQ(d.est_lease_us, -1.0);  // lease never entered the choice
    EXPECT_EQ(d.mode, d.group == big_group
                          ? engine::MigrationMode::kIndirect
                          : engine::MigrationMode::kDirect);
  }
  (void)small_group;
}

TEST(MeasuredCostPlanningTest, FailedMoveIsRecoveredInTheSameRound) {
  // A planned move whose rebuild fails leaves its group lost, exactly as a
  // node failure does. Landing restores it from checkpoint + replay right
  // there, at its planned node, instead of buffering its input until the
  // next round; a first round lands its moves at once, so this happens in
  // the same round.
  class FlakyRestoreSum : public ops::SumByKeyOperator {
   public:
    using ops::SumByKeyOperator::SumByKeyOperator;
    Status DeserializeGroupState(int group_index,
                                 const std::string& data) override {
      if (fail_next) {
        fail_next = false;
        return Status::Internal("injected unreadable state image");
      }
      return ops::SumByKeyOperator::DeserializeGroupState(group_index, data);
    }
    bool fail_next = false;
  };
  constexpr int kGroups = 2;
  constexpr uint64_t kKeys = 16;
  struct Run {
    Result<core::ControllerRound> round = Status::Internal("not run");
    std::vector<KeyGroupId> lost_after_round;
    NodeId owner = engine::kInvalidNode;  ///< Group 0's node after it.
    std::vector<double> sums;             ///< Per key, at the end.
  };
  // 200 tuples, one round whose fixed plan moves group 0 to node 1 (or
  // nothing), then 20 more tuples.
  const auto run = [&](bool move) {
    engine::Topology topo;
    topo.AddOperator("sum", kGroups, 1 << 10);
    engine::Cluster cluster(2);
    engine::Assignment assign(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g);
    FlakyRestoreSum sum(kGroups, ops::GroupField::kKey, false);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    engine::LocalEngine engine(&topo, &cluster, assign,
                               std::vector<engine::StreamOperator*>{&sum},
                               eopts);
    engine::MemoryCheckpointStore store;
    engine::CheckpointCoordinatorOptions ccopts;
    ccopts.interval_us = int64_t{1} << 60;  // only the initial full round
    engine::CheckpointCoordinator coordinator(&store, ccopts);
    EXPECT_TRUE(engine.EnableCheckpointing(&coordinator).ok());
    FixedPlanRebalancer rebalancer(move ? std::vector<KeyGroupId>{0}
                                        : std::vector<KeyGroupId>{});
    core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
    engine::LoadModel load_model{engine::CostModel{}};
    core::ControllerLoopOptions copts;
    copts.period_every_us = 0;  // rounds only via RunRoundNow
    core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                    &cluster, copts);
    const auto feed = [&](int from, int count) {
      for (int i = from; i < from + count; ++i) {
        Tuple t;
        t.key = static_cast<uint64_t>(i) % kKeys;
        t.ts = i;
        t.num = 1.0 + i;
        EXPECT_TRUE(controller.Ingest(0, t).ok());
      }
    };
    feed(0, 200);
    sum.fail_next = move;
    Run out;
    out.round = controller.RunRoundNow();
    out.lost_after_round = engine.lost_groups();
    out.owner = engine.assignment().node_of(0);
    feed(200, 20);
    engine.Flush();
    for (uint64_t k = 0; k < kKeys; ++k) {
      out.sums.push_back(
          sum.SumFor(engine::LocalEngine::RouteKey(k, kGroups), k));
    }
    return out;
  };

  const Run unmigrated = run(/*move=*/false);
  const Run failed = run(/*move=*/true);
  ASSERT_TRUE(failed.round.ok()) << failed.round.status().ToString();
  EXPECT_EQ(failed.round->migrations_planned, 1);
  EXPECT_EQ(failed.round->migrations_applied, 0);
  EXPECT_EQ(failed.round->nodes_failed, 0);
  EXPECT_EQ(failed.round->groups_recovered, 1);
  EXPECT_GT(failed.round->tuples_replayed, 0);
  EXPECT_GT(failed.round->recovery_wall_us, 0.0);
  EXPECT_TRUE(failed.lost_after_round.empty())
      << "the group whose move failed must not stay lost past its round";
  EXPECT_EQ(failed.owner, 1) << "restored at its planned node";
  EXPECT_EQ(failed.sums, unmigrated.sums);
}

}  // namespace
}  // namespace albic
