// End-to-end: the real tuple runtime (LocalEngine) executing Real Job 2's
// operators, with ALBIC discovering the per-plane collocation at runtime
// from the runtime's own measured statistics — the full §5.4 loop, scaled
// down.

#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "core/albic.h"
#include "engine/local_engine.h"
#include "engine/migration.h"
#include "ops/aggregate.h"
#include "ops/extract.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::LocalEngine;
using engine::NodeId;
using engine::Topology;

constexpr int kNodes = 4;
constexpr int kGroups = 8;  // per operator

struct Job2 {
  Topology topo;
  Cluster cluster{kNodes};
  ops::DelayExtractOperator extract{kGroups};
  ops::SumByKeyOperator sum{kGroups, ops::GroupField::kKey,
                            /*emit_updates=*/false};
  std::unique_ptr<LocalEngine> engine;

  Job2() {
    topo.AddOperator("extract", kGroups, 1 << 16);
    topo.AddOperator("sum", kGroups, 1 << 16);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kOneToOne).ok());
    // Adversarial start: partner groups on different nodes.
    Assignment assign(2 * kGroups);
    for (int i = 0; i < kGroups; ++i) {
      assign.set_node(i, i % kNodes);
      assign.set_node(kGroups + i, (i + kNodes / 2) % kNodes);
    }
    engine::LocalEngineOptions opts;
    opts.serde_cost = 1.0;
    opts.window_every_us = 0;
    engine = std::make_unique<LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&extract, &sum}, opts);
  }
};

TEST(EndToEndTest, AlbicCollocatesRealJob2FromRuntimeStats) {
  Job2 job;
  workload::AirlineFlightStream flights(200, 12, 77);

  core::AlbicOptions aopts;
  // A cap the search never reaches, so the plans checked below are the
  // converged search's on any host, a sanitizer's slowdown included.
  aopts.milp.time_budget_ms = 10000;
  core::Albic albic(aopts);
  engine::MigrationCostModel mig_model;

  double first_period_work = 0.0;
  double last_period_work = 0.0;
  double total_delay_injected = 0.0;

  for (int period = 0; period < 12; ++period) {
    for (int i = 0; i < 1500; ++i) {
      engine::Tuple t = flights.Next();
      total_delay_injected += t.num;
      ASSERT_TRUE(job.engine->Inject(0, t).ok());
    }
    engine::EnginePeriodStats stats = job.engine->HarvestPeriod();
    const double period_work = std::accumulate(stats.node_work.begin(),
                                               stats.node_work.end(), 0.0);
    if (period == 0) first_period_work = period_work;
    last_period_work = period_work;

    // Build the controller's snapshot from the runtime's measurements,
    // normalized into percent-of-node scale (the controller's statistics
    // job): total work maps to a 50% mean cluster load.
    const double scale =
        period_work > 0.0 ? kNodes * 50.0 / period_work : 1.0;
    engine::SystemSnapshot snap;
    snap.topology = &job.topo;
    snap.cluster = &job.cluster;
    snap.comm = &stats.comm;
    snap.assignment = job.engine->assignment();
    snap.group_loads = stats.group_work;
    for (double& l : snap.group_loads) l *= scale;
    snap.node_loads = stats.node_work;
    for (double& l : snap.node_loads) l *= scale;
    snap.migration_costs = engine::AllMigrationCosts(job.topo, mig_model);

    balance::RebalanceConstraints cons;
    cons.max_migrations = 3;
    auto plan = albic.ComputePlan(snap, cons);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const engine::Migration& m : plan->migrations) {
      ASSERT_TRUE(job.engine->MigrateGroup(m.group, m.to).ok());
    }
  }

  // Collocation discovered: one-to-one partners ended up together for most
  // pairs, so serde work fell measurably.
  int collocated_pairs = 0;
  for (int i = 0; i < kGroups; ++i) {
    if (job.engine->assignment().node_of(i) ==
        job.engine->assignment().node_of(kGroups + i)) {
      ++collocated_pairs;
    }
  }
  EXPECT_GE(collocated_pairs, kGroups / 2);
  EXPECT_LT(last_period_work, first_period_work * 0.95);

  // State integrity across all migrations: every injected delay minute is
  // accounted for in the sums (extract drops only on-time flights).
  double total_summed = 0.0;
  for (int g = 0; g < kGroups; ++g) total_summed += job.sum.GroupTotal(g);
  EXPECT_NEAR(total_summed, total_delay_injected, 1e-6);
}

TEST(EndToEndTest, MigrationsDuringTrafficLoseNothing) {
  Job2 job;
  workload::AirlineFlightStream flights(100, 10, 13);
  double injected = 0.0;
  // Interleave messages and migrations aggressively.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      engine::Tuple t = flights.Next();
      injected += t.num;
      ASSERT_TRUE(job.engine->Inject(0, t).ok());
    }
    job.engine->Flush();
    const KeyGroupId g = static_cast<KeyGroupId>(round % (2 * kGroups));
    const NodeId target =
        (job.engine->assignment().node_of(g) + 1) % kNodes;
    ASSERT_TRUE(job.engine->StartMigration(g, target).ok());
    // Traffic lands while the group is in flight: flushed before the
    // finish, so the group's share reaches its migration buffer rather
    // than staying staged until after the flip.
    for (int i = 0; i < 10; ++i) {
      engine::Tuple t = flights.Next();
      injected += t.num;
      ASSERT_TRUE(job.engine->Inject(0, t).ok());
    }
    job.engine->Flush();
    ASSERT_TRUE(job.engine->FinishMigration(g).ok());
  }
  EXPECT_GT(job.engine->HarvestPeriod().tuples_buffered, 0);
  double summed = 0.0;
  for (int g = 0; g < kGroups; ++g) summed += job.sum.GroupTotal(g);
  EXPECT_NEAR(summed, injected, 1e-6);
}

}  // namespace
}  // namespace albic
