#include "core/experiment_driver.h"

#include <gtest/gtest.h>

#include "balance/milp_rebalancer.h"
#include "workload/synthetic_collocation.h"

namespace albic::core {
namespace {

using balance::MilpRebalancerOptions;
using workload::SyntheticCollocationOptions;
using workload::SyntheticCollocationWorkload;

SyntheticCollocationOptions SmallOptions() {
  SyntheticCollocationOptions opts;
  opts.nodes = 4;
  opts.key_groups = 40;
  opts.operators = 4;
  opts.max_collocation_pct = 50.0;
  opts.seed = 5;
  return opts;
}

TEST(ExperimentDriverTest, RunsAllPeriodsAndRecordsStats) {
  SyntheticCollocationWorkload wl(SmallOptions());
  engine::Cluster cluster = wl.MakeCluster();
  engine::Assignment assign = wl.MakeInitialAssignment();
  MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 5;
  balance::MilpRebalancer rebalancer(mopts);
  AdaptationOptions aopts;
  aopts.constraints.max_migrations = 5;
  AdaptationFramework fw(&rebalancer, nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});
  DriverOptions dopts;
  dopts.periods = 8;
  ExperimentDriver driver(&wl.topology(), &cluster, &assign, &wl, &fw,
                          &load_model, dopts);
  auto stats = driver.Run();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->num_periods(), 8);
  for (const auto& p : stats->series()) {
    EXPECT_GE(p.load_distance, 0.0);
    EXPECT_GT(p.total_load, 0.0);
    EXPECT_LE(p.migrations, 5);
    EXPECT_EQ(p.active_nodes, 4);
  }
}

TEST(ExperimentDriverTest, AdaptationReducesLoadDistanceOverTime) {
  SyntheticCollocationOptions wopts = SmallOptions();
  wopts.fluct_pct = 0.0;  // static workload: balancer should converge
  SyntheticCollocationWorkload wl(wopts);
  engine::Cluster cluster = wl.MakeCluster();
  // Deliberately terrible start: everything on node 0.
  engine::Assignment assign(wl.num_key_groups());
  for (engine::KeyGroupId g = 0; g < wl.num_key_groups(); ++g) {
    assign.set_node(g, 0);
  }
  MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer rebalancer(mopts);
  AdaptationOptions aopts;
  aopts.constraints.max_migrations = 8;
  AdaptationFramework fw(&rebalancer, nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});
  DriverOptions dopts;
  dopts.periods = 10;
  ExperimentDriver driver(&wl.topology(), &cluster, &assign, &wl, &fw,
                          &load_model, dopts);
  auto stats = driver.Run();
  ASSERT_TRUE(stats.ok());
  const auto& series = stats->series();
  EXPECT_LT(series.back().load_distance, series.front().load_distance + 1.0);
  EXPECT_LT(series.back().load_distance, 5.0);
}

TEST(ExperimentDriverTest, LoadIndexBaselineIsFirstPeriods) {
  SyntheticCollocationWorkload wl(SmallOptions());
  engine::Cluster cluster = wl.MakeCluster();
  engine::Assignment assign = wl.MakeInitialAssignment();
  MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 5;
  balance::MilpRebalancer rebalancer(mopts);
  AdaptationFramework fw(&rebalancer, nullptr, AdaptationOptions{});
  engine::LoadModel load_model(engine::CostModel{});
  DriverOptions dopts;
  dopts.periods = 4;
  dopts.baseline_periods = 2;
  ExperimentDriver driver(&wl.topology(), &cluster, &assign, &wl, &fw,
                          &load_model, dopts);
  ASSERT_TRUE(driver.Run().ok());
  EXPECT_NEAR(driver.stats().LoadIndexAt(0), 100.0, 25.0);
}

}  // namespace
}  // namespace albic::core
