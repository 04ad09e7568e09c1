#include "balance/milp_rebalancer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "tests/milp/exact_rebalance.h"

namespace albic::balance {
namespace {

using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::NodeId;
using engine::SystemSnapshot;
using engine::Topology;

struct Fixture {
  Topology topo;
  Cluster cluster;
  SystemSnapshot snap;

  Fixture(int nodes, std::vector<double> loads,
          std::vector<NodeId> placement = {})
      : cluster(nodes) {
    topo.AddOperator("op", static_cast<int>(loads.size()), 1 << 20);
    Assignment assign(static_cast<int>(loads.size()));
    for (KeyGroupId g = 0; g < assign.num_groups(); ++g) {
      assign.set_node(g, placement.empty()
                             ? g % nodes
                             : placement[static_cast<size_t>(g)]);
    }
    snap.topology = &topo;
    snap.cluster = &cluster;
    snap.assignment = assign;
    snap.group_loads = std::move(loads);
    snap.migration_costs.assign(snap.group_loads.size(), 1.0);
    snap.node_loads.assign(static_cast<size_t>(nodes), 0.0);
  }
};

// The exact oracle (tests/milp/exact_rebalance.h) stands in for the paper's
// CPLEX solve of §4.3.1. Every oracle call asserts kOptimal, so a solve its
// node budget stopped fails rather than comparing against an unproven
// incumbent.

TEST(MilpRebalancerTest, ExactModeBalancesPerfectlyWhenPossible) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  auto exact =
      milp::SolveExact(f.snap, ItemsFromGroups(f.snap), RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(exact->plan.predicted_load_distance, 0.0, 1e-6);
  EXPECT_EQ(exact->plan.migrations.size(), 2u);  // exactly two groups move
}

TEST(MilpRebalancerTest, PlanReportsWhetherACapCutItsSolveShort) {
  // A zero local-search cap stops the search before it converges; a 2 s
  // cap lets it run to completion.
  Fixture f(2, {7, 5, 4, 3, 1}, {0, 0, 0, 0, 0});
  for (const bool cut : {true, false}) {
    MilpRebalancerOptions opts;
    opts.time_budget_ms = cut ? 0.0 : 2000.0;
    MilpRebalancer r(opts);
    auto plan = r.ComputePlan(f.snap, RebalanceConstraints{});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->capped, cut);
  }
}

TEST(MilpRebalancerTest, ExactRespectsMigrationCountConstraint) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  RebalanceConstraints cons;
  cons.max_migrations = 1;
  auto exact = milp::SolveExact(f.snap, ItemsFromGroups(f.snap), cons);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  EXPECT_LE(exact->plan.migrations.size(), 1u);
  EXPECT_NEAR(exact->plan.predicted_load_distance, 10.0, 1e-5);
}

TEST(MilpRebalancerTest, ExactRespectsMigrationCostConstraint) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  f.snap.migration_costs = {3.0, 3.0, 3.0, 3.0};
  RebalanceConstraints cons;
  cons.max_migration_cost = 3.0;
  auto exact = milp::SolveExact(f.snap, ItemsFromGroups(f.snap), cons);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  double cost = 0.0;
  for (const auto& m : exact->plan.migrations) {
    cost += f.snap.migration_costs[m.group];
  }
  EXPECT_LE(cost, 3.0 + 1e-9);
}

TEST(MilpRebalancerTest, ExactMatchesBruteForceOptimum) {
  // 6 groups with uneven loads over 2 nodes, unrestricted: compare the MILP
  // distance to exhaustive enumeration of all 2^6 placements.
  std::vector<double> loads = {7, 3, 9, 4, 6, 2};
  Fixture f(2, loads, {0, 0, 0, 1, 1, 1});
  double best = 1e18;
  for (int mask = 0; mask < 64; ++mask) {
    double l0 = 0, l1 = 0;
    for (int g = 0; g < 6; ++g) {
      (mask & (1 << g)) != 0 ? l1 += loads[g] : l0 += loads[g];
    }
    const double mean = (l0 + l1) / 2.0;
    best = std::min(best,
                    std::max(std::fabs(l0 - mean), std::fabs(l1 - mean)));
  }
  auto exact =
      milp::SolveExact(f.snap, ItemsFromGroups(f.snap), RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(exact->plan.predicted_load_distance, best, 1e-5);
}

// Lemma 2 (§4.3.1): the optimum moves ALL key groups off nodes marked for
// removal (given sufficient budget).
TEST(MilpRebalancerTest, Lemma2ExactDrainsMarkedNodes) {
  Fixture f(3, {10, 10, 10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  auto exact =
      milp::SolveExact(f.snap, ItemsFromGroups(f.snap), RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  EXPECT_EQ(exact->plan.assignment.count_on(2), 0);
}

// Lemma 1 (§4.3.1): no key group migrates from A into B.
TEST(MilpRebalancerTest, Lemma1NothingMovesIntoMarkedNodes) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> loads;
    for (int g = 0; g < 9; ++g) loads.push_back(rng.Uniform(2.0, 12.0));
    Fixture f(3, loads);
    ASSERT_TRUE(f.cluster.MarkForRemoval(1).ok());
    RebalanceConstraints cons;
    cons.max_migrations = 3;  // tight budget: partial drain allowed
    auto exact = milp::SolveExact(f.snap, ItemsFromGroups(f.snap), cons);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
    for (const auto& m : exact->plan.migrations) {
      EXPECT_NE(m.to, 1) << "group migrated INTO a node marked for removal";
    }
  }
}

TEST(MilpRebalancerTest, HeuristicModeHandlesLargeInstances) {
  Rng rng(5);
  std::vector<double> loads;
  for (int g = 0; g < 400; ++g) loads.push_back(rng.Uniform(1.0, 6.0));
  Fixture f(20, loads);
  MilpRebalancerOptions opts;
  opts.time_budget_ms = 30;
  MilpRebalancer r(opts);
  RebalanceConstraints cons;
  cons.max_migrations = 20;
  auto plan = r.ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->migrations.size(), 20u);
}

TEST(MilpRebalancerTest, HeuristicNearExactOnSmallInstance) {
  // On a small instance the heuristic should land within a group-size of
  // the exact optimum.
  std::vector<double> loads = {8, 6, 5, 4, 3, 2, 2, 1};
  Fixture f1(2, loads, {0, 0, 0, 0, 1, 1, 1, 1});
  Fixture f2(2, loads, {0, 0, 0, 0, 1, 1, 1, 1});
  MilpRebalancerOptions heur_opts;
  heur_opts.time_budget_ms = 50;
  MilpRebalancer heur(heur_opts);
  auto pe = milp::SolveExact(f1.snap, ItemsFromGroups(f1.snap),
                             RebalanceConstraints{});
  auto ph = heur.ComputePlan(f2.snap, RebalanceConstraints{});
  ASSERT_TRUE(pe.ok()) << pe.status().ToString();
  ASSERT_EQ(pe->status, milp::MilpStatus::kOptimal);
  ASSERT_TRUE(ph.ok());
  EXPECT_LE(ph->predicted_load_distance,
            pe->plan.predicted_load_distance + 1.01);
}

TEST(MilpRebalancerTest, PinnedItemsHonoredInExactMode) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 1, 1});
  std::vector<BalanceItem> items = ItemsFromGroups(f.snap);
  items[0].pinned = 1;
  items[1].pinned = 1;
  auto exact = milp::SolveExact(f.snap, items, RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  const engine::Assignment& placed = exact->plan.assignment;
  EXPECT_EQ(placed.node_of(0), 1);
  EXPECT_EQ(placed.node_of(1), 1);
  // The remaining groups should rebalance toward node 0.
  EXPECT_EQ(placed.node_of(2), 0);
  EXPECT_EQ(placed.node_of(3), 0);
}

TEST(MilpRebalancerTest, HeterogeneousNodesBalancePercentNotRaw) {
  Topology topo;
  topo.AddOperator("op", 6, 1 << 20);
  Cluster cluster;
  cluster.AddNode(1.0);
  cluster.AddNode(2.0);
  SystemSnapshot snap;
  snap.topology = &topo;
  snap.cluster = &cluster;
  Assignment assign(6);
  for (KeyGroupId g = 0; g < 6; ++g) assign.set_node(g, 0);
  snap.assignment = assign;
  snap.group_loads.assign(6, 10.0);
  snap.migration_costs.assign(6, 1.0);
  auto exact =
      milp::SolveExact(snap, ItemsFromGroups(snap), RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  // 60 raw load total; balanced percent = 20/40 raw (20% each): node 1
  // should hold twice the raw load of node 0.
  double raw[2] = {0, 0};
  for (KeyGroupId g = 0; g < 6; ++g) {
    raw[exact->plan.assignment.node_of(g)] += 10.0;
  }
  EXPECT_NEAR(raw[1], 40.0, 1e-6);
  EXPECT_NEAR(raw[0], 20.0, 1e-6);
}

TEST(MilpRebalancerTest, PlanFromItemPlacementComputesDiff) {
  Fixture f(2, {5, 5}, {0, 0});
  std::vector<BalanceItem> items = ItemsFromGroups(f.snap);
  RebalancePlan plan =
      PlanFromItemPlacement(f.snap, items, {0, 1});
  ASSERT_EQ(plan.migrations.size(), 1u);
  EXPECT_EQ(plan.migrations[0].group, 1);
  EXPECT_EQ(plan.migrations[0].to, 1);
  EXPECT_NEAR(plan.predicted_load_distance, 0.0, 1e-9);
}

}  // namespace
}  // namespace albic::balance
