// Multi-dimensional load extension (§4.3.1): besides balancing the
// bottleneck resource, a cap on each node's secondary resource (e.g.
// memory) must hold.

#include <gtest/gtest.h>

#include "balance/milp_rebalancer.h"
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

  Fixture(int nodes, std::vector<double> loads, std::vector<double> secondary,
          std::vector<NodeId> placement)
      : cluster(nodes) {
    topo.AddOperator("op", static_cast<int>(loads.size()), 1 << 20);
    Assignment assign(static_cast<int>(loads.size()));
    for (KeyGroupId g = 0; g < assign.num_groups(); ++g) {
      assign.set_node(g, placement[static_cast<size_t>(g)]);
    }
    snap.topology = &topo;
    snap.cluster = &cluster;
    snap.assignment = assign;
    snap.group_loads = std::move(loads);
    snap.group_secondary_loads = std::move(secondary);
    snap.migration_costs.assign(snap.group_loads.size(), 1.0);
  }

  std::vector<double> SecondaryPerNode(const Assignment& a) const {
    std::vector<double> out(cluster.num_nodes_total(), 0.0);
    for (KeyGroupId g = 0; g < a.num_groups(); ++g) {
      out[a.node_of(g)] += snap.group_secondary_loads[g];
    }
    return out;
  }
};

TEST(MultiDimTest, ExactModeRespectsSecondaryCap) {
  // 4 groups: equal CPU, but two memory hogs. Without the cap the perfect
  // CPU balance puts both hogs anywhere; with cap 50 they must split.
  Fixture f(2, {10, 10, 10, 10}, {40, 40, 5, 5}, {0, 0, 0, 0});
  RebalanceConstraints cons;
  cons.max_secondary_per_node = 50.0;
  auto exact = milp::SolveExact(f.snap, ItemsFromGroups(f.snap), cons);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  std::vector<double> sec = f.SecondaryPerNode(exact->plan.assignment);
  EXPECT_LE(sec[0], 50.0 + 1e-6);
  EXPECT_LE(sec[1], 50.0 + 1e-6);
  // CPU still even.
  EXPECT_NEAR(exact->plan.predicted_load_distance, 0.0, 1e-6);
}

TEST(MultiDimTest, HeuristicModeRespectsSecondaryCap) {
  Rng rng(4);
  std::vector<double> loads, secondary;
  std::vector<NodeId> placement;
  for (int g = 0; g < 60; ++g) {
    loads.push_back(rng.Uniform(1.0, 6.0));
    secondary.push_back(rng.Uniform(1.0, 8.0));
    placement.push_back(static_cast<NodeId>(g % 6));
  }
  Fixture f(6, loads, secondary, placement);
  // Initial secondary per node is ~45; cap just above so moves are
  // constrained but feasible.
  MilpRebalancerOptions opts;
  opts.time_budget_ms = 20;
  MilpRebalancer r(opts);
  RebalanceConstraints cons;
  cons.max_secondary_per_node = 60.0;
  auto plan = r.ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  for (double s : f.SecondaryPerNode(plan->assignment)) {
    EXPECT_LE(s, 60.0 + 1e-6);
  }
}

TEST(MultiDimTest, CapOffMeansUnconstrained) {
  Fixture f(2, {10, 10}, {90, 90}, {0, 1});
  // No secondary rows, no infeasibility.
  auto exact =
      milp::SolveExact(f.snap, ItemsFromGroups(f.snap), RebalanceConstraints{});
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
}

TEST(MultiDimTest, InfeasibleCapFallsBackGracefully) {
  // Secondary cap below any single group: the exact model is infeasible,
  // yet the rebalancer must still return a plan (the local search keeps
  // the current placement rather than failing the adaptation round).
  Fixture f(2, {10, 10}, {80, 80}, {0, 1});
  MilpRebalancerOptions opts;
  opts.time_budget_ms = 500;
  MilpRebalancer r(opts);
  RebalanceConstraints cons;
  cons.max_secondary_per_node = 10.0;
  auto plan = r.ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->migrations.empty());  // nothing admissible
  auto exact = milp::SolveExact(f.snap, ItemsFromGroups(f.snap), cons);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->status, milp::MilpStatus::kInfeasible);
}

}  // namespace
}  // namespace albic::balance
