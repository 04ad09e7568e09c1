#include "balance/non_integrated.h"

#include <gtest/gtest.h>

#include <memory>

#include "balance/milp_rebalancer.h"

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

  Fixture(int nodes, std::vector<double> loads) : cluster(nodes) {
    topo.AddOperator("op", static_cast<int>(loads.size()), 1 << 20);
    Assignment assign(static_cast<int>(loads.size()));
    for (KeyGroupId g = 0; g < assign.num_groups(); ++g) {
      assign.set_node(g, g % nodes);
    }
    snap.topology = &topo;
    snap.cluster = &cluster;
    snap.assignment = assign;
    snap.group_loads = std::move(loads);
    snap.migration_costs.assign(snap.group_loads.size(), 1.0);
  }
};

std::unique_ptr<NonIntegratedRebalancer> Make() {
  MilpRebalancerOptions opts;
  opts.time_budget_ms = 10;
  return std::make_unique<NonIntegratedRebalancer>(
      std::make_unique<MilpRebalancer>(opts));
}

TEST(NonIntegratedTest, DrainPhaseIgnoresLoadBalance) {
  // Node 2 marked; drain moves its groups round-robin regardless of load.
  Fixture f(3, {10, 10, 10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  auto r = Make();
  RebalanceConstraints cons;
  cons.max_migrations = 10;
  auto plan = r->ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  // All migrations originate from the marked node.
  for (const auto& m : plan->migrations) EXPECT_EQ(m.from, 2);
  EXPECT_EQ(plan->assignment.count_on(2), 0);
}

TEST(NonIntegratedTest, DrainRespectsBudget) {
  Fixture f(3, {10, 10, 10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  auto r = Make();
  RebalanceConstraints cons;
  cons.max_migrations = 1;
  auto plan = r->ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->migrations.size(), 1u);
  EXPECT_EQ(plan->assignment.count_on(2), 1);  // partial drain
}

TEST(NonIntegratedTest, DelegatesWhenNoDrainPending) {
  Fixture f(2, {20, 0, 20, 0});  // node 0 overloaded (placement 0,1,0,1)
  auto r = Make();
  RebalanceConstraints cons;
  cons.max_migrations = 2;
  auto plan = r->ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  // The delegate balancer should act: distance improves below initial 20.
  EXPECT_LT(plan->predicted_load_distance, 20.0);
}

TEST(NonIntegratedTest, CostLimitedDrain) {
  Fixture f(2, {10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(1).ok());
  f.snap.migration_costs = {1.0, 1.0, 3.0, 3.0};
  auto r = Make();
  RebalanceConstraints cons;
  cons.max_migration_cost = 4.0;
  auto plan = r->ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  double cost = 0.0;
  for (const auto& m : plan->migrations) cost += f.snap.migration_costs[m.group];
  EXPECT_LE(cost, 4.0 + 1e-9);
}

}  // namespace
}  // namespace albic::balance
