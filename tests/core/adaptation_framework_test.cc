#include "core/adaptation_framework.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "balance/milp_rebalancer.h"
#include "common/trace.h"

namespace albic::core {
namespace {

using balance::MilpRebalancer;
using balance::MilpRebalancerOptions;
using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::LoadModel;
using engine::Topology;

struct Fixture {
  Topology topo;
  Cluster cluster;
  Assignment assign;
  std::vector<double> proc;
  LoadModel load_model{engine::CostModel{}};
  MilpRebalancer rebalancer;

  Fixture(int nodes, int groups, double load_each)
      : cluster(nodes), assign(groups), rebalancer([] {
          MilpRebalancerOptions o;
          o.time_budget_ms = 10;
          return o;
        }()) {
    topo.AddOperator("op", groups, 1 << 20);
    for (KeyGroupId g = 0; g < groups; ++g) assign.set_node(g, g % nodes);
    proc.assign(static_cast<size_t>(groups), load_each);
  }
};

TEST(AdaptationFrameworkTest, BuildSnapshotComputesLoads) {
  Fixture f(2, 4, 10.0);
  AdaptationFramework fw(&f.rebalancer, nullptr, AdaptationOptions{});
  engine::SystemSnapshot snap = fw.BuildSnapshot(
      f.topo, f.load_model, f.proc, nullptr, f.cluster, f.assign);
  EXPECT_DOUBLE_EQ(snap.node_loads[0], 20.0);
  EXPECT_DOUBLE_EQ(snap.node_loads[1], 20.0);
  EXPECT_EQ(snap.group_loads.size(), 4u);
  EXPECT_EQ(snap.migration_costs.size(), 4u);

  // The controller always hands over its signals: an empty signals object
  // must build exactly the snapshot that no signals do.
  const engine::MeasuredSignals empty;
  const engine::SystemSnapshot with_empty = fw.BuildSnapshot(
      f.topo, f.load_model, f.proc, nullptr, f.cluster, f.assign, &empty);
  EXPECT_EQ(with_empty.group_loads, snap.group_loads);
  EXPECT_EQ(with_empty.node_loads, snap.node_loads);
  EXPECT_EQ(with_empty.migration_costs, snap.migration_costs);
  EXPECT_EQ(with_empty.group_service_share, snap.group_service_share);
}

TEST(AdaptationFrameworkTest, RoundBalancesWithoutScaling) {
  Fixture f(2, 4, 10.0);
  // Pile everything on node 0.
  for (KeyGroupId g = 0; g < 4; ++g) f.assign.set_node(g, 0);
  AdaptationFramework fw(&f.rebalancer, nullptr, AdaptationOptions{});
  auto round = fw.RunRound(f.topo, f.load_model, f.proc, nullptr,
                           &f.cluster, &f.assign);
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->report.count, 2);
  EXPECT_EQ(f.assign.count_on(0), 2);
  EXPECT_EQ(f.assign.count_on(1), 2);
}

TEST(AdaptationFrameworkTest, TerminatesDrainedNodes) {
  Fixture f(3, 6, 10.0);
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  AdaptationFramework fw(&f.rebalancer, nullptr, AdaptationOptions{});
  // Round 1: drains node 2 (ample budget).
  auto r1 = fw.RunRound(f.topo, f.load_model, f.proc, nullptr, &f.cluster,
                        &f.assign);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(f.assign.count_on(2), 0);
  EXPECT_TRUE(f.cluster.is_active(2));  // still active until next round
  // Round 2: lines 1-3 of Algorithm 1 terminate it.
  auto r2 = fw.RunRound(f.topo, f.load_model, f.proc, nullptr, &f.cluster,
                        &f.assign);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->nodes_terminated, 1);
  EXPECT_FALSE(f.cluster.is_active(2));
}

TEST(AdaptationFrameworkTest, ScalingPolicyAddsNodesAndReplans) {
  Fixture f(2, 4, 48.0);  // 96% per node: overloaded even when balanced
  scaling::UtilizationScalingPolicy policy;
  AdaptationOptions opts;
  AdaptationFramework fw(&f.rebalancer, &policy, opts);
  auto round = fw.RunRound(f.topo, f.load_model, f.proc, nullptr,
                           &f.cluster, &f.assign);
  ASSERT_TRUE(round.ok());
  EXPECT_GT(round->nodes_added, 0);
  EXPECT_GT(f.cluster.num_active(), 2);
  // Replanning after scale-out should have moved load onto the new node.
  EXPECT_GT(f.assign.count_on(2), 0);
}

TEST(AdaptationFrameworkTest, MigrationBudgetFlowsThrough) {
  Fixture f(2, 8, 10.0);
  for (KeyGroupId g = 0; g < 8; ++g) f.assign.set_node(g, 0);
  AdaptationOptions opts;
  opts.constraints.max_migrations = 2;
  AdaptationFramework fw(&f.rebalancer, nullptr, opts);
  auto round = fw.RunRound(f.topo, f.load_model, f.proc, nullptr,
                           &f.cluster, &f.assign);
  ASSERT_TRUE(round.ok());
  EXPECT_LE(round->report.count, 2);
}

/// Sleeps 2 ms before delegating to a real planner and counts its calls,
/// so a round's planning time has a known lower bound.
class SlowPlanner : public balance::Rebalancer {
 public:
  explicit SlowPlanner(balance::Rebalancer* inner) : inner_(inner) {}

  Result<balance::RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const balance::RebalanceConstraints& constraints) override {
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return inner_->ComputePlan(snapshot, constraints);
  }
  std::string name() const override { return "slow"; }

  int calls = 0;

 private:
  balance::Rebalancer* inner_;
};

TEST(AdaptationFrameworkTest, TimesAndTracesEveryPlanCall) {
  // A round that scales out re-plans: both ComputePlan calls count toward
  // plan_ms, and each one gets its own controller.plan span.
  Fixture f(2, 4, 48.0);
  SlowPlanner planner(&f.rebalancer);
  scaling::UtilizationScalingPolicy policy;
  AdaptationFramework fw(&planner, &policy, AdaptationOptions{});
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  auto round = fw.RunRound(f.topo, f.load_model, f.proc, nullptr,
                           &f.cluster, &f.assign);
  Tracer::Global().Disable();
  ASSERT_TRUE(round.ok());
  ASSERT_GT(round->nodes_added, 0);
  EXPECT_EQ(planner.calls, 2);
  EXPECT_GE(round->plan_ms, 4.0);
  const std::string json = Tracer::Global().ChromeTraceJson();
  const std::string span = "\"name\":\"controller.plan\"";
  int spans = 0;
  for (size_t at = json.find(span); at != std::string::npos;
       at = json.find(span, at + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, 2);
  Tracer::Global().Clear();
}

}  // namespace
}  // namespace albic::core
