#include "scaling/scaling_policy.h"

#include <gtest/gtest.h>

namespace albic::scaling {
namespace {

using balance::RebalancePlan;
using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::SystemSnapshot;
using engine::Topology;

struct Fixture {
  Topology topo;
  Cluster cluster;
  SystemSnapshot snap;
  RebalancePlan plan;

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
    plan.assignment = assign;  // potential plan = status quo
  }
};

TEST(ScalingPolicyTest, NoActionInComfortBand) {
  // Two nodes at 60%: inside [40, 85], nothing to do.
  Fixture f(2, {60, 60});
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_FALSE(d.any());
}

TEST(ScalingPolicyTest, ScalesOutWhenPlanCannotFixOverload) {
  // One group of 95% on each node: even a perfect plan leaves nodes hot.
  Fixture f(2, {95, 95});
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_GT(d.add_nodes, 0);
  EXPECT_TRUE(d.mark_for_removal.empty());
}

TEST(ScalingPolicyTest, NoScaleOutWhenPlanFixesIt) {
  // Current allocation is awful (both groups on node 0) but the potential
  // plan splits them: planned max is 45%, no scaling needed. Algorithm 1's
  // whole point.
  Fixture f(2, {45, 45});
  f.snap.assignment.set_node(0, 0);
  f.snap.assignment.set_node(1, 0);
  f.plan.assignment = f.snap.assignment;
  f.plan.assignment.set_node(1, 1);  // plan fixes the overload
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_EQ(d.add_nodes, 0);
}

TEST(ScalingPolicyTest, ScalesInWhenUnderUtilized) {
  // Four nodes at ~20%: two could handle it at the 65% target.
  Fixture f(4, {20, 20, 20, 20});
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_EQ(d.add_nodes, 0);
  EXPECT_FALSE(d.mark_for_removal.empty());
  EXPECT_LE(d.mark_for_removal.size(), 3u);
  // Survivors must stay under target: 80 total / (4-k) <= 65 -> k <= 2.
  EXPECT_LE(d.mark_for_removal.size(), 2u);
}

TEST(ScalingPolicyTest, NoScaleInWhileDraining) {
  Fixture f(4, {10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(3).ok());
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_TRUE(d.mark_for_removal.empty());
}

TEST(ScalingPolicyTest, UndesirableScaleInSkipped) {
  // Mean 50% is below nothing: loads already above scale-in threshold.
  Fixture f(2, {40, 45});
  UtilizationScalingPolicy policy;
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_TRUE(d.mark_for_removal.empty());
}

TEST(ScalingPolicyTest, CapsChangesPerRound) {
  Fixture f(20, std::vector<double>(20, 1.0));  // basically idle
  UtilizationPolicyOptions opts;
  opts.max_change_per_round = 3;
  UtilizationScalingPolicy policy(opts);
  ScalingDecision d = policy.Decide(f.snap, f.plan);
  EXPECT_LE(d.mark_for_removal.size(), 3u);
}

TEST(ScalingPolicyTest, NullPolicyNeverActs) {
  Fixture f(2, {99, 99});
  NullScalingPolicy policy;
  EXPECT_FALSE(policy.Decide(f.snap, f.plan).any());
}

}  // namespace
}  // namespace albic::scaling
