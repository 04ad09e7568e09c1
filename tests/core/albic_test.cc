#include "core/albic.h"

#include <gtest/gtest.h>

#include "engine/load_model.h"

namespace albic::core {
namespace {

using balance::RebalanceConstraints;
using engine::Assignment;
using engine::Cluster;
using engine::CommMatrix;
using engine::KeyGroupId;
using engine::NodeId;
using engine::SystemSnapshot;
using engine::Topology;

/// A pair-chain job: `pairs` upstream groups each sending all traffic to the
/// aligned downstream group (1-1), partners initially on different nodes.
struct Fixture {
  Topology topo;
  Cluster cluster;
  CommMatrix comm;
  SystemSnapshot snap;
  int pairs;

  Fixture(int nodes, int pairs_in, double pair_rate = 10.0)
      : cluster(nodes), comm(2 * pairs_in), pairs(pairs_in) {
    topo.AddOperator("up", pairs, 1 << 20);
    topo.AddOperator("down", pairs, 1 << 20);
    EXPECT_TRUE(topo.AddStream(0, 1,
                               engine::PartitioningPattern::kOneToOne).ok());
    Assignment assign(2 * pairs);
    for (KeyGroupId g = 0; g < pairs; ++g) {
      assign.set_node(g, g % nodes);
      assign.set_node(pairs + g, (g + nodes / 2) % nodes);
      comm.Add(g, pairs + g, pair_rate);
    }
    snap.topology = &topo;
    snap.cluster = &cluster;
    snap.comm = &comm;
    snap.assignment = assign;
    snap.group_loads.assign(static_cast<size_t>(2 * pairs), 5.0);
    snap.migration_costs.assign(static_cast<size_t>(2 * pairs), 1.0);
    snap.node_loads.assign(static_cast<size_t>(nodes), 0.0);
    for (KeyGroupId g = 0; g < 2 * pairs; ++g) {
      snap.node_loads[assign.node_of(g)] += snap.group_loads[g];
    }
  }
};

AlbicOptions FastOptions() {
  AlbicOptions opts;
  opts.milp.time_budget_ms = 10;
  return opts;
}

TEST(AlbicTest, CalculateScoresSplitsByCurrentCollocation) {
  Fixture f(4, 8);
  // Manually collocate one pair: groups 0 and 8 both on node 0.
  f.snap.assignment.set_node(8, 0);
  std::vector<Albic::ScoredPair> col, tobe;
  Albic::CalculateScores(f.snap, 1.5, &col, &tobe);
  ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(col[0].a, 0);
  EXPECT_EQ(col[0].b, 8);
  EXPECT_EQ(tobe.size(), 7u);  // remaining pairs not collocated yet
}

TEST(AlbicTest, ScoreFactorFiltersWeakPairs) {
  Fixture f(4, 8);
  // Dilute group 0's output: even split to two targets -> rate 2x avg is
  // needed to qualify with sF = 2.
  f.comm.SetRow(0, {{8, 5.0}, {9, 5.0}});
  std::vector<Albic::ScoredPair> col, tobe;
  // avg for group 0 = 10 / 8 downstream groups = 1.25; with sF = 8 the
  // threshold is 10: entries at 5.0 fail, other groups' 10.0 entries pass
  // their own (avg = 1.25, threshold 10) boundary exactly -> fail too.
  Albic::CalculateScores(f.snap, 8.0, &col, &tobe);
  EXPECT_TRUE(col.empty());
  EXPECT_TRUE(tobe.empty());
}

TEST(AlbicTest, GraduallyImprovesCollocation) {
  Fixture f(4, 12);
  Albic albic(FastOptions());
  RebalanceConstraints cons;
  cons.max_migrations = 4;

  double previous = engine::CollocationPercent(f.comm, f.snap.assignment);
  EXPECT_NEAR(previous, 0.0, 1e-9);  // adversarial start
  // Iterate ALBIC rounds, feeding each plan back in.
  double final_collocation = previous;
  for (int round = 0; round < 24; ++round) {
    auto plan = albic.ComputePlan(f.snap, cons);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    f.snap.assignment = plan->assignment;
    // Keep node_loads fresh for the pin-target choice.
    std::fill(f.snap.node_loads.begin(), f.snap.node_loads.end(), 0.0);
    for (KeyGroupId g = 0; g < f.snap.assignment.num_groups(); ++g) {
      f.snap.node_loads[f.snap.assignment.node_of(g)] +=
          f.snap.group_loads[g];
    }
    final_collocation =
        engine::CollocationPercent(f.comm, f.snap.assignment);
  }
  EXPECT_GT(final_collocation, 60.0);  // most pairs found each other
}

TEST(AlbicTest, MaintainsLoadDistanceWhileCollocating) {
  Fixture f(4, 12);
  Albic albic(FastOptions());
  RebalanceConstraints cons;
  cons.max_migrations = 6;
  for (int round = 0; round < 10; ++round) {
    auto plan = albic.ComputePlan(f.snap, cons);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->predicted_load_distance, 10.0 + 1e-6)
        << "round " << round << " violated maxLD";
    f.snap.assignment = plan->assignment;
  }
}

TEST(AlbicTest, CollocatedPartitionsMigrateAsUnits) {
  Fixture f(4, 8);
  // Pre-collocate pairs 0 and 1 on node 0 (both endpoints).
  f.snap.assignment.set_node(0, 0);
  f.snap.assignment.set_node(8, 0);
  f.snap.assignment.set_node(1, 0);
  f.snap.assignment.set_node(9, 0);
  Albic albic(FastOptions());
  RebalanceConstraints cons;
  cons.max_migrations = 8;
  auto plan = albic.ComputePlan(f.snap, cons);
  ASSERT_TRUE(plan.ok());
  // Wherever the endpoints of a pre-collocated pair went, they went
  // together.
  EXPECT_EQ(plan->assignment.node_of(0), plan->assignment.node_of(8));
  EXPECT_EQ(plan->assignment.node_of(1), plan->assignment.node_of(9));
}

TEST(AlbicTest, MaintainCollocationSplitsOversizedSets) {
  Fixture f(4, 8);
  // Build one giant collocated set with total load 80 and maxPL 25: must
  // split into >= 4 partitions.
  std::vector<Albic::ScoredPair> col;
  for (KeyGroupId g = 0; g < 8; ++g) {
    col.push_back({g, static_cast<KeyGroupId>(8 + g), 10.0});
    if (g > 0) col.push_back({0, g, 1.0});  // chain everything together
  }
  Albic albic(FastOptions());
  RebalanceConstraints cons;
  auto partitions = albic.MaintainCollocation(f.snap, col, cons, 25.0);
  ASSERT_GE(partitions.size(), 4u);
  for (const auto& part : partitions) {
    double load = 0.0;
    for (KeyGroupId g : part) load += f.snap.group_loads[g];
    EXPECT_LE(load, 25.0 * 1.6) << "partition grossly exceeds maxPL";
  }
}

TEST(AlbicTest, FallsBackToPureMilpWithoutComm) {
  Fixture f(2, 4);
  f.snap.comm = nullptr;
  Albic albic(FastOptions());
  auto plan = albic.ComputePlan(f.snap, RebalanceConstraints{});
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->predicted_load_distance, 10.0 + 1e-6);
}

}  // namespace
}  // namespace albic::core
