// Property-style parameterized sweeps over random instances: invariants the
// optimizers must hold for every seed.

#include <gtest/gtest.h>

#include <cmath>

#include "balance/flux_rebalancer.h"
#include "balance/local_search.h"
#include "balance/milp_rebalancer.h"
#include "common/rng.h"
#include "core/albic.h"
#include "engine/load_model.h"
#include "tests/milp/exact_rebalance.h"

namespace albic {
namespace {

using balance::BalanceItem;
using balance::RebalanceConstraints;
using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::NodeId;
using engine::SystemSnapshot;
using engine::Topology;

struct RandomInstance {
  Topology topo;
  Cluster cluster;
  SystemSnapshot snap;

  RandomInstance(uint64_t seed, int nodes, int groups, int marked = 0)
      : cluster(nodes) {
    Rng rng(seed);
    topo.AddOperator("op", groups, 1 << 20);
    Assignment assign(groups);
    for (KeyGroupId g = 0; g < groups; ++g) {
      assign.set_node(g, static_cast<NodeId>(
                             rng.Index(static_cast<size_t>(nodes))));
    }
    snap.topology = &topo;
    snap.cluster = &cluster;
    snap.assignment = assign;
    for (KeyGroupId g = 0; g < groups; ++g) {
      snap.group_loads.push_back(rng.Uniform(0.5, 8.0));
      snap.migration_costs.push_back(rng.Uniform(0.5, 2.0));
    }
    for (int m = 0; m < marked; ++m) {
      EXPECT_TRUE(cluster.MarkForRemoval(m).ok());
    }
  }

  double InitialDistance() const {
    std::vector<double> loads(cluster.num_nodes_total(), 0.0);
    for (KeyGroupId g = 0; g < snap.assignment.num_groups(); ++g) {
      loads[snap.assignment.node_of(g)] += snap.group_loads[g];
    }
    return engine::LoadDistance(loads, cluster);
  }
};

/// The heuristic's wall-clock cap in these properties: one no solve here
/// reaches, so every plan checked is the converged search's on any host.
/// Converged solves take at most 1.5 ms at -O3, but a sanitizer slows them
/// about tenfold, past the few-millisecond caps that would otherwise cut
/// them.
constexpr double kConvergeCapMs = 10000.0;

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, LocalSearchNeverExceedsCountBudget) {
  RandomInstance inst(GetParam(), 8, 96);
  RebalanceConstraints cons;
  cons.max_migrations = 7;
  balance::LocalSearchOptions opts;
  opts.time_budget_ms = kConvergeCapMs;
  auto sol = balance::LocalSearchSolver::Solve(
      inst.snap, balance::ItemsFromGroups(inst.snap), cons, opts);
  ASSERT_TRUE(sol.ok());
  // Recount from scratch: groups whose node differs from the original q.
  int moved = 0;
  for (KeyGroupId g = 0; g < inst.snap.assignment.num_groups(); ++g) {
    if (sol->item_node[static_cast<size_t>(g)] !=
        inst.snap.assignment.node_of(g)) {
      ++moved;
    }
  }
  EXPECT_LE(moved, 7);
  EXPECT_EQ(moved, sol->used_count);
}

TEST_P(SeededProperty, LocalSearchNeverExceedsCostBudget) {
  RandomInstance inst(GetParam(), 6, 72);
  RebalanceConstraints cons;
  cons.max_migration_cost = 6.0;
  balance::LocalSearchOptions opts;
  opts.time_budget_ms = kConvergeCapMs;
  auto sol = balance::LocalSearchSolver::Solve(
      inst.snap, balance::ItemsFromGroups(inst.snap), cons, opts);
  ASSERT_TRUE(sol.ok());
  double cost = 0.0;
  for (KeyGroupId g = 0; g < inst.snap.assignment.num_groups(); ++g) {
    if (sol->item_node[static_cast<size_t>(g)] !=
        inst.snap.assignment.node_of(g)) {
      cost += inst.snap.migration_costs[g];
    }
  }
  EXPECT_LE(cost, 6.0 + 1e-9);
}

TEST_P(SeededProperty, LocalSearchNeverWorsensTheObjective) {
  RandomInstance inst(GetParam(), 10, 120);
  RebalanceConstraints cons;
  cons.max_migrations = 10;
  balance::LocalSearchOptions opts;
  opts.time_budget_ms = kConvergeCapMs;
  auto sol = balance::LocalSearchSolver::Solve(
      inst.snap, balance::ItemsFromGroups(inst.snap), cons, opts);
  ASSERT_TRUE(sol.ok());
  EXPECT_LE(sol->load_distance, inst.InitialDistance() + 1e-9);
}

TEST_P(SeededProperty, FluxNeverWorsensDistanceAndRespectsBudget) {
  RandomInstance inst(GetParam(), 8, 80);
  balance::FluxRebalancer flux;
  RebalanceConstraints cons;
  cons.max_migrations = 6;
  auto plan = flux.ComputePlan(inst.snap, cons);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->migrations.size(), 6u);
  EXPECT_LE(plan->predicted_load_distance, inst.InitialDistance() + 1e-9);
}

TEST_P(SeededProperty, MilpHeuristicBeatsOrMatchesFlux) {
  // The paper's core Figs 2-4 claim, as an invariant: under the same
  // migration budget, the MILP's balance is at least as good as Flux's.
  RandomInstance inst(GetParam(), 10, 150);
  RebalanceConstraints cons;
  cons.max_migrations = 10;
  balance::FluxRebalancer flux;
  auto flux_plan = flux.ComputePlan(inst.snap, cons);
  ASSERT_TRUE(flux_plan.ok());
  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = kConvergeCapMs;
  balance::MilpRebalancer milp(mopts);
  auto milp_plan = milp.ComputePlan(inst.snap, cons);
  ASSERT_TRUE(milp_plan.ok());
  EXPECT_LE(milp_plan->predicted_load_distance,
            flux_plan->predicted_load_distance + 1e-6);
}

TEST_P(SeededProperty, ExactMilpDominatesHeuristicOnSmallInstances) {
  // The local search's optimality gap, stated rather than tuned: the exact
  // oracle's proven optimum is never worse than the heuristic's plan, and
  // the heuristic trails it by at most kMaxGap load-distance points. The
  // bound is the largest gap over these eight seeds (0.411, seed 1) rounded
  // up to half a point; BENCHMARKS.md ("Figs 2–4: solver caps") lists each.
  constexpr double kMaxGap = 0.5;
  RandomInstance inst(GetParam(), 3, 12);
  RebalanceConstraints cons;
  auto exact = milp::SolveExact(inst.snap, balance::ItemsFromGroups(inst.snap),
                                cons);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal);
  balance::MilpRebalancerOptions heur_opts;
  heur_opts.time_budget_ms = kConvergeCapMs;
  balance::MilpRebalancer heur(heur_opts);
  auto ph = heur.ComputePlan(inst.snap, cons);
  ASSERT_TRUE(ph.ok());
  const double optimum = exact->plan.predicted_load_distance;
  EXPECT_LE(optimum, ph->predicted_load_distance + 1e-6);
  EXPECT_LE(ph->predicted_load_distance - optimum, kMaxGap);
}

TEST_P(SeededProperty, DrainIsMonotoneUnderRepeatedRounds) {
  RandomInstance inst(GetParam(), 6, 60, /*marked=*/2);
  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = kConvergeCapMs;
  balance::MilpRebalancer milp(mopts);
  RebalanceConstraints cons;
  cons.max_migrations = 4;
  int remaining = inst.snap.assignment.count_on(0) +
                  inst.snap.assignment.count_on(1);
  for (int round = 0; round < 12 && remaining > 0; ++round) {
    auto plan = milp.ComputePlan(inst.snap, cons);
    ASSERT_TRUE(plan.ok());
    // Lemma 1: nothing moves INTO the marked nodes.
    for (const auto& m : plan->migrations) {
      EXPECT_NE(m.to, 0);
      EXPECT_NE(m.to, 1);
    }
    inst.snap.assignment = plan->assignment;
    const int now = inst.snap.assignment.count_on(0) +
                    inst.snap.assignment.count_on(1);
    EXPECT_LE(now, remaining);
    remaining = now;
  }
  EXPECT_EQ(remaining, 0) << "drain did not complete";
}

TEST_P(SeededProperty, AlbicNeverSplitsItsCollocatedPairs) {
  // Pre-collocated heavy pairs must move as units through an ALBIC round.
  const uint64_t seed = GetParam();
  Topology topo;
  Cluster cluster(4);
  const int pairs = 10;
  topo.AddOperator("up", pairs, 1 << 20);
  topo.AddOperator("down", pairs, 1 << 20);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kOneToOne).ok());
  engine::CommMatrix comm(2 * pairs);
  Assignment assign(2 * pairs);
  Rng rng(seed);
  for (KeyGroupId g = 0; g < pairs; ++g) {
    const NodeId n = static_cast<NodeId>(rng.Index(4));
    assign.set_node(g, n);
    assign.set_node(pairs + g, n);  // already collocated
    comm.Add(g, pairs + g, 10.0);
  }
  SystemSnapshot snap;
  snap.topology = &topo;
  snap.cluster = &cluster;
  snap.comm = &comm;
  snap.assignment = assign;
  snap.group_loads.assign(static_cast<size_t>(2 * pairs), 5.0);
  snap.migration_costs.assign(static_cast<size_t>(2 * pairs), 1.0);
  snap.node_loads.assign(4, 0.0);
  for (KeyGroupId g = 0; g < 2 * pairs; ++g) {
    snap.node_loads[assign.node_of(g)] += snap.group_loads[g];
  }
  core::AlbicOptions aopts;
  aopts.milp.time_budget_ms = kConvergeCapMs;
  aopts.seed = seed;
  core::Albic albic(aopts);
  RebalanceConstraints cons;
  cons.max_migrations = 8;
  auto plan = albic.ComputePlan(snap, cons);
  ASSERT_TRUE(plan.ok());
  if (plan->predicted_load_distance <= 10.0) {  // collocation mode active
    for (KeyGroupId g = 0; g < pairs; ++g) {
      EXPECT_EQ(plan->assignment.node_of(g),
                plan->assignment.node_of(pairs + g))
          << "pair " << g << " split by ALBIC";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace albic
