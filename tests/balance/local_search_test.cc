#include "balance/local_search.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "balance/balance_item.h"
#include "common/rng.h"
#include "engine/migration.h"
#include "tests/milp/exact_rebalance.h"

namespace albic::balance {
namespace {

using engine::Assignment;
using engine::Cluster;
using engine::KeyGroupId;
using engine::NodeId;
using engine::SystemSnapshot;
using engine::Topology;

/// Builds a snapshot with `loads[g]` on an even round-robin assignment.
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

LocalSearchSolution MustSolve(const Fixture& f,
                              const RebalanceConstraints& cons,
                              double budget_ms = 20.0) {
  LocalSearchOptions opts;
  opts.time_budget_ms = budget_ms;
  auto res = LocalSearchSolver::Solve(f.snap, ItemsFromGroups(f.snap), cons,
                                      opts);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return *res;
}

TEST(LocalSearchTest, BalancesObviousImbalance) {
  // All load on node 0; plenty of budget: should spread to distance ~0.
  Fixture f(4, {10, 10, 10, 10, 10, 10, 10, 10},
            {0, 0, 0, 0, 0, 0, 0, 0});
  RebalanceConstraints cons;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_NEAR(sol.load_distance, 0.0, 1e-6);
}

TEST(LocalSearchTest, RespectsCountBudget) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  RebalanceConstraints cons;
  cons.max_migrations = 1;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_LE(sol.used_count, 1);
  // One move of 10: loads 30/10, mean 20, d = 10.
  EXPECT_NEAR(sol.load_distance, 10.0, 1e-6);
}

TEST(LocalSearchTest, RespectsCostBudget) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  f.snap.migration_costs = {5.0, 5.0, 5.0, 5.0};
  RebalanceConstraints cons;
  cons.max_migration_cost = 5.0;  // exactly one move affordable
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_LE(sol.used_cost, 5.0 + 1e-9);
  EXPECT_NEAR(sol.load_distance, 10.0, 1e-6);
}

TEST(LocalSearchTest, ZeroBudgetKeepsAssignment) {
  Fixture f(2, {10, 10, 20}, {0, 0, 1});
  RebalanceConstraints cons;
  cons.max_migrations = 0;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_EQ(sol.used_count, 0);
  for (size_t i = 0; i < sol.item_node.size(); ++i) {
    EXPECT_EQ(sol.item_node[i],
              f.snap.assignment.node_of(static_cast<KeyGroupId>(i)));
  }
}

TEST(LocalSearchTest, DrainsMarkedNodesFirst) {
  Fixture f(3, {10, 10, 10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  RebalanceConstraints cons;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_NEAR(sol.drain_load, 0.0, 1e-9);
  for (NodeId n : sol.item_node) EXPECT_NE(n, 2);
}

TEST(LocalSearchTest, DrainPrioritizedUnderTightBudget) {
  // Node 2 is marked and holds 2 groups; budget allows exactly 2 moves.
  Fixture f(3, {10, 10, 10, 10, 10, 10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(2).ok());
  RebalanceConstraints cons;
  cons.max_migrations = 2;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_NEAR(sol.drain_load, 0.0, 1e-9);  // both moves used on the drain
}

TEST(LocalSearchTest, ForceDrainsLastMarkedNodeFromBalancedEndGame) {
  // The fig-5 1-overloaded-node end-game: 4 retained nodes balanced at 40
  // (4 groups of 10 each), and one marked node holding a single residual
  // group of load 5. mean = 165/4 = 41.25, distance = 1.25; moving the
  // residual onto any retained node raises it to 45 and the distance to
  // 3.75 — strictly worse, so greedy improvement parks there forever and
  // scale-in never finishes. The completion pass must drain it anyway.
  std::vector<double> loads(17, 10.0);
  loads[16] = 5.0;
  std::vector<NodeId> placement(17);
  for (int g = 0; g < 16; ++g) placement[g] = g % 4;
  placement[16] = 4;
  Fixture f(5, loads, placement);
  ASSERT_TRUE(f.cluster.MarkForRemoval(4).ok());
  LocalSearchSolution sol = MustSolve(f, RebalanceConstraints{});
  EXPECT_NEAR(sol.drain_load, 0.0, 1e-9);
  EXPECT_NE(sol.item_node[16], 4);
  // The reported distance reflects the post-drain placement.
  EXPECT_NEAR(sol.load_distance, 3.75, 1e-6);
}

TEST(LocalSearchTest, ForceDrainRespectsBudget) {
  // Same end-game but with a zero budget: the residual cannot move, and
  // the completion pass must not blow the constraint to force it.
  std::vector<double> loads(17, 10.0);
  loads[16] = 5.0;
  std::vector<NodeId> placement(17);
  for (int g = 0; g < 16; ++g) placement[g] = g % 4;
  placement[16] = 4;
  Fixture f(5, loads, placement);
  ASSERT_TRUE(f.cluster.MarkForRemoval(4).ok());
  RebalanceConstraints cons;
  cons.max_migrations = 0;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_EQ(sol.used_count, 0);
  EXPECT_EQ(sol.item_node[16], 4);
  EXPECT_NEAR(sol.drain_load, 5.0, 1e-9);
}

TEST(LocalSearchTest, ForceDrainSkipsUnaffordableItemForLighterOne) {
  // End-game where BOTH residual drain moves worsen the distance (so the
  // greedy leaves them to the completion pass): 10 retained nodes balanced
  // at 40, marked node 10 holding a load-4 group with migration cost 100
  // (unaffordable under the cost budget of 5) and a load-2 group with cost
  // 1. The mean is inflated by only 6/10 = 0.6, so moving either group
  // overshoots. The completion pass must not abort at the unaffordable
  // heaviest item — the cheap group still fits the budget and must leave.
  std::vector<double> loads(42, 10.0);
  loads[40] = 4.0;
  loads[41] = 2.0;
  std::vector<NodeId> placement(42);
  for (int g = 0; g < 40; ++g) placement[g] = g % 10;
  placement[40] = 10;
  placement[41] = 10;
  Fixture f(11, loads, placement);
  f.snap.migration_costs.assign(42, 1.0);
  f.snap.migration_costs[40] = 100.0;
  ASSERT_TRUE(f.cluster.MarkForRemoval(10).ok());
  RebalanceConstraints cons;
  cons.max_migration_cost = 5.0;
  LocalSearchSolution sol = MustSolve(f, cons);
  EXPECT_EQ(sol.item_node[40], 10) << "the cost-100 group is unaffordable";
  EXPECT_NE(sol.item_node[41], 10) << "the cost-1 group must still drain";
  EXPECT_NEAR(sol.drain_load, 4.0, 1e-9);
  EXPECT_LE(sol.used_cost, 5.0 + 1e-9);
}

TEST(LocalSearchTest, PinnedItemsAreForcedAndImmovable) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 1, 1});
  std::vector<BalanceItem> items = ItemsFromGroups(f.snap);
  items[0].pinned = 1;  // force group 0 onto node 1
  RebalanceConstraints cons;
  LocalSearchOptions opts;
  opts.time_budget_ms = 10.0;
  auto res = LocalSearchSolver::Solve(f.snap, items, cons, opts);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->item_node[0], 1);
}

TEST(LocalSearchTest, PinToInactiveNodeRejected) {
  Fixture f(2, {10, 10});
  ASSERT_TRUE(f.cluster.Terminate(1).ok());
  std::vector<BalanceItem> items = ItemsFromGroups(f.snap);
  items[0].pinned = 1;
  auto res = LocalSearchSolver::Solve(f.snap, items, RebalanceConstraints{},
                                      LocalSearchOptions{});
  EXPECT_FALSE(res.ok());
}

TEST(LocalSearchTest, HeterogeneousCapacityGetsProportionalLoad) {
  // Node 1 has 3x the capacity: it should end with ~3x the raw load so that
  // percentage loads match.
  Topology topo;
  topo.AddOperator("op", 8, 1 << 20);
  Cluster cluster;
  cluster.AddNode(1.0);
  cluster.AddNode(3.0);
  SystemSnapshot snap;
  snap.topology = &topo;
  snap.cluster = &cluster;
  Assignment assign(8);
  for (KeyGroupId g = 0; g < 8; ++g) assign.set_node(g, 0);
  snap.assignment = assign;
  snap.group_loads.assign(8, 10.0);
  snap.migration_costs.assign(8, 1.0);
  auto res = LocalSearchSolver::Solve(snap, ItemsFromGroups(snap),
                                      RebalanceConstraints{},
                                      LocalSearchOptions{});
  ASSERT_TRUE(res.ok());
  double raw[2] = {0, 0};
  for (size_t i = 0; i < res->item_node.size(); ++i) {
    raw[res->item_node[i]] += 10.0;
  }
  EXPECT_NEAR(raw[1] / 3.0, raw[0], 10.0 + 1e-9);  // within one group size
}

TEST(LocalSearchTest, MultiGroupItemsMoveAtomically) {
  Fixture f(2, {10, 10, 10, 10}, {0, 0, 0, 0});
  std::vector<BalanceItem> items;
  BalanceItem pair;
  pair.groups = {0, 1};
  pair.load = 20.0;
  items.push_back(pair);
  BalanceItem a;
  a.groups = {2};
  a.load = 10.0;
  items.push_back(a);
  BalanceItem b;
  b.groups = {3};
  b.load = 10.0;
  items.push_back(b);
  auto res = LocalSearchSolver::Solve(f.snap, items, RebalanceConstraints{},
                                      LocalSearchOptions{});
  ASSERT_TRUE(res.ok());
  // The pair's two groups stay together wherever it lands.
  EXPECT_NEAR(res->load_distance, 0.0, 1e-6);
}

TEST(LocalSearchTest, ErrorsWithoutRetainedNodes) {
  Fixture f(1, {10});
  ASSERT_TRUE(f.cluster.MarkForRemoval(0).ok());
  auto res = LocalSearchSolver::Solve(f.snap, ItemsFromGroups(f.snap),
                                      RebalanceConstraints{},
                                      LocalSearchOptions{});
  EXPECT_FALSE(res.ok());
}

TEST(LocalSearchTest, MoreBudgetNeverWorse) {
  // At the same execution speed a longer cap runs a superset of a shorter
  // cap's steps, and no node is marked for removal, so no drain pass moves
  // anything: the 25 ms solution is at least as good as the 1 ms one.
  std::vector<double> loads;
  Rng rng(3);
  for (int i = 0; i < 120; ++i) loads.push_back(rng.Uniform(1.0, 9.0));
  Fixture f(10, loads);
  RebalanceConstraints cons;
  cons.max_migrations = 15;
  LocalSearchSolution fast = MustSolve(f, cons, 1.0);
  LocalSearchSolution slow = MustSolve(f, cons, 25.0);
  EXPECT_LE(slow.load_distance, fast.load_distance + 1e-9);
}

TEST(LocalSearchTest, ConvergesBeforeItsBudget) {
  // A steady-shaped planning instance: 54 key groups with Zipf-skewed loads
  // round-robin over 6 nodes, 4 migrations per round. The search must stop
  // once a whole perturbation sweep finds nothing better, long before its
  // cap, and return the same plan whatever the cap.
  std::vector<double> loads;
  for (int g = 0; g < 54; ++g) loads.push_back(60.0 / (1.0 + g));
  Fixture f(6, loads);
  RebalanceConstraints cons;
  cons.max_migrations = 4;
  const auto start = std::chrono::steady_clock::now();
  const LocalSearchSolution capped_10s = MustSolve(f, cons, 10000.0);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_LT(elapsed_s, 1.0);
  const LocalSearchSolution capped_5s = MustSolve(f, cons, 5000.0);
  EXPECT_EQ(capped_10s.item_node, capped_5s.item_node);
  EXPECT_LE(capped_10s.used_count, 4);
}

/// A seeded planning instance shaped like a perfbench controller round.
struct Instance {
  Topology topo;
  Cluster cluster;
  SystemSnapshot snap;
  std::vector<BalanceItem> items;
  RebalanceConstraints cons;
};

/// `groups` key groups round-robin over nodes of capacities `caps`, with
/// Zipf-shaped loads times a seeded jitter, unit migration costs and one
/// item per group.
std::unique_ptr<Instance> SeededInstance(const std::vector<double>& caps,
                                         int groups, uint64_t seed) {
  auto in = std::make_unique<Instance>();
  for (const double c : caps) in->cluster.AddNode(c);
  in->topo.AddOperator("op", groups, 1 << 20);
  Assignment assign(groups);
  Rng rng(seed);
  for (KeyGroupId g = 0; g < groups; ++g) {
    assign.set_node(g, g % static_cast<int>(caps.size()));
    in->snap.group_loads.push_back(rng.Uniform(0.5, 1.5) * 60.0 /
                                   (1.0 + g % 18));
  }
  in->snap.topology = &in->topo;
  in->snap.cluster = &in->cluster;
  in->snap.assignment = assign;
  in->snap.migration_costs.assign(static_cast<size_t>(groups), 1.0);
  in->snap.node_loads.assign(caps.size(), 0.0);
  in->items = ItemsFromGroups(in->snap);
  return in;
}

/// What a golden plan pins: the placement, the moves and the exact bits of
/// the reported load distance.
struct GoldenPlan {
  std::vector<NodeId> item_node;
  int used_count = 0;
  uint64_t load_distance_bits = 0;
};

std::string Format(const GoldenPlan& plan) {
  std::ostringstream os;
  os << "{{";
  for (size_t i = 0; i < plan.item_node.size(); ++i) {
    os << (i == 0 ? "" : ", ") << plan.item_node[i];
  }
  os << "}, " << plan.used_count << ", 0x" << std::hex
     << plan.load_distance_bits << "}";
  return os.str();
}

/// The six golden instances: shaped like steady (54 single-group items on
/// 6 nodes, 4 moves), shift (32 items on 4 nodes) and collocate (16
/// two-group items, two of them pinned), plus a marked node, heterogeneous
/// capacities and a cost budget.
std::unique_ptr<Instance> GoldenInstance(int which) {
  std::unique_ptr<Instance> in;
  switch (which) {
    case 0:
      in = SeededInstance(std::vector<double>(6, 1.0), 54, 101);
      in->cons.max_migrations = 4;
      break;
    case 1:
      in = SeededInstance(std::vector<double>(4, 1.0), 32, 102);
      in->cons.max_migrations = 4;
      break;
    case 2: {
      // Eight pairs split across nodes, as collocate starts, and eight
      // collocated ones (groups 4 apart share a node).
      in = SeededInstance(std::vector<double>(4, 1.0), 32, 103);
      std::vector<BalanceItem> pairs(16);
      for (int i = 0; i < 16; ++i) {
        const int first = i < 8 ? 2 * i : 16 + (i - 8) % 4 + 8 * ((i - 8) / 4);
        const int second = i < 8 ? first + 1 : first + 4;
        for (const int g : {first, second}) {
          pairs[i].groups.push_back(g);
          pairs[i].load += in->items[g].load;
        }
      }
      pairs[0].pinned = 1;
      pairs[9].pinned = 2;
      in->items = std::move(pairs);
      in->cons.max_migrations = 12;  // the split pairs' placement takes 8
      break;
    }
    case 3:
      in = SeededInstance(std::vector<double>(5, 1.0), 30, 104);
      EXPECT_TRUE(in->cluster.MarkForRemoval(4).ok());
      in->cons.max_migrations = 6;
      break;
    case 4:
      in = SeededInstance({1.0, 2.0, 0.5, 1.5, 1.0}, 40, 105);
      in->cons.max_migrations = 6;
      break;
    default: {
      in = SeededInstance(std::vector<double>(6, 1.0), 48, 106);
      Rng rng(107);
      for (double& c : in->snap.migration_costs) c = rng.Uniform(0.5, 3.0);
      in->cons.max_migration_cost = 6.0;
      break;
    }
  }
  return in;
}

TEST(LocalSearchTest, GoldenPlansOnWorkloadShapedInstances) {
  // Plans recorded before candidate scoring moved to per-solve move-cost
  // tables; the search converges long before its 10 s cap, so any
  // difference here is a change in what the planner decides. A failure
  // prints the new plan in this table's form. The shift- and
  // collocate-shaped instances (1 and 2) are small enough for the exact
  // oracle to prove their optima in a few branch-and-bound nodes (61 and
  // 4), and the search reaches them: its optimality gap there is 0. The
  // other four take seconds or more to prove; BENCHMARKS.md ("Figs 2–4:
  // solver caps") lists all six.
  const GoldenPlan golden[] = {
      {{0, 1, 2, 3, 4, 5, 5, 1, 3, 3, 4, 5, 0, 1, 2, 3, 4, 5,
        0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5,
        5, 4, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5},
       4, 0x4011c881a7b24b60},
      {{0, 1, 3, 3, 0, 1, 1, 3, 0, 1, 2, 3, 0, 1, 2, 3,
        0, 1, 2, 3, 0, 1, 3, 3, 1, 1, 2, 3, 0, 1, 2, 3},
       4, 0x3ff05232a8937000},
      {{1, 3, 0, 2, 0, 3, 0, 3, 0, 2, 2, 3, 0, 0, 2, 3}, 12, 0x4015ccadca4b9680},
      {{0, 1, 2, 2, 2, 0, 1, 2, 3, 1, 0, 1, 2, 3, 4,
        0, 1, 2, 3, 2, 1, 1, 2, 0, 4, 0, 1, 2, 3, 4},
       6, 0x40173db27544ad00},
      {{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 1, 0, 1, 2, 3, 4,
        0, 1, 1, 3, 4, 0, 1, 2, 3, 3, 3, 1, 2, 3, 2, 0, 1, 1, 3, 4},
       6, 0x3fcff0d5483a2e00},
      {{0, 3, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 4, 1, 2, 3, 4, 5,
        0, 1, 2, 1, 4, 5, 0, 1, 2, 3, 4, 5, 5, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5},
       4, 0x40302ae37786183c},
  };
  for (int which = 0; which < 6; ++which) {
    const std::unique_ptr<Instance> in = GoldenInstance(which);
    LocalSearchOptions opts;
    opts.time_budget_ms = 10000.0;
    auto res = LocalSearchSolver::Solve(in->snap, in->items, in->cons, opts);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    GoldenPlan got{res->item_node, res->used_count, 0};
    std::memcpy(&got.load_distance_bits, &res->load_distance, 8);
    const GoldenPlan& want = golden[which];
    EXPECT_TRUE(got.item_node == want.item_node &&
                got.used_count == want.used_count &&
                got.load_distance_bits == want.load_distance_bits)
        << "instance " << which << " planned " << Format(got);
    if (which == 1 || which == 2) {
      auto exact = milp::SolveExact(in->snap, in->items, in->cons);
      ASSERT_TRUE(exact.ok()) << exact.status().ToString();
      ASSERT_EQ(exact->status, milp::MilpStatus::kOptimal)
          << "instance " << which;
      EXPECT_NEAR(res->load_distance, exact->plan.predicted_load_distance,
                  1e-9)
          << "instance " << which;
    }
  }
}

TEST(LocalSearchTest, ReportsACapThatCutTheSearchShort) {
  // Every golden instance has moves worth making: a zero cap stops the
  // search before it converges, a 10 s one does not.
  for (int which = 0; which < 6; ++which) {
    SCOPED_TRACE(which);
    const std::unique_ptr<Instance> in = GoldenInstance(which);
    for (const double cap_ms : {0.0, 10000.0}) {
      LocalSearchOptions opts;
      opts.time_budget_ms = cap_ms;
      auto res = LocalSearchSolver::Solve(in->snap, in->items, in->cons, opts);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_EQ(res->capped, cap_ms == 0.0);
    }
  }
}

/// One instance of the randomized exactness pin: 2 to \p max_retained
/// retained nodes, sometimes marked nodes and heterogeneous capacities, a
/// count or cost budget (zero, tight or loose), sometimes a secondary cap,
/// measured service shares, and multi-group items, some of them pinned.
std::unique_ptr<Instance> RandomInstance(uint64_t seed, int max_retained) {
  auto in = std::make_unique<Instance>();
  Rng rng(seed);
  const int retained =
      static_cast<int>(2 + rng.Index(static_cast<size_t>(max_retained - 1)));
  const int marked = rng.Bernoulli(0.25) ? static_cast<int>(1 + rng.Index(2))
                                         : 0;
  const bool mixed_caps = rng.Bernoulli(0.35);
  for (int n = 0; n < retained + marked; ++n) {
    in->cluster.AddNode(mixed_caps ? rng.Uniform(0.5, 2.0) : 1.0);
  }
  for (int n = retained; n < retained + marked; ++n) {
    EXPECT_TRUE(in->cluster.MarkForRemoval(n).ok());
  }
  const int groups = (retained + marked) * static_cast<int>(1 + rng.Index(3));
  in->topo.AddOperator("op", groups, 1 << 20);
  Assignment assign(groups);
  for (KeyGroupId g = 0; g < groups; ++g) {
    assign.set_node(g, static_cast<NodeId>(rng.Index(
                           static_cast<size_t>(retained + marked))));
    in->snap.group_loads.push_back(rng.Uniform(0.5, 1.5) * 60.0 /
                                   (1.0 + g % 18));
    in->snap.migration_costs.push_back(rng.Uniform(0.5, 3.0));
  }
  in->snap.topology = &in->topo;
  in->snap.cluster = &in->cluster;
  in->snap.assignment = assign;
  in->snap.node_loads.assign(static_cast<size_t>(retained + marked), 0.0);
  in->items = ItemsFromGroups(in->snap);

  // Budgets: zero, tight or loose, counted or costed.
  const size_t budget = rng.Index(6);
  switch (budget) {
    case 0: in->cons.max_migrations = 0; break;
    case 1: in->cons.max_migrations = static_cast<int>(1 + rng.Index(6)); break;
    case 2: in->cons.max_migrations = groups; break;
    case 3: in->cons.max_migration_cost = 0.0; break;
    case 4: in->cons.max_migration_cost = rng.Uniform(1.0, 12.0); break;
    default: break;  // no limit at all
  }
  if (rng.Bernoulli(0.3)) {
    in->snap.group_secondary_loads.resize(static_cast<size_t>(groups));
    double total = 0.0;
    for (double& l : in->snap.group_secondary_loads) {
      l = rng.Uniform(0.0, 5.0);
      total += l;
    }
    in->cons.max_secondary_per_node = total / retained * rng.Uniform(1.1, 1.8);
  }
  const bool shares = rng.Bernoulli(0.3);
  // Multi-group items: runs of two or three consecutive groups, some pinned
  // to a retained node.
  std::vector<BalanceItem> items;
  for (KeyGroupId g = 0; g < groups;) {
    const int len =
        rng.Bernoulli(0.3)
            ? std::min(groups - g, static_cast<int>(2 + rng.Index(2)))
            : 1;
    BalanceItem item;
    for (int j = 0; j < len; ++j, ++g) {
      item.groups.push_back(g);
      item.load += in->snap.group_loads[g];
      if (!in->snap.group_secondary_loads.empty()) {
        item.secondary_load += in->snap.group_secondary_loads[g];
      }
    }
    if (shares) item.service_share = rng.NextDouble();
    if (len > 1 && rng.Bernoulli(0.2)) {
      item.pinned =
          static_cast<NodeId>(rng.Index(static_cast<size_t>(retained)));
    }
    items.push_back(std::move(item));
  }
  in->items = std::move(items);
  return in;
}

TEST(LocalSearchTest, PlansUnchangedOnSeededInstances) {
  // One FNV-1a hash over the placement, move count and load-distance bits
  // of seeded instances, each solved to convergence: 200 with 2-60
  // retained nodes, then 1,200 small ones with 2-4, where a step more often
  // sits at its budget's edge (a wrong swap-partner bound or a wrong
  // cheapest node changes some of their plans). The hash was recorded
  // before the search learned to skip candidates that its budget or a
  // load-distance bound rule out, so a change in any decision of any
  // instance changes it; it covers the cost-budget and secondary-cap
  // branches that the workload-shaped golden plans leave out.
  uint64_t hash = 14695981039346656037ull;
  const auto mix = [&hash](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (const auto& [instances, max_retained] :
       {std::pair{200, 60}, std::pair{1200, 4}}) {
    for (int s = 0; s < instances; ++s) {
      const std::unique_ptr<Instance> in =
          RandomInstance(9000 + s, max_retained);
      LocalSearchOptions opts;
      opts.time_budget_ms = 10000.0;
      auto res = LocalSearchSolver::Solve(in->snap, in->items, in->cons, opts);
      ASSERT_TRUE(res.ok()) << "instance " << s << ": "
                            << res.status().ToString();
      for (const NodeId n : res->item_node) {
        const int32_t node = n;
        mix(&node, sizeof(node));
      }
      const int32_t used = res->used_count;
      mix(&used, sizeof(used));
      uint64_t bits = 0;
      std::memcpy(&bits, &res->load_distance, sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
  EXPECT_EQ(hash, 0x655cb10d904d99deull) << std::hex << "0x" << hash;
}

}  // namespace
}  // namespace albic::balance
