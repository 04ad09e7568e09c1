#include "tests/milp/branch_and_bound.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace albic::milp {
namespace {

MilpSolution MustSolve(const MilpModel& m,
                       BranchAndBoundSolver::Options opts = {}) {
  auto res = BranchAndBoundSolver::Solve(m, opts);
  EXPECT_TRUE(res.ok()) << res.status().ToString();
  return *res;
}

TEST(BranchAndBoundTest, IntegralRelaxationShortCircuits) {
  MilpModel m;
  int x = m.AddInteger(0, 10, 1.0);
  m.AddConstraint({{x, 1}}, lp::Sense::kGe, 3.0);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_EQ(s.nodes_explored, 1);
}

TEST(BranchAndBoundTest, KnapsackSmall) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c (17) vs
  // b + c (20, weight 6 ok) -> optimal 20.
  MilpModel m;
  m.set_objective_sense(lp::ObjSense::kMaximize);
  int a = m.AddBinary(10.0);
  int b = m.AddBinary(13.0);
  int c = m.AddBinary(7.0);
  m.AddConstraint({{a, 3}, {b, 4}, {c, 2}}, lp::Sense::kLe, 6.0);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 20.0, 1e-7);
  EXPECT_NEAR(s.values[b], 1.0, 1e-7);
  EXPECT_NEAR(s.values[c], 1.0, 1e-7);
}

TEST(BranchAndBoundTest, KnapsackAgainstBruteForce) {
  // 10-item knapsack, exhaustive reference.
  const std::vector<double> value = {12, 7,  9,  14, 5, 11, 3, 8, 10, 6};
  const std::vector<double> weight = {4,  2,  3,  5,  1, 4,  1, 3, 4,  2};
  const double cap = 12;
  double best = 0.0;
  for (int mask = 0; mask < (1 << 10); ++mask) {
    double v = 0, w = 0;
    for (int i = 0; i < 10; ++i) {
      if (mask & (1 << i)) {
        v += value[i];
        w += weight[i];
      }
    }
    if (w <= cap) best = std::max(best, v);
  }
  MilpModel m;
  m.set_objective_sense(lp::ObjSense::kMaximize);
  std::vector<int> x;
  for (int i = 0; i < 10; ++i) x.push_back(m.AddBinary(value[i]));
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 10; ++i) row.push_back({x[i], weight[i]});
  m.AddConstraint(std::move(row), lp::Sense::kLe, cap);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-6);
}

TEST(BranchAndBoundTest, PureIntegerRounding) {
  // min x + y s.t. 2x + 2y >= 5, integer -> (x+y) >= 2.5 -> 3.
  MilpModel m;
  int x = m.AddInteger(0, 10, 1.0);
  int y = m.AddInteger(0, 10, 1.0);
  m.AddConstraint({{x, 2}, {y, 2}}, lp::Sense::kGe, 5.0);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(BranchAndBoundTest, MixedIntegerContinuous) {
  // min 3x + 2y, x integer, y continuous, x + y >= 3.6, y <= 1.2
  // -> x >= 2.4 -> x = 3 possible with y = 0.6: cost 10.2; or x=3,y=0.6.
  // Better: x = 3, y = 0.6 -> 10.2; x = 4, y = 0 -> 12. Optimal 10.2.
  MilpModel m;
  int x = m.AddInteger(0, 10, 3.0);
  int y = m.AddContinuous(0, 1.2, 2.0);
  m.AddConstraint({{x, 1}, {y, 1}}, lp::Sense::kGe, 3.6);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 10.2, 1e-6);
  EXPECT_NEAR(s.values[x], 3.0, 1e-7);
  EXPECT_NEAR(s.values[y], 0.6, 1e-6);
}

TEST(BranchAndBoundTest, InfeasibleIntegerButFeasibleLp) {
  // 0.4 <= x <= 0.6 has LP solutions but no integer ones.
  MilpModel m;
  int x = m.AddInteger(0, 1, 1.0);
  m.AddConstraint({{x, 1}}, lp::Sense::kGe, 0.4);
  m.AddConstraint({{x, 1}}, lp::Sense::kLe, 0.6);
  MilpSolution s = MustSolve(m);
  EXPECT_EQ(s.status, MilpStatus::kInfeasible);
}

TEST(BranchAndBoundTest, InfeasibleLp) {
  MilpModel m;
  int x = m.AddBinary(1.0);
  m.AddConstraint({{x, 1}}, lp::Sense::kGe, 2.0);
  MilpSolution s = MustSolve(m);
  EXPECT_EQ(s.status, MilpStatus::kInfeasible);
}

TEST(BranchAndBoundTest, AssignmentProblemExact) {
  // 3 jobs x 3 machines, minimize cost; compare to brute force (6 perms).
  const double c[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  double best = 1e9;
  int perm[3] = {0, 1, 2};
  std::vector<int> p = {0, 1, 2};
  do {
    double v = c[0][p[0]] + c[1][p[1]] + c[2][p[2]];
    best = std::min(best, v);
  } while (std::next_permutation(p.begin(), p.end()));
  (void)perm;

  MilpModel m;
  int x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = m.AddBinary(c[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    m.AddConstraint({{x[i][0], 1}, {x[i][1], 1}, {x[i][2], 1}},
                    lp::Sense::kEq, 1.0);
    m.AddConstraint({{x[0][i], 1}, {x[1][i], 1}, {x[2][i], 1}},
                    lp::Sense::kEq, 1.0);
  }
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, best, 1e-6);
}

TEST(BranchAndBoundTest, NodeLimitReturnsFeasible) {
  // A knapsack big enough to need branching, with max_nodes = 1: should
  // still return the rounding-heuristic incumbent as kFeasible (or prove
  // optimal if lucky).
  MilpModel m;
  m.set_objective_sense(lp::ObjSense::kMaximize);
  std::vector<int> x;
  for (int i = 0; i < 12; ++i) x.push_back(m.AddBinary(7.0 + (i * 13) % 11));
  std::vector<std::pair<int, double>> row;
  for (int i = 0; i < 12; ++i) row.push_back({x[i], 2.0 + (i * 7) % 5});
  m.AddConstraint(std::move(row), lp::Sense::kLe, 17.0);
  BranchAndBoundSolver::Options opts;
  opts.max_nodes = 1;
  MilpSolution s = MustSolve(m, opts);
  EXPECT_TRUE(s.status == MilpStatus::kFeasible ||
              s.status == MilpStatus::kOptimal ||
              s.status == MilpStatus::kNoSolutionFound);
  if (s.status != MilpStatus::kNoSolutionFound) {
    EXPECT_TRUE(m.IsFeasible(s.values));
    EXPECT_LE(s.objective, s.best_bound + 1e-6);  // maximize: bound >= obj
  }
}

TEST(BranchAndBoundTest, IsFeasibleChecksEverything) {
  MilpModel m;
  int x = m.AddBinary(1.0);
  int y = m.AddContinuous(0, 2, 1.0);
  m.AddConstraint({{x, 1}, {y, 1}}, lp::Sense::kLe, 2.0);
  EXPECT_TRUE(m.IsFeasible({1.0, 1.0}));
  EXPECT_FALSE(m.IsFeasible({0.5, 1.0}));  // fractional binary
  EXPECT_FALSE(m.IsFeasible({1.0, 3.0}));  // bound violation
  EXPECT_FALSE(m.IsFeasible({1.0, 1.5}));  // constraint violation
  EXPECT_FALSE(m.IsFeasible({1.0}));       // wrong arity
}

TEST(BranchAndBoundTest, EqualityConstrainedInteger) {
  // x + y = 7, min 2x + y, x,y integer in [0,7] -> x = 0, y = 7, obj 7.
  MilpModel m;
  int x = m.AddInteger(0, 7, 2.0);
  int y = m.AddInteger(0, 7, 1.0);
  m.AddConstraint({{x, 1}, {y, 1}}, lp::Sense::kEq, 7.0);
  MilpSolution s = MustSolve(m);
  ASSERT_EQ(s.status, MilpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
  EXPECT_NEAR(s.values[x], 0.0, 1e-7);
}

}  // namespace
}  // namespace albic::milp
