// Property tests for the simplex solver over randomized instances: the
// returned point must be feasible, and no better than... no worse than any
// known-feasible reference point (constructed by building the constraints
// around it).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/lp/simplex.h"

namespace albic::lp {
namespace {

class SimplexProperty : public ::testing::TestWithParam<uint64_t> {};

struct RandomLp {
  LpModel model;
  std::vector<double> feasible_point;
};

/// Builds a random LP that is feasible by construction: pick x0 within
/// bounds, then add rows a'x (<=|>=|=) a'x0 +- slack.
RandomLp BuildFeasibleLp(uint64_t seed, int num_vars, int num_rows) {
  Rng rng(seed);
  RandomLp out;
  for (int j = 0; j < num_vars; ++j) {
    const double lo = rng.Uniform(-5.0, 0.0);
    const double hi = lo + rng.Uniform(1.0, 10.0);
    const double cost = rng.Uniform(-3.0, 3.0);
    out.model.AddVariable(lo, hi, cost);
    out.feasible_point.push_back(rng.Uniform(lo, hi));
  }
  for (int i = 0; i < num_rows; ++i) {
    std::vector<std::pair<int, double>> terms;
    double lhs_at_x0 = 0.0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.Bernoulli(0.6)) {
        const double coef = rng.Uniform(-4.0, 4.0);
        terms.push_back({j, coef});
        lhs_at_x0 += coef * out.feasible_point[j];
      }
    }
    if (terms.empty()) continue;
    const int kind = static_cast<int>(rng.UniformInt(0, 2));
    if (kind == 0) {
      out.model.AddConstraint(std::move(terms), Sense::kLe,
                              lhs_at_x0 + rng.Uniform(0.0, 3.0));
    } else if (kind == 1) {
      out.model.AddConstraint(std::move(terms), Sense::kGe,
                              lhs_at_x0 - rng.Uniform(0.0, 3.0));
    } else {
      out.model.AddConstraint(std::move(terms), Sense::kEq, lhs_at_x0);
    }
  }
  return out;
}

bool Satisfies(const LpModel& m, const std::vector<double>& x,
               double tol = 1e-5) {
  for (int j = 0; j < m.num_variables(); ++j) {
    if (x[j] < m.variable(j).lower - tol) return false;
    if (x[j] > m.variable(j).upper + tol) return false;
  }
  for (int i = 0; i < m.num_constraints(); ++i) {
    const ConstraintDef& c = m.constraint(i);
    double lhs = 0.0;
    for (const auto& [j, coef] : c.terms) lhs += coef * x[j];
    const double scale = std::max(1.0, std::fabs(c.rhs));
    switch (c.sense) {
      case Sense::kLe:
        if (lhs > c.rhs + tol * scale) return false;
        break;
      case Sense::kGe:
        if (lhs < c.rhs - tol * scale) return false;
        break;
      case Sense::kEq:
        if (std::fabs(lhs - c.rhs) > tol * scale) return false;
        break;
    }
  }
  return true;
}

TEST_P(SimplexProperty, OptimumIsFeasibleAndDominatesReferencePoint) {
  for (int round = 0; round < 10; ++round) {
    RandomLp lp = BuildFeasibleLp(GetParam() * 1000 + round,
                                  /*num_vars=*/6, /*num_rows=*/5);
    auto res = SimplexSolver::Solve(lp.model);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->status, SolveStatus::kOptimal)
        << "feasible-by-construction LP not solved (round " << round << ")";
    EXPECT_TRUE(Satisfies(lp.model, res->values))
        << "returned point violates constraints";
    // Minimization: the optimum is no worse than the construction point.
    EXPECT_LE(res->objective,
              lp.model.ObjectiveValue(lp.feasible_point) + 1e-6);
  }
}

TEST_P(SimplexProperty, MaximizationMirrorsMinimization) {
  RandomLp lp = BuildFeasibleLp(GetParam() ^ 0xabcdef, 5, 4);
  auto min_res = SimplexSolver::Solve(lp.model);
  ASSERT_TRUE(min_res.ok());
  ASSERT_EQ(min_res->status, SolveStatus::kOptimal);

  // Negate all costs and maximize: optimum value must be the negation.
  LpModel flipped = lp.model;
  flipped.set_objective_sense(ObjSense::kMaximize);
  for (int j = 0; j < flipped.num_variables(); ++j) {
    flipped.mutable_variable(j)->cost = -flipped.variable(j).cost;
  }
  auto max_res = SimplexSolver::Solve(flipped);
  ASSERT_TRUE(max_res.ok());
  ASSERT_EQ(max_res->status, SolveStatus::kOptimal);
  EXPECT_NEAR(max_res->objective, -min_res->objective, 1e-6);
}

TEST_P(SimplexProperty, TighteningABindingBoundNeverImproves) {
  RandomLp lp = BuildFeasibleLp(GetParam() ^ 0x1234, 5, 3);
  auto base = SimplexSolver::Solve(lp.model);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->status, SolveStatus::kOptimal);
  // Shrink every variable's box toward the construction point by 10%; the
  // construction point stays feasible, so the problem remains feasible and
  // the optimum cannot get better (smaller feasible set).
  LpModel tightened = lp.model;
  for (int j = 0; j < tightened.num_variables(); ++j) {
    VariableDef* v = tightened.mutable_variable(j);
    const double x0 = lp.feasible_point[j];
    v->lower = v->lower + 0.1 * (x0 - v->lower);
    v->upper = v->upper - 0.1 * (v->upper - x0);
  }
  auto tight = SimplexSolver::Solve(tightened);
  ASSERT_TRUE(tight.ok());
  ASSERT_EQ(tight->status, SolveStatus::kOptimal);
  EXPECT_GE(tight->objective, base->objective - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         ::testing::Values(1, 7, 42, 99, 1234, 777));

}  // namespace
}  // namespace albic::lp
