// Property tests: branch & bound against brute-force enumeration on random
// binary programs.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "tests/milp/branch_and_bound.h"

namespace albic::milp {
namespace {

class MilpProperty : public ::testing::TestWithParam<uint64_t> {};

struct RandomBip {
  MilpModel model;
  std::vector<double> costs;
  std::vector<std::vector<double>> rows;  // coefficient per var per row
  std::vector<double> rhs;
  std::vector<lp::Sense> senses;
  int n = 0;
};

RandomBip BuildRandomBinaryProgram(uint64_t seed, int n, int rows) {
  Rng rng(seed);
  RandomBip out;
  out.n = n;
  for (int j = 0; j < n; ++j) {
    out.costs.push_back(rng.Uniform(-5.0, 5.0));
    out.model.AddBinary(out.costs.back());
  }
  for (int i = 0; i < rows; ++i) {
    std::vector<double> coefs(n, 0.0);
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.7)) {
        coefs[j] = rng.Uniform(-3.0, 3.0);
        terms.push_back({j, coefs[j]});
      }
    }
    // RHS chosen so that x = 0 is always feasible: keeps every instance
    // solvable and the comparison meaningful.
    const double rhs = rng.Uniform(0.0, 4.0);
    out.model.AddConstraint(std::move(terms), lp::Sense::kLe, rhs);
    out.rows.push_back(coefs);
    out.rhs.push_back(rhs);
    out.senses.push_back(lp::Sense::kLe);
  }
  return out;
}

double BruteForceMin(const RandomBip& bip) {
  double best = 1e18;
  for (int mask = 0; mask < (1 << bip.n); ++mask) {
    bool ok = true;
    for (size_t i = 0; i < bip.rows.size() && ok; ++i) {
      double lhs = 0.0;
      for (int j = 0; j < bip.n; ++j) {
        if (mask & (1 << j)) lhs += bip.rows[i][j];
      }
      if (lhs > bip.rhs[i] + 1e-9) ok = false;
    }
    if (!ok) continue;
    double obj = 0.0;
    for (int j = 0; j < bip.n; ++j) {
      if (mask & (1 << j)) obj += bip.costs[j];
    }
    best = std::min(best, obj);
  }
  return best;
}

TEST_P(MilpProperty, MatchesBruteForceOnRandomBinaryPrograms) {
  for (int round = 0; round < 6; ++round) {
    RandomBip bip = BuildRandomBinaryProgram(GetParam() * 100 + round,
                                             /*n=*/10, /*rows=*/4);
    const double reference = BruteForceMin(bip);
    auto res = BranchAndBoundSolver::Solve(bip.model);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_EQ(res->status, MilpStatus::kOptimal)
        << MilpStatusToString(res->status) << " (round " << round << ")";
    EXPECT_NEAR(res->objective, reference, 1e-6) << "round " << round;
    EXPECT_TRUE(bip.model.IsFeasible(res->values));
  }
}

TEST_P(MilpProperty, BoundNeverCrossesIncumbent) {
  RandomBip bip = BuildRandomBinaryProgram(GetParam() ^ 0x5555, 12, 5);
  BranchAndBoundSolver::Options opts;
  opts.max_nodes = 5;  // force early termination
  auto res = BranchAndBoundSolver::Solve(bip.model, opts);
  ASSERT_TRUE(res.ok());
  if (res->status == MilpStatus::kFeasible ||
      res->status == MilpStatus::kOptimal) {
    // Minimization: proven bound <= incumbent objective.
    EXPECT_LE(res->best_bound, res->objective + 1e-6);
    // And the true optimum lies between them.
    const double reference = BruteForceMin(bip);
    EXPECT_GE(reference, res->best_bound - 1e-6);
    EXPECT_LE(reference, res->objective + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpProperty,
                         ::testing::Values(3, 17, 50, 404, 9000));

}  // namespace
}  // namespace albic::milp
