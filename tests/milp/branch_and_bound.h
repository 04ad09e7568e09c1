#pragma once

/// \file
/// \brief Test-only LP-based branch and bound: the exact MILP solver the
/// planner tests use as their oracle.

#include <vector>

#include "common/result.h"
#include "tests/lp/simplex.h"
#include "tests/milp/milp_model.h"

namespace albic::milp {

/// \brief Terminal state of a MILP solve.
enum class MilpStatus {
  kOptimal,          ///< Incumbent proven optimal.
  kFeasible,         ///< Incumbent found; the node budget ran out first.
  kInfeasible,       ///< No integer-feasible point exists.
  kUnbounded,
  kNoSolutionFound,  ///< Limits hit before any incumbent was found.
};

const char* MilpStatusToString(MilpStatus s);

/// \brief Result of a branch & bound run.
struct MilpSolution {
  MilpStatus status = MilpStatus::kNoSolutionFound;
  double objective = 0.0;        ///< Incumbent objective (model sense).
  double best_bound = 0.0;       ///< Proven bound on the optimum.
  std::vector<double> values;    ///< Incumbent variable values.
  int nodes_explored = 0;
  int lp_iterations = 0;
};

/// \brief LP-based branch & bound with best-first search, most-fractional
/// branching and an LP-rounding primal heuristic.
///
/// Plays the role CPLEX plays in the paper, as the oracle the planner's
/// local search is checked against on instances small enough to prove (see
/// BENCHMARKS.md, "Figs 2–4: solver caps", and ARCHITECTURE.md, "Planners").
/// It stops only on its node budget, never on wall time, so a result does
/// not depend on host speed.
class BranchAndBoundSolver {
 public:
  struct Options {
    double int_tol = 1e-6;       ///< Integrality tolerance.
    double gap_tol = 1e-9;       ///< Absolute optimality gap for termination.
    int max_nodes = 200000;      ///< Node budget (0 = unlimited).
    lp::SimplexSolver::Options lp_options;
  };

  /// \brief Solves the model. Returns an error Status only for malformed
  /// models; solver outcomes are in MilpSolution::status.
  static Result<MilpSolution> Solve(const MilpModel& model,
                                    const Options& options);
  static Result<MilpSolution> Solve(const MilpModel& model) {
    return Solve(model, Options{});
  }
};

}  // namespace albic::milp
