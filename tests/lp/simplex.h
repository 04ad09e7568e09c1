#pragma once

/// \file
/// \brief Test-only bounded-variable simplex, the LP solver beneath the
/// branch-and-bound oracle.

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "tests/lp/lp_model.h"

namespace albic::lp {

/// \brief Terminal state of a simplex solve.
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* SolveStatusToString(SolveStatus s);

/// \brief Result of solving an LP.
struct LpSolution {
  SolveStatus status = SolveStatus::kOptimal;
  double objective = 0.0;          ///< In the model's original sense.
  std::vector<double> values;      ///< One value per model variable.
  int iterations = 0;              ///< Total simplex pivots (both phases).
};

/// \brief Bounded-variable two-phase primal simplex over a dense tableau.
///
/// Supports arbitrary finite/infinite variable bounds (free variables — both
/// bounds infinite — are rejected), <= / >= / = rows, and minimization or
/// maximization. Anti-cycling via Bland's rule after a run of degenerate
/// pivots. Suitable for the model sizes the exact MILP oracle solves (up to
/// a few thousand columns); the planner itself runs the local search in
/// balance/ (see ARCHITECTURE.md, "Planners").
class SimplexSolver {
 public:
  struct Options {
    /// Feasibility / pricing tolerance.
    double eps = 1e-7;
    /// Minimum |pivot| accepted in the ratio test.
    double pivot_tol = 1e-9;
    /// Hard pivot cap across both phases (0 = 100*(m+n) default).
    int max_iterations = 0;
  };

  /// \brief Solves the model; returns an error Status only for malformed
  /// models (free variables, bad indices). Infeasible / unbounded outcomes
  /// are reported in LpSolution::status.
  static Result<LpSolution> Solve(const LpModel& model,
                                  const Options& options);
  static Result<LpSolution> Solve(const LpModel& model) {
    return Solve(model, Options{});
  }
};

}  // namespace albic::lp
