#pragma once

#include <vector>

#include "common/result.h"
#include "lp/simplex.h"
#include "milp/milp_model.h"

namespace albic::milp {

/// \brief Terminal state of a MILP solve.
enum class MilpStatus {
  kOptimal,          ///< Incumbent proven optimal.
  kFeasible,         ///< Incumbent found, optimality not proven (limits hit).
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
  bool timed_out = false;  ///< Options::time_limit_ms ended the search.
};

/// \brief LP-based branch & bound with best-first search, most-fractional
/// branching and an LP-rounding primal heuristic.
///
/// Plays the role CPLEX plays in the paper for instances small enough for
/// exact solving (tests, small clusters). Cluster-scale balancing instances
/// are handled by the local-search heuristic in balance/ (DESIGN.md §4.2).
class BranchAndBoundSolver {
 public:
  struct Options {
    double int_tol = 1e-6;       ///< Integrality tolerance.
    double gap_tol = 1e-9;       ///< Absolute optimality gap for termination.
    int max_nodes = 200000;      ///< Node budget (0 = unlimited).
    double time_limit_ms = 0.0;  ///< Wall-clock budget (0 = unlimited).
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
