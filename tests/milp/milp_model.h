#pragma once

/// \file
/// \brief Test-only MILP builder: an LpModel plus integrality marks.

#include <string>
#include <vector>

#include "tests/lp/lp_model.h"

namespace albic::milp {

/// \brief A mixed-integer linear program: an LpModel plus integrality marks.
///
/// This is the modeling surface the exact oracle (exact_rebalance.h) uses to
/// express the paper's §4.3.1 program (constraints (1)-(5)); the solver
/// lives in BranchAndBoundSolver.
class MilpModel {
 public:
  /// \brief Adds a continuous variable.
  int AddContinuous(double lower, double upper, double cost,
                    std::string name = {}) {
    int idx = lp_.AddVariable(lower, upper, cost, std::move(name));
    integer_.push_back(false);
    return idx;
  }

  /// \brief Adds a general integer variable.
  int AddInteger(double lower, double upper, double cost,
                 std::string name = {}) {
    int idx = lp_.AddVariable(lower, upper, cost, std::move(name));
    integer_.push_back(true);
    return idx;
  }

  /// \brief Adds a {0,1} variable.
  int AddBinary(double cost, std::string name = {}) {
    return AddInteger(0.0, 1.0, cost, std::move(name));
  }

  /// \brief Adds a linear constraint (see lp::LpModel::AddConstraint).
  int AddConstraint(std::vector<std::pair<int, double>> terms, lp::Sense sense,
                    double rhs, std::string name = {}) {
    return lp_.AddConstraint(std::move(terms), sense, rhs, std::move(name));
  }

  void set_objective_sense(lp::ObjSense sense) {
    lp_.set_objective_sense(sense);
  }
  lp::ObjSense objective_sense() const { return lp_.objective_sense(); }

  bool is_integer(int j) const { return integer_[j]; }
  int num_variables() const { return lp_.num_variables(); }
  int num_constraints() const { return lp_.num_constraints(); }

  /// \brief The underlying LP (integrality relaxed).
  const lp::LpModel& lp() const { return lp_; }
  lp::LpModel* mutable_lp() { return &lp_; }

  /// \brief True if \p x satisfies every constraint and integrality within
  /// \p tol. Used by the rounding heuristic and by tests.
  bool IsFeasible(const std::vector<double>& x, double tol = 1e-6) const;

 private:
  lp::LpModel lp_;
  std::vector<bool> integer_;
};

}  // namespace albic::milp
