#pragma once

/// \file
/// \brief Test-only linear-program builder solved by SimplexSolver.

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace albic::lp {

/// \brief Value treated as +infinity for variable bounds.
constexpr double kInfinity = 1e30;

/// \brief Row comparison sense of a linear constraint.
enum class Sense { kLe, kGe, kEq };

/// \brief Optimization direction.
enum class ObjSense { kMinimize, kMaximize };

/// \brief One variable: bounds and objective coefficient.
struct VariableDef {
  double lower = 0.0;
  double upper = kInfinity;
  double cost = 0.0;
  std::string name;
};

/// \brief One constraint: sparse row, sense and right-hand side.
struct ConstraintDef {
  std::vector<std::pair<int, double>> terms;  ///< (variable index, coeff)
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

/// \brief In-memory linear program: min/max c'x s.t. rows, l <= x <= u.
///
/// The model is a plain builder; solving is done by SimplexSolver. Variable
/// and constraint indices are dense and returned by the Add* calls.
class LpModel {
 public:
  /// \brief Adds a variable and returns its index.
  int AddVariable(double lower, double upper, double cost,
                  std::string name = {}) {
    vars_.push_back({lower, upper, cost, std::move(name)});
    return static_cast<int>(vars_.size()) - 1;
  }

  /// \brief Adds a constraint and returns its index. Term variable indices
  /// must already exist.
  int AddConstraint(std::vector<std::pair<int, double>> terms, Sense sense,
                    double rhs, std::string name = {}) {
    constraints_.push_back({std::move(terms), sense, rhs, std::move(name)});
    return static_cast<int>(constraints_.size()) - 1;
  }

  void set_objective_sense(ObjSense sense) { obj_sense_ = sense; }
  ObjSense objective_sense() const { return obj_sense_; }

  int num_variables() const { return static_cast<int>(vars_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }

  const VariableDef& variable(int i) const { return vars_[i]; }
  VariableDef* mutable_variable(int i) { return &vars_[i]; }
  const ConstraintDef& constraint(int i) const { return constraints_[i]; }

  /// \brief Evaluates the objective c'x for a full assignment.
  double ObjectiveValue(const std::vector<double>& x) const {
    double v = 0.0;
    for (size_t j = 0; j < vars_.size(); ++j) v += vars_[j].cost * x[j];
    return v;
  }

 private:
  std::vector<VariableDef> vars_;
  std::vector<ConstraintDef> constraints_;
  ObjSense obj_sense_ = ObjSense::kMinimize;
};

}  // namespace albic::lp
