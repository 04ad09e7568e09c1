#include "tests/lp/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace albic::lp {

const char* SolveStatusToString(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

namespace {

enum class VarState : uint8_t { kAtLower, kAtUpper, kBasic };

/// Internal dense-tableau bounded-variable simplex. Column layout:
/// [structural | slack (one per row) | artificial (one per row)].
class Tableau {
 public:
  Tableau(const LpModel& model, const SimplexSolver::Options& opts)
      : model_(model), opts_(opts) {}

  Result<LpSolution> Run();

 private:
  Status Build();
  void InitObjectiveRow(bool phase1);
  // One simplex phase; returns terminal status for that phase.
  SolveStatus Iterate();
  void Pivot(int row, int col);
  double VarValue(int j) const {
    return state_[j] == VarState::kAtLower ? lower_[j] : upper_[j];
  }

  const LpModel& model_;
  SimplexSolver::Options opts_;

  int m_ = 0;             // rows
  int n_struct_ = 0;      // structural variables
  int n_total_ = 0;       // structural + slack + artificial
  int art_begin_ = 0;     // first artificial column

  std::vector<std::vector<double>> t_;  // m_ x n_total_ tableau (B^-1 * A)
  std::vector<double> lower_, upper_, cost_;
  std::vector<double> d_;       // reduced-cost row for the current phase
  std::vector<VarState> state_;
  std::vector<int> basis_;      // basis_[i] = variable basic in row i
  std::vector<double> beta_;    // current value of basic variable per row

  int iterations_ = 0;
  int degenerate_run_ = 0;  // consecutive near-zero steps (Bland trigger)
  int max_iterations_ = 0;
};

Status Tableau::Build() {
  m_ = model_.num_constraints();
  n_struct_ = model_.num_variables();
  const int n_slack = m_;
  art_begin_ = n_struct_ + n_slack;
  n_total_ = art_begin_ + m_;

  const double sense_mult =
      model_.objective_sense() == ObjSense::kMinimize ? 1.0 : -1.0;

  lower_.assign(n_total_, 0.0);
  upper_.assign(n_total_, kInfinity);
  cost_.assign(n_total_, 0.0);
  state_.assign(n_total_, VarState::kAtLower);

  for (int j = 0; j < n_struct_; ++j) {
    const VariableDef& v = model_.variable(j);
    if (v.lower > v.upper) {
      return Status::InvalidArgument("variable with lower > upper: " + v.name);
    }
    if (v.lower <= -kInfinity && v.upper >= kInfinity) {
      return Status::InvalidArgument("free variables are not supported");
    }
    lower_[j] = v.lower;
    upper_[j] = v.upper;
    cost_[j] = sense_mult * v.cost;
    // Nonbasic at the finite bound (prefer lower).
    state_[j] =
        v.lower > -kInfinity ? VarState::kAtLower : VarState::kAtUpper;
  }

  t_.assign(m_, std::vector<double>(n_total_, 0.0));
  basis_.assign(m_, -1);
  beta_.assign(m_, 0.0);

  for (int i = 0; i < m_; ++i) {
    const ConstraintDef& row = model_.constraint(i);
    for (const auto& [j, coef] : row.terms) {
      if (j < 0 || j >= n_struct_) {
        return Status::InvalidArgument("constraint references unknown variable");
      }
      t_[i][j] += coef;
    }
    // Slack: row + s = rhs with bounds depending on the sense.
    const int s = n_struct_ + i;
    t_[i][s] = 1.0;
    switch (row.sense) {
      case Sense::kLe:
        lower_[s] = 0.0;
        upper_[s] = kInfinity;
        break;
      case Sense::kGe:
        lower_[s] = -kInfinity;
        upper_[s] = 0.0;
        state_[s] = VarState::kAtUpper;
        break;
      case Sense::kEq:
        lower_[s] = 0.0;
        upper_[s] = 0.0;
        break;
    }
    // Residual with every non-artificial variable at its initial bound.
    double residual = row.rhs;
    for (int j = 0; j < art_begin_; ++j) {
      if (t_[i][j] != 0.0) residual -= t_[i][j] * VarValue(j);
    }
    // Normalize the row so the basic artificial has coefficient +1 and the
    // starting basis is exactly the identity (keeps T = B^{-1}A invariant).
    if (residual < 0.0) {
      for (int j = 0; j < art_begin_; ++j) t_[i][j] = -t_[i][j];
      residual = -residual;
    }
    const int a = art_begin_ + i;
    t_[i][a] = 1.0;
    lower_[a] = 0.0;
    upper_[a] = kInfinity;
    basis_[i] = a;
    state_[a] = VarState::kBasic;
    beta_[i] = residual;
  }

  max_iterations_ = opts_.max_iterations > 0
                        ? opts_.max_iterations
                        : 200 * (m_ + n_total_) + 1000;
  return Status::OK();
}

void Tableau::InitObjectiveRow(bool phase1) {
  // d_j = c_j - c_B . T[:,j], with phase-1 costs (1 on artificials) or the
  // model costs.
  std::vector<double> c(n_total_, 0.0);
  if (phase1) {
    for (int j = art_begin_; j < n_total_; ++j) c[j] = 1.0;
  } else {
    c = cost_;
  }
  d_.assign(n_total_, 0.0);
  for (int j = 0; j < n_total_; ++j) d_[j] = c[j];
  for (int i = 0; i < m_; ++i) {
    const double cb = c[basis_[i]];
    if (cb == 0.0) continue;
    const std::vector<double>& row = t_[i];
    for (int j = 0; j < n_total_; ++j) d_[j] -= cb * row[j];
  }
}

void Tableau::Pivot(int r, int q) {
  std::vector<double>& prow = t_[r];
  const double piv = prow[q];
  assert(std::fabs(piv) > 0.0);
  const double inv = 1.0 / piv;
  for (int j = 0; j < n_total_; ++j) prow[j] *= inv;
  prow[q] = 1.0;  // kill roundoff
  for (int i = 0; i < m_; ++i) {
    if (i == r) continue;
    const double f = t_[i][q];
    if (f == 0.0) continue;
    std::vector<double>& row = t_[i];
    for (int j = 0; j < n_total_; ++j) row[j] -= f * prow[j];
    row[q] = 0.0;
  }
  const double fd = d_[q];
  if (fd != 0.0) {
    for (int j = 0; j < n_total_; ++j) d_[j] -= fd * prow[j];
    d_[q] = 0.0;
  }
}

SolveStatus Tableau::Iterate() {
  const double eps = opts_.eps;
  while (true) {
    if (++iterations_ > max_iterations_) return SolveStatus::kIterationLimit;
    const bool bland = degenerate_run_ > 4 * (m_ + 16);

    // --- Pricing: pick entering column. ---
    int q = -1;
    double best = -eps;
    int dir = +1;
    for (int j = 0; j < n_total_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      if (upper_[j] - lower_[j] < eps &&
          upper_[j] < kInfinity && lower_[j] > -kInfinity) {
        continue;  // fixed variable can never improve
      }
      double score;
      int cand_dir;
      if (state_[j] == VarState::kAtLower) {
        score = d_[j];     // want d_j < 0 to increase j
        cand_dir = +1;
      } else {
        score = -d_[j];    // want d_j > 0 to decrease j
        cand_dir = -1;
      }
      if (score < best - 1e-15) {
        if (bland && q >= 0) continue;  // Bland: first eligible index wins
        best = score;
        q = j;
        dir = cand_dir;
        if (bland) break;
      }
    }
    if (q < 0) return SolveStatus::kOptimal;

    // --- Ratio test. ---
    // Entering variable moves by dir * t; basic i changes at rate
    // delta_i = -dir * T[i][q].
    double t_max = kInfinity;
    int leave_row = -1;
    bool leave_to_upper = false;
    bool bound_flip = false;
    if (upper_[q] < kInfinity && lower_[q] > -kInfinity) {
      t_max = upper_[q] - lower_[q];
      bound_flip = true;
    }
    for (int i = 0; i < m_; ++i) {
      const double alpha = t_[i][q];
      if (std::fabs(alpha) < opts_.pivot_tol) continue;
      const double delta = -static_cast<double>(dir) * alpha;
      const int bj = basis_[i];
      double limit;
      bool hits_upper;
      if (delta < 0.0) {  // basic value decreases toward its lower bound
        if (lower_[bj] <= -kInfinity) continue;
        limit = (beta_[i] - lower_[bj]) / (-delta);
        hits_upper = false;
      } else {  // increases toward its upper bound
        if (upper_[bj] >= kInfinity) continue;
        limit = (upper_[bj] - beta_[i]) / delta;
        hits_upper = true;
      }
      if (limit < -1e-9) limit = 0.0;
      // Prefer strictly smaller limits; on ties prefer the larger |pivot|
      // for numerical stability (or the smaller variable index under Bland).
      if (limit < t_max - 1e-10 ||
          (leave_row >= 0 && limit < t_max + 1e-10 &&
           (bland ? basis_[i] < basis_[leave_row]
                  : std::fabs(alpha) > std::fabs(t_[leave_row][q])))) {
        t_max = limit;
        leave_row = i;
        leave_to_upper = hits_upper;
        bound_flip = false;
      }
    }

    if (t_max >= kInfinity) return SolveStatus::kUnbounded;

    degenerate_run_ = t_max < 1e-9 ? degenerate_run_ + 1 : 0;

    // --- Apply the step. ---
    for (int i = 0; i < m_; ++i) {
      const double alpha = t_[i][q];
      if (alpha == 0.0) continue;
      beta_[i] += -static_cast<double>(dir) * alpha * t_max;
    }
    if (bound_flip || leave_row < 0) {
      state_[q] = state_[q] == VarState::kAtLower ? VarState::kAtUpper
                                                  : VarState::kAtLower;
      continue;
    }
    const int leaving = basis_[leave_row];
    state_[leaving] =
        leave_to_upper ? VarState::kAtUpper : VarState::kAtLower;
    const double entering_value = VarValue(q) + dir * t_max;
    basis_[leave_row] = q;
    state_[q] = VarState::kBasic;
    beta_[leave_row] = entering_value;
    Pivot(leave_row, q);
  }
}

Result<LpSolution> Tableau::Run() {
  ALBIC_RETURN_NOT_OK(Build());

  // --- Phase 1: minimize the sum of artificials. ---
  bool need_phase1 = false;
  for (int i = 0; i < m_; ++i) {
    if (beta_[i] > opts_.eps) need_phase1 = true;
  }
  if (need_phase1) {
    InitObjectiveRow(/*phase1=*/true);
    SolveStatus st = Iterate();
    if (st == SolveStatus::kIterationLimit) {
      LpSolution sol;
      sol.status = st;
      sol.iterations = iterations_;
      return sol;
    }
    double infeas = 0.0;
    for (int i = 0; i < m_; ++i) {
      if (basis_[i] >= art_begin_) infeas += beta_[i];
    }
    if (infeas > 1e-6) {
      LpSolution sol;
      sol.status = SolveStatus::kInfeasible;
      sol.iterations = iterations_;
      return sol;
    }
  }
  // Freeze artificials at zero so phase 2 cannot reuse them.
  for (int j = art_begin_; j < n_total_; ++j) {
    lower_[j] = 0.0;
    upper_[j] = 0.0;
    if (state_[j] == VarState::kAtUpper) state_[j] = VarState::kAtLower;
  }

  // --- Phase 2. ---
  degenerate_run_ = 0;
  InitObjectiveRow(/*phase1=*/false);
  SolveStatus st = Iterate();

  LpSolution sol;
  sol.status = st;
  sol.iterations = iterations_;
  if (st == SolveStatus::kOptimal) {
    std::vector<double> x(n_total_, 0.0);
    for (int j = 0; j < n_total_; ++j) {
      if (state_[j] != VarState::kBasic) x[j] = VarValue(j);
    }
    for (int i = 0; i < m_; ++i) x[basis_[i]] = beta_[i];
    sol.values.assign(x.begin(), x.begin() + n_struct_);
    // Clamp tiny bound violations from roundoff.
    for (int j = 0; j < n_struct_; ++j) {
      sol.values[j] = std::clamp(sol.values[j], model_.variable(j).lower,
                                 model_.variable(j).upper);
    }
    sol.objective = model_.ObjectiveValue(sol.values);
  }
  return sol;
}

}  // namespace

Result<LpSolution> SimplexSolver::Solve(const LpModel& model,
                                        const Options& options) {
  Tableau tableau(model, options);
  return tableau.Run();
}

}  // namespace albic::lp
