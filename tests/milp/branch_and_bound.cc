#include "tests/milp/branch_and_bound.h"

#include <cmath>
#include <queue>
#include <tuple>

#include "common/logging.h"

namespace albic::milp {

const char* MilpStatusToString(MilpStatus s) {
  switch (s) {
    case MilpStatus::kOptimal:
      return "optimal";
    case MilpStatus::kFeasible:
      return "feasible";
    case MilpStatus::kInfeasible:
      return "infeasible";
    case MilpStatus::kUnbounded:
      return "unbounded";
    case MilpStatus::kNoSolutionFound:
      return "no-solution-found";
  }
  return "unknown";
}

namespace {

struct Node {
  // Tightened bounds for integer variables: (var, lower, upper).
  std::vector<std::tuple<int, double, double>> bounds;
  double lp_bound;  // relaxation objective (in minimize sense)
  int depth = 0;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    // Best-first: smaller bound (minimize) first; deeper as tie-break to
    // reach incumbents earlier.
    if (a.lp_bound != b.lp_bound) return a.lp_bound > b.lp_bound;
    return a.depth < b.depth;
  }
};

}  // namespace

bool MilpModel::IsFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != num_variables()) return false;
  for (int j = 0; j < num_variables(); ++j) {
    const auto& v = lp_.variable(j);
    if (x[j] < v.lower - tol || x[j] > v.upper + tol) return false;
    if (integer_[j] && std::fabs(x[j] - std::round(x[j])) > tol) return false;
  }
  for (int i = 0; i < num_constraints(); ++i) {
    const auto& c = lp_.constraint(i);
    double lhs = 0.0;
    for (const auto& [j, coef] : c.terms) lhs += coef * x[j];
    // Scale the tolerance with the row magnitude so big-M style rows do not
    // spuriously fail.
    double scale = std::max(1.0, std::fabs(c.rhs));
    switch (c.sense) {
      case lp::Sense::kLe:
        if (lhs > c.rhs + tol * scale) return false;
        break;
      case lp::Sense::kGe:
        if (lhs < c.rhs - tol * scale) return false;
        break;
      case lp::Sense::kEq:
        if (std::fabs(lhs - c.rhs) > tol * scale) return false;
        break;
    }
  }
  return true;
}

Result<MilpSolution> BranchAndBoundSolver::Solve(const MilpModel& model,
                                                 const Options& options) {
  const double sense_mult =
      model.objective_sense() == lp::ObjSense::kMinimize ? 1.0 : -1.0;

  MilpSolution out;
  double incumbent_min = lp::kInfinity;  // incumbent in minimize sense
  std::vector<double> incumbent_x;

  // Working LP we mutate bounds on per node, then restore.
  lp::LpModel work = model.lp();

  auto solve_node =
      [&](const Node& node) -> Result<lp::LpSolution> {
    std::vector<std::pair<int, lp::VariableDef>> saved;
    saved.reserve(node.bounds.size());
    for (const auto& [j, lo, hi] : node.bounds) {
      saved.emplace_back(j, *work.mutable_variable(j));
      work.mutable_variable(j)->lower = lo;
      work.mutable_variable(j)->upper = hi;
    }
    auto res = lp::SimplexSolver::Solve(work, options.lp_options);
    for (const auto& [j, def] : saved) *work.mutable_variable(j) = def;
    return res;
  };

  auto try_incumbent = [&](const std::vector<double>& x) {
    std::vector<double> rounded = x;
    for (int j = 0; j < model.num_variables(); ++j) {
      if (model.is_integer(j)) rounded[j] = std::round(rounded[j]);
    }
    if (!model.IsFeasible(rounded, 1e-6)) return;
    double obj_min = sense_mult * model.lp().ObjectiveValue(rounded);
    if (obj_min < incumbent_min - options.gap_tol) {
      incumbent_min = obj_min;
      incumbent_x = std::move(rounded);
    }
  };

  auto most_fractional = [&](const std::vector<double>& x) {
    int best = -1;
    double best_frac = options.int_tol;
    for (int j = 0; j < model.num_variables(); ++j) {
      if (!model.is_integer(j)) continue;
      double frac = std::fabs(x[j] - std::round(x[j]));
      if (frac > best_frac) {
        best_frac = frac;
        best = j;
      }
    }
    return best;
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;

  // Root node.
  Node root;
  root.lp_bound = -lp::kInfinity;
  {
    auto res = solve_node(root);
    if (!res.ok()) return res.status();
    const lp::LpSolution& sol = *res;
    out.lp_iterations += sol.iterations;
    if (sol.status == lp::SolveStatus::kInfeasible) {
      out.status = MilpStatus::kInfeasible;
      return out;
    }
    if (sol.status == lp::SolveStatus::kUnbounded) {
      out.status = MilpStatus::kUnbounded;
      return out;
    }
    if (sol.status == lp::SolveStatus::kIterationLimit) {
      out.status = MilpStatus::kNoSolutionFound;
      return out;
    }
    root.lp_bound = sense_mult * sol.objective;
    try_incumbent(sol.values);
    int frac = most_fractional(sol.values);
    if (frac < 0) {
      // Relaxation already integral: optimal.
      out.status = MilpStatus::kOptimal;
      out.values = sol.values;
      for (int j = 0; j < model.num_variables(); ++j) {
        if (model.is_integer(j)) out.values[j] = std::round(out.values[j]);
      }
      out.objective = model.lp().ObjectiveValue(out.values);
      out.best_bound = out.objective;
      out.nodes_explored = 1;
      return out;
    }
    open.push(root);
  }

  double best_open_bound = root.lp_bound;
  bool limits_hit = false;

  while (!open.empty()) {
    if (options.max_nodes > 0 && out.nodes_explored >= options.max_nodes) {
      limits_hit = true;
      break;
    }
    Node node = open.top();
    open.pop();
    best_open_bound = node.lp_bound;
    if (node.lp_bound >= incumbent_min - options.gap_tol) {
      // Best-first: every remaining node is at least as bad.
      best_open_bound = incumbent_min;
      break;
    }
    ++out.nodes_explored;

    auto res = solve_node(node);
    if (!res.ok()) return res.status();
    const lp::LpSolution& sol = *res;
    out.lp_iterations += sol.iterations;
    if (sol.status != lp::SolveStatus::kOptimal) continue;  // prune
    double bound = sense_mult * sol.objective;
    if (bound >= incumbent_min - options.gap_tol) continue;  // prune

    try_incumbent(sol.values);
    int j = most_fractional(sol.values);
    if (j < 0) {
      // Integral: candidate incumbent (try_incumbent already captured it).
      continue;
    }
    double xj = sol.values[j];
    double lo = model.lp().variable(j).lower;
    double hi = model.lp().variable(j).upper;
    // Apply any tightenings already on this node.
    for (const auto& [vj, vlo, vhi] : node.bounds) {
      if (vj == j) {
        lo = vlo;
        hi = vhi;
      }
    }
    Node down = node;
    down.depth++;
    down.lp_bound = bound;
    down.bounds.emplace_back(j, lo, std::floor(xj));
    Node up = node;
    up.depth++;
    up.lp_bound = bound;
    up.bounds.emplace_back(j, std::ceil(xj), hi);
    open.push(std::move(down));
    open.push(std::move(up));
  }

  if (!open.empty() && !limits_hit) {
    // Exited via bound-based break.
    best_open_bound = incumbent_min;
  }
  if (open.empty()) best_open_bound = incumbent_min;

  if (incumbent_x.empty()) {
    out.status = limits_hit ? MilpStatus::kNoSolutionFound
                            : MilpStatus::kInfeasible;
    return out;
  }
  out.values = incumbent_x;
  out.objective = sense_mult * incumbent_min;
  out.best_bound = sense_mult * std::min(best_open_bound, incumbent_min);
  out.status = (!limits_hit || std::fabs(best_open_bound - incumbent_min) <=
                                   options.gap_tol)
                   ? MilpStatus::kOptimal
                   : MilpStatus::kFeasible;
  return out;
}

}  // namespace albic::milp
