#include "tests/milp/exact_rebalance.h"

#include <algorithm>
#include <utility>

#include "balance/milp_rebalancer.h"

namespace albic::milp {

namespace {

using balance::BalanceItem;
using engine::NodeId;

// Objective weights; the paper requires w1 >> w2 so that minimizing d
// strictly dominates tightening du + dl.
constexpr double kW1 = 1000.0;
constexpr double kW2 = 1.0;

}  // namespace

Result<ExactPlan> SolveExact(const engine::SystemSnapshot& snapshot,
                             const std::vector<BalanceItem>& items,
                             const balance::RebalanceConstraints& constraints) {
  const std::vector<NodeId> active = snapshot.cluster->active_nodes();
  const std::vector<NodeId> retained = snapshot.cluster->retained_nodes();
  if (retained.empty()) {
    return Status::InvalidArgument("no retained nodes");
  }

  // Current (home) placement: defines q in the migration-cost terms and the
  // constant `mean`.
  std::vector<NodeId> home(items.size());
  std::vector<double> home_loads(snapshot.cluster->num_nodes_total(), 0.0);
  for (size_t u = 0; u < items.size(); ++u) {
    home[u] = items[u].pinned != engine::kInvalidNode
                  ? items[u].pinned
                  : balance::ItemHomeNode(items[u], snapshot.assignment,
                                          snapshot.group_loads);
    if (home[u] == engine::kInvalidNode ||
        !snapshot.cluster->is_active(home[u])) {
      home[u] = retained.front();
    }
    home_loads[home[u]] += items[u].load / snapshot.cluster->capacity(home[u]);
  }
  double total = 0.0;
  for (NodeId n : active) total += home_loads[n];
  const double mean = total / static_cast<double>(retained.size());

  // Pinned items contribute constant load / cost.
  std::vector<double> base_load(snapshot.cluster->num_nodes_total(), 0.0);
  std::vector<double> base_secondary(snapshot.cluster->num_nodes_total(),
                                     0.0);
  double base_cost = 0.0;
  int base_count = 0;
  std::vector<size_t> free_items;
  for (size_t u = 0; u < items.size(); ++u) {
    if (items[u].pinned != engine::kInvalidNode) {
      const NodeId p = items[u].pinned;
      base_load[p] += items[u].load / snapshot.cluster->capacity(p);
      base_secondary[p] +=
          items[u].secondary_load / snapshot.cluster->capacity(p);
      base_cost += balance::ItemMoveCost(items[u], p, snapshot.assignment,
                                         snapshot.migration_costs);
      base_count += balance::ItemMoveCount(items[u], p, snapshot.assignment);
    } else {
      free_items.push_back(u);
    }
  }

  MilpModel model;
  model.set_objective_sense(lp::ObjSense::kMinimize);

  // x[u][i]: item u placed on active node i.
  std::vector<std::vector<int>> x(free_items.size());
  for (size_t fu = 0; fu < free_items.size(); ++fu) {
    x[fu].resize(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      x[fu][i] = model.AddBinary(0.0);
    }
  }
  const int d = model.AddContinuous(0.0, std::max(0.0, mean), kW1,
                                    "d");  // constraint (5): d <= mean
  const int du = model.AddContinuous(0.0, lp::kInfinity, -kW2, "du");
  const int dl = model.AddContinuous(0.0, lp::kInfinity, -kW2, "dl");
  // Keep the tightenings meaningful: du <= d, dl <= d.
  model.AddConstraint({{du, 1.0}, {d, -1.0}}, lp::Sense::kLe, 0.0);
  model.AddConstraint({{dl, 1.0}, {d, -1.0}}, lp::Sense::kLe, 0.0);

  // Constraint (1): each item on exactly one node.
  for (size_t fu = 0; fu < free_items.size(); ++fu) {
    std::vector<std::pair<int, double>> row;
    for (size_t i = 0; i < active.size(); ++i) row.push_back({x[fu][i], 1.0});
    model.AddConstraint(std::move(row), lp::Sense::kEq, 1.0);
  }

  // Constraint (2): bounded migration cost (or count).
  if (constraints.CountLimited() ||
      constraints.max_migration_cost < lp::kInfinity) {
    std::vector<std::pair<int, double>> row;
    for (size_t fu = 0; fu < free_items.size(); ++fu) {
      const BalanceItem& item = items[free_items[fu]];
      for (size_t i = 0; i < active.size(); ++i) {
        const double coef =
            constraints.CountLimited()
                ? static_cast<double>(balance::ItemMoveCount(
                      item, active[i], snapshot.assignment))
                : balance::ItemMoveCost(item, active[i], snapshot.assignment,
                                        snapshot.migration_costs);
        if (coef != 0.0) row.push_back({x[fu][i], coef});
      }
    }
    const double rhs = constraints.CountLimited()
                           ? constraints.max_migrations - base_count
                           : constraints.max_migration_cost - base_cost;
    model.AddConstraint(std::move(row), lp::Sense::kLe, rhs);
  }

  // Constraints (3) and (4).
  for (size_t i = 0; i < active.size(); ++i) {
    const NodeId n = active[i];
    const double cap = snapshot.cluster->capacity(n);
    std::vector<std::pair<int, double>> upper_row;
    for (size_t fu = 0; fu < free_items.size(); ++fu) {
      const double w = items[free_items[fu]].load / cap;
      if (w != 0.0) upper_row.push_back({x[fu][i], w});
    }
    // (3)  sum x*load/cap + base <= mean + d - du   for all of N.
    std::vector<std::pair<int, double>> row3 = upper_row;
    row3.push_back({d, -1.0});
    row3.push_back({du, 1.0});
    model.AddConstraint(std::move(row3), lp::Sense::kLe, mean - base_load[n]);
    // (4)  sum x*load/cap + base >= mean - d + dl   only for A (kill_i = 0).
    if (!snapshot.cluster->is_marked(n)) {
      std::vector<std::pair<int, double>> row4 = upper_row;
      row4.push_back({d, 1.0});
      row4.push_back({dl, -1.0});
      model.AddConstraint(std::move(row4), lp::Sense::kGe,
                          mean - base_load[n]);
    }
    // Multi-dimensional extension (§4.3.1): cap each node's secondary
    // resource (e.g. memory) usage.
    if (constraints.SecondaryLimited()) {
      std::vector<std::pair<int, double>> sec_row;
      for (size_t fu = 0; fu < free_items.size(); ++fu) {
        const double w = items[free_items[fu]].secondary_load / cap;
        if (w != 0.0) sec_row.push_back({x[fu][i], w});
      }
      if (!sec_row.empty() || base_secondary[n] > 0.0) {
        model.AddConstraint(
            std::move(sec_row), lp::Sense::kLe,
            constraints.max_secondary_per_node - base_secondary[n]);
      }
    }
  }

  ALBIC_ASSIGN_OR_RETURN(MilpSolution sol, BranchAndBoundSolver::Solve(model));
  if (sol.status != MilpStatus::kOptimal &&
      sol.status != MilpStatus::kFeasible) {
    return ExactPlan{sol.status, {}};
  }

  std::vector<NodeId> item_node(items.size(), engine::kInvalidNode);
  for (size_t u = 0; u < items.size(); ++u) {
    if (items[u].pinned != engine::kInvalidNode) item_node[u] = items[u].pinned;
  }
  for (size_t fu = 0; fu < free_items.size(); ++fu) {
    double best = -1.0;
    for (size_t i = 0; i < active.size(); ++i) {
      if (sol.values[x[fu][i]] > best) {
        best = sol.values[x[fu][i]];
        item_node[free_items[fu]] = active[i];
      }
    }
  }
  return ExactPlan{sol.status,
                   balance::PlanFromItemPlacement(snapshot, items, item_node)};
}

}  // namespace albic::milp
