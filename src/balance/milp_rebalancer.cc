#include "balance/milp_rebalancer.h"

#include <cmath>

#include "common/logging.h"
#include "milp/branch_and_bound.h"

namespace albic::balance {

namespace {

using engine::NodeId;

/// Node loads implied by placing `items` at `item_node`, indexed by NodeId.
std::vector<double> NodeLoadsFor(const engine::SystemSnapshot& snap,
                                 const std::vector<BalanceItem>& items,
                                 const std::vector<NodeId>& item_node) {
  std::vector<double> loads(snap.cluster->num_nodes_total(), 0.0);
  for (size_t i = 0; i < items.size(); ++i) {
    const NodeId n = item_node[i];
    if (n == engine::kInvalidNode) continue;
    loads[n] += items[i].load / snap.cluster->capacity(n);
  }
  return loads;
}

double DistanceFor(const engine::SystemSnapshot& snap,
                   const std::vector<double>& loads) {
  const auto retained = snap.cluster->retained_nodes();
  if (retained.empty()) return 0.0;
  double total = 0.0;
  for (NodeId n : snap.cluster->active_nodes()) total += loads[n];
  const double mean = total / static_cast<double>(retained.size());
  double d = 0.0;
  for (NodeId n : retained) d = std::max(d, std::fabs(loads[n] - mean));
  return d;
}

}  // namespace

RebalancePlan PlanFromItemPlacement(
    const engine::SystemSnapshot& snapshot,
    const std::vector<BalanceItem>& items,
    const std::vector<engine::NodeId>& item_node) {
  RebalancePlan plan;
  plan.assignment = snapshot.assignment;
  for (size_t i = 0; i < items.size(); ++i) {
    for (engine::KeyGroupId g : items[i].groups) {
      plan.assignment.set_node(g, item_node[i]);
    }
  }
  plan.migrations = snapshot.assignment.DiffTo(plan.assignment);
  plan.predicted_load_distance =
      DistanceFor(snapshot, NodeLoadsFor(snapshot, items, item_node));
  return plan;
}

MilpRebalancer::MilpRebalancer(MilpRebalancerOptions options)
    : options_(options) {}

Result<RebalancePlan> MilpRebalancer::ComputePlan(
    const engine::SystemSnapshot& snapshot,
    const RebalanceConstraints& constraints) {
  return ComputePlanForItems(snapshot, ItemsFromGroups(snapshot), constraints);
}

Result<RebalancePlan> MilpRebalancer::ComputePlanForItems(
    const engine::SystemSnapshot& snapshot,
    const std::vector<BalanceItem>& items,
    const RebalanceConstraints& constraints) {
  if (snapshot.cluster == nullptr || snapshot.topology == nullptr) {
    return Status::InvalidArgument("snapshot missing cluster or topology");
  }
  const int cells = static_cast<int>(items.size()) *
                    snapshot.cluster->num_active();
  const bool exact =
      options_.mode == MilpRebalancerOptions::Mode::kExact ||
      (options_.mode == MilpRebalancerOptions::Mode::kAuto &&
       cells <= options_.exact_max_cells);
  bool exact_capped = false;
  if (exact) {
    auto res = SolveExact(snapshot, items, constraints, &exact_capped);
    if (res.ok()) {
      last_mode_used_ = "exact";
      res->capped = exact_capped;
      return res;
    }
    ALBIC_LOG(kWarn) << "exact MILP failed (" << res.status().ToString()
                     << "); falling back to heuristic";
  }
  last_mode_used_ = "heuristic";
  auto res = SolveHeuristic(snapshot, items, constraints);
  if (res.ok()) res->capped = res->capped || exact_capped;
  return res;
}

Result<RebalancePlan> MilpRebalancer::SolveHeuristic(
    const engine::SystemSnapshot& snapshot,
    const std::vector<BalanceItem>& items,
    const RebalanceConstraints& constraints) {
  LocalSearchOptions ls;
  ls.time_budget_ms = options_.time_budget_ms;
  ALBIC_ASSIGN_OR_RETURN(
      LocalSearchSolution sol,
      LocalSearchSolver::Solve(snapshot, items, constraints, ls));
  RebalancePlan plan = PlanFromItemPlacement(snapshot, items, sol.item_node);
  plan.capped = sol.capped;
  return plan;
}

Result<RebalancePlan> MilpRebalancer::SolveExact(
    const engine::SystemSnapshot& snapshot,
    const std::vector<BalanceItem>& items,
    const RebalanceConstraints& constraints, bool* capped) {
  const std::vector<NodeId> active = snapshot.cluster->active_nodes();
  const std::vector<NodeId> retained = snapshot.cluster->retained_nodes();
  if (retained.empty()) {
    return Status::InvalidArgument("no retained nodes");
  }

  // Current (home) placement: defines q in the migration-cost terms and the
  // constant `mean`.
  std::vector<NodeId> home(items.size());
  for (size_t u = 0; u < items.size(); ++u) {
    home[u] = items[u].pinned != engine::kInvalidNode
                  ? items[u].pinned
                  : ItemHomeNode(items[u], snapshot.assignment,
                                 snapshot.group_loads);
    if (home[u] == engine::kInvalidNode ||
        !snapshot.cluster->is_active(home[u])) {
      home[u] = retained.front();
    }
  }
  const std::vector<double> current_loads =
      NodeLoadsFor(snapshot, items, home);
  double total = 0.0;
  for (NodeId n : active) total += current_loads[n];
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
      base_cost += ItemMoveCost(items[u], p, snapshot.assignment,
                                snapshot.migration_costs);
      base_count += ItemMoveCount(items[u], p, snapshot.assignment);
    } else {
      free_items.push_back(u);
    }
  }

  milp::MilpModel model;
  model.set_objective_sense(lp::ObjSense::kMinimize);

  // x[u][i]: item u placed on active node i.
  std::vector<std::vector<int>> x(free_items.size());
  for (size_t fu = 0; fu < free_items.size(); ++fu) {
    x[fu].resize(active.size());
    for (size_t i = 0; i < active.size(); ++i) {
      x[fu][i] = model.AddBinary(0.0);
    }
  }
  const int d = model.AddContinuous(0.0, std::max(0.0, mean), options_.w1,
                                    "d");  // constraint (5): d <= mean
  const int du = model.AddContinuous(0.0, lp::kInfinity, -options_.w2, "du");
  const int dl = model.AddContinuous(0.0, lp::kInfinity, -options_.w2, "dl");
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
                ? static_cast<double>(
                      ItemMoveCount(item, active[i], snapshot.assignment))
                : ItemMoveCost(item, active[i], snapshot.assignment,
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

  milp::BranchAndBoundSolver::Options bb;
  bb.time_limit_ms = options_.time_budget_ms;
  ALBIC_ASSIGN_OR_RETURN(milp::MilpSolution sol,
                         milp::BranchAndBoundSolver::Solve(model, bb));
  *capped = sol.timed_out;
  if (sol.status != milp::MilpStatus::kOptimal &&
      sol.status != milp::MilpStatus::kFeasible) {
    return Status::Infeasible(std::string("MILP terminal status: ") +
                              milp::MilpStatusToString(sol.status));
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
  return PlanFromItemPlacement(snapshot, items, item_node);
}

}  // namespace albic::balance
