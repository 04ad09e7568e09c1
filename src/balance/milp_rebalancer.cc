#include "balance/milp_rebalancer.h"

#include <algorithm>
#include <cmath>

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
  LocalSearchOptions ls;
  ls.time_budget_ms = options_.time_budget_ms;
  ALBIC_ASSIGN_OR_RETURN(
      LocalSearchSolution sol,
      LocalSearchSolver::Solve(snapshot, items, constraints, ls));
  RebalancePlan plan = PlanFromItemPlacement(snapshot, items, sol.item_node);
  plan.capped = sol.capped;
  return plan;
}

}  // namespace albic::balance
