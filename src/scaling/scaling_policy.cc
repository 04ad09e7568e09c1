#include "scaling/scaling_policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace albic::scaling {

namespace {
using engine::NodeId;
}  // namespace

UtilizationScalingPolicy::UtilizationScalingPolicy(
    UtilizationPolicyOptions options)
    : options_(options) {}

ScalingDecision UtilizationScalingPolicy::Decide(
    const engine::SystemSnapshot& snapshot,
    const balance::RebalancePlan& potential) {
  ScalingDecision decision;
  const std::vector<NodeId> retained = snapshot.cluster->retained_nodes();
  if (retained.empty()) return decision;

  // Loads the potential plan would produce, from the snapshot's group loads
  // (Algorithm 1: the plan is consulted before any scaling decision).
  std::vector<double> plan_loads(snapshot.cluster->num_nodes_total(), 0.0);
  for (engine::KeyGroupId g = 0; g < potential.assignment.num_groups(); ++g) {
    const NodeId n = potential.assignment.node_of(g);
    if (n != engine::kInvalidNode) {
      plan_loads[n] += snapshot.group_loads[g] / snapshot.cluster->capacity(n);
    }
  }
  double planned_max = 0.0;
  double total_load = 0.0;
  double retained_capacity = 0.0;
  for (NodeId n : retained) {
    planned_max = std::max(planned_max, plan_loads[n]);
    retained_capacity += snapshot.cluster->capacity(n);
  }
  for (NodeId n : snapshot.cluster->active_nodes()) total_load +=
      plan_loads[n] * snapshot.cluster->capacity(n);

  // --- Scale out: the potential plan cannot fix the overload. ---
  if (planned_max > options_.overload_threshold) {
    const double capacity_needed = total_load / options_.target_utilization;
    int add = static_cast<int>(std::ceil(capacity_needed - retained_capacity));
    add = std::clamp(add, 1, options_.max_change_per_round);
    decision.add_nodes = add;
    return decision;
  }
  const double mean = total_load / retained_capacity;

  // --- Scale in: only when already well under-utilized, only when no node
  // is draining, and only if the survivors can absorb the load. ---
  if (!snapshot.cluster->marked_nodes().empty()) return decision;
  if (mean >= options_.scale_in_threshold) return decision;

  // Mark the least-loaded nodes while the remaining capacity keeps the mean
  // at or below the target utilization.
  std::vector<NodeId> by_load = retained;
  std::sort(by_load.begin(), by_load.end(), [&](NodeId a, NodeId b) {
    return plan_loads[a] < plan_loads[b];
  });
  double capacity_left = retained_capacity;
  for (NodeId n : by_load) {
    if (static_cast<int>(decision.mark_for_removal.size()) >=
        options_.max_change_per_round) {
      break;
    }
    const double cap = snapshot.cluster->capacity(n);
    if (capacity_left - cap <= 0.0) break;
    if (total_load / (capacity_left - cap) > options_.target_utilization) {
      break;  // undesirable scale-in: survivors would run too hot (§4.1)
    }
    capacity_left -= cap;
    decision.mark_for_removal.push_back(n);
  }
  return decision;
}

}  // namespace albic::scaling
