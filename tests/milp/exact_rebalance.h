#pragma once

/// \file
/// \brief The exact MILP oracle: the paper's §4.3.1 load-balancing /
/// scale-in model, built from a snapshot and its items and solved by branch
/// and bound, which the planner's local search is tested against.

#include <vector>

#include "balance/balance_item.h"
#include "balance/rebalancer.h"
#include "common/result.h"
#include "engine/snapshot.h"
#include "tests/milp/branch_and_bound.h"

namespace albic::milp {

/// \brief An exact solve: branch and bound's terminal state and the plan
/// its incumbent implies.
struct ExactPlan {
  /// kFeasible means the node budget stopped the search before it proved
  /// the incumbent optimal; a test comparing against the optimum asserts
  /// kOptimal.
  MilpStatus status = MilpStatus::kNoSolutionFound;
  /// The incumbent's plan; empty unless status is kOptimal or kFeasible.
  balance::RebalancePlan plan;
};

/// \brief Builds the §4.3.1 model over \p items and solves it within
/// branch and bound's default node budget.
///
/// Models constraints (1)-(5): unique placement, bounded migration cost (or
/// count, for the Flux comparison), and node load within [mean-(d-dl),
/// mean+(d-du)], with constraint (4) disabled for nodes marked for removal,
/// which is what drains them (Lemmas 1 and 2). Pinned items add constant
/// load and cost, and a secondary cap bounds each node's secondary load.
/// The objective is w1·d − w2·(du + dl) with w1 = 1000 ≫ w2 = 1, so
/// minimizing d strictly dominates. Returns an error Status only for a
/// snapshot without retained nodes or a malformed model.
Result<ExactPlan> SolveExact(const engine::SystemSnapshot& snapshot,
                             const std::vector<balance::BalanceItem>& items,
                             const balance::RebalanceConstraints& constraints);

}  // namespace albic::milp
