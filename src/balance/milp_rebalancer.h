#pragma once

/// \file
/// \brief The paper's MILP rebalancer, solved by the converging local
/// search over the MILP's objective and constraints.

#include <vector>

#include "balance/balance_item.h"
#include "balance/local_search.h"
#include "balance/rebalancer.h"
#include "common/result.h"

namespace albic::balance {

/// \brief Options for the MILP-based integrated rebalancer.
struct MilpRebalancerOptions {
  /// The one solver the planner runs, the local search. Nothing reads this
  /// field; it stays until no caller assigns it.
  enum class Mode { kHeuristic };
  Mode mode = Mode::kHeuristic;

  /// The local search's wall-clock cap; it returns earlier once it
  /// converges.
  double time_budget_ms = 20.0;
};

/// \brief The paper's integrated load-balancing / scale-in MILP (§4.3.1).
///
/// Plans with the local search over constraints (1)-(5): unique placement,
/// bounded migration cost (or count, for the Flux comparison), and node
/// load within [mean-(d-dl), mean+(d-du)], with constraint (4) disabled for
/// nodes marked for removal, which is what drains them (Lemmas 1 and 2).
/// The tests check it against the exact MILP solved by branch and bound
/// (tests/milp/exact_rebalance.h).
class MilpRebalancer : public Rebalancer {
 public:
  explicit MilpRebalancer(MilpRebalancerOptions options = MilpRebalancerOptions());

  /// \brief Plain balancing: one item per key group.
  Result<RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const RebalanceConstraints& constraints) override;

  /// \brief Balancing over caller-provided atomic items (ALBIC's collocation
  /// partitions and pinned pairs).
  Result<RebalancePlan> ComputePlanForItems(
      const engine::SystemSnapshot& snapshot,
      const std::vector<BalanceItem>& items,
      const RebalanceConstraints& constraints);

  std::string name() const override { return "milp"; }

 private:
  MilpRebalancerOptions options_;
};

/// \brief Builds a RebalancePlan from per-item placements, computing the
/// migration diff and the predicted load distance (shared by the MILP
/// rebalancer and the tests' exact oracle).
RebalancePlan PlanFromItemPlacement(const engine::SystemSnapshot& snapshot,
                                    const std::vector<BalanceItem>& items,
                                    const std::vector<engine::NodeId>& item_node);

}  // namespace albic::balance
