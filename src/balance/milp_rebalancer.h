#pragma once

/// \file
/// \brief The paper's MILP rebalancer: exact branch-and-bound and the
/// converging local-search heuristic over the same model.

#include <vector>

#include "balance/balance_item.h"
#include "balance/local_search.h"
#include "balance/rebalancer.h"
#include "common/result.h"

namespace albic::balance {

/// \brief Options for the MILP-based integrated rebalancer.
struct MilpRebalancerOptions {
  /// Which solver realizes the MILP. kExact builds the paper's §4.3.1 model
  /// verbatim and solves it with branch & bound (CPLEX's role) — only viable
  /// for small instances. kHeuristic runs the converging local search over
  /// the identical objective. kAuto picks exact when items x nodes is small.
  enum class Mode { kAuto, kExact, kHeuristic };
  Mode mode = Mode::kAuto;

  /// Optimizer wall-clock cap (exact: B&B limit; heuristic: the local
  /// search's cap — it returns earlier once it converges).
  double time_budget_ms = 20.0;

  /// Objective weights; the paper requires w1 >> w2 so that minimizing d
  /// strictly dominates tightening du + dl.
  double w1 = 1000.0;
  double w2 = 1.0;

  /// kAuto switches to the heuristic above this many x_{i,k} variables.
  int exact_max_cells = 600;
};

/// \brief The paper's integrated load-balancing / scale-in MILP (§4.3.1).
///
/// Models constraints (1)-(5): unique placement, bounded migration cost (or
/// count, for the Flux comparison), and node load within [mean-(d-dl),
/// mean+(d-du)], with constraint (4) disabled for nodes marked for removal,
/// which is what drains them (Lemmas 1 and 2).
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

  /// \brief Mode the last ComputePlan actually used ("exact"/"heuristic").
  const char* last_mode_used() const { return last_mode_used_; }

 private:
  /// Sets *capped when branch and bound's time limit ended the solve,
  /// whether or not it found a plan.
  Result<RebalancePlan> SolveExact(const engine::SystemSnapshot& snapshot,
                                   const std::vector<BalanceItem>& items,
                                   const RebalanceConstraints& constraints,
                                   bool* capped);
  Result<RebalancePlan> SolveHeuristic(
      const engine::SystemSnapshot& snapshot,
      const std::vector<BalanceItem>& items,
      const RebalanceConstraints& constraints);

  MilpRebalancerOptions options_;
  const char* last_mode_used_ = "none";
};

/// \brief Builds a RebalancePlan from per-item placements, computing the
/// migration diff and the predicted load distance (shared by the exact and
/// heuristic paths, and by the baselines).
RebalancePlan PlanFromItemPlacement(const engine::SystemSnapshot& snapshot,
                                    const std::vector<BalanceItem>& items,
                                    const std::vector<engine::NodeId>& item_node);

}  // namespace albic::balance
