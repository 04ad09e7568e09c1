#pragma once

/// \file
/// \brief Converging local search for the integrated balancing objective;
/// under measured-cost planning candidates are tried in descending
/// measured service-time share order.

#include <vector>

#include "balance/balance_item.h"
#include "balance/rebalancer.h"
#include "common/result.h"

namespace albic::balance {

/// \brief Options for the assignment local search.
struct LocalSearchOptions {
  /// Wall-clock cap. The search returns as soon as a whole perturbation
  /// sweep finds nothing better, or when the cap expires, whichever comes
  /// first. Its steps do not depend on the cap, but host speed decides how
  /// many of them run inside it. For a fixed execution speed a shorter cap
  /// runs a prefix of a longer one's steps, so the objective before the
  /// final drain pass never gets worse as the cap grows, and it stops
  /// changing once the search converges (the paper's CPLEX quality-vs-time
  /// curves, Figs 2-4). The drain pass (see LocalSearchSolver) is outside
  /// this guarantee.
  double time_budget_ms = 10.0;
};

/// \brief Outcome of a local-search solve.
struct LocalSearchSolution {
  std::vector<engine::NodeId> item_node;  ///< Placement per item.
  double load_distance = 0.0;  ///< max_{n in A} |load_n - mean|.
  double drain_load = 0.0;     ///< Residual load on nodes marked for removal.
  double used_cost = 0.0;      ///< Migration cost consumed.
  int used_count = 0;          ///< Key groups migrated.
  /// True when the wall-clock cap ended the search before it converged.
  bool capped = false;
};

/// \brief Deterministic, converging local search for the integrated
/// balancing objective.
///
/// Optimizes the paper's MILP objective lexicographically — minimize load
/// distance, then the sum of squared deviations (a smooth stand-in for
/// maximizing du + dl tightness) — subject to the migration budget. A
/// descent of best-improvement single-item moves and pairwise swaps reaches
/// a local optimum; perturbation sweeps then try every feasible single-item
/// move from the best placement, re-descend, and keep the result only if it
/// is strictly better. The search converges when a whole sweep finds
/// nothing better; LocalSearchOptions::time_budget_ms only caps it. Plans
/// are therefore a function of the snapshot, not of host speed, whenever
/// the search converges inside the cap. Drain moves off nodes marked for
/// removal fall out of that minimization (Lemma 2: the optimum only exists
/// with B empty), interleaved with urgent overload fixes; a final
/// completion pass force-drains whatever residual the descent leaves
/// behind with the unspent budget, because a nearly-empty marked set is a
/// local optimum the descent cannot escape (moving the last items
/// necessarily overshoots the mean). Items are atomic; pinned items are
/// placed first and never moved (ALBIC's collocation constraints).
class LocalSearchSolver {
 public:
  /// \brief Solves the placement problem. `snapshot` supplies the cluster,
  /// the current assignment q and per-group migration costs.
  static Result<LocalSearchSolution> Solve(
      const engine::SystemSnapshot& snapshot,
      const std::vector<BalanceItem>& items,
      const RebalanceConstraints& constraints,
      const LocalSearchOptions& options);
};

}  // namespace albic::balance
