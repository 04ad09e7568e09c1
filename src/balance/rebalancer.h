#pragma once

/// \file
/// \brief Rebalancer interface, RebalanceConstraints (migration budget)
/// and RebalancePlan — the contract of every key-group allocation
/// algorithm (keyGroupAlloc() in Algorithm 1).

#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/assignment.h"
#include "engine/snapshot.h"

namespace albic::balance {

/// \brief Per-round adaptation overhead limits (§4.3.1: "the cost of
/// migration <= maxMigrCost"). Exactly one of the two limits is usually
/// active; §5.2 swaps the cost limit for a migration-count limit to compare
/// with Flux on equal terms.
struct RebalanceConstraints {
  /// Maximum summed migration cost (sum of mck over moved groups).
  double max_migration_cost = std::numeric_limits<double>::infinity();
  /// Maximum number of migrated key groups; -1 disables the count limit.
  int max_migrations = -1;
  /// Multi-dimensional extension (§4.3.1): cap on each node's usage of the
  /// tracked non-bottleneck resource (SystemSnapshot::
  /// group_secondary_loads), in the same percent units. Infinity = off.
  double max_secondary_per_node = std::numeric_limits<double>::infinity();

  bool CountLimited() const { return max_migrations >= 0; }
  bool SecondaryLimited() const {
    return max_secondary_per_node < std::numeric_limits<double>::infinity();
  }
};

/// \brief A computed allocation plan (the `plan` of Algorithm 1).
struct RebalancePlan {
  engine::Assignment assignment;              ///< Proposed new allocation.
  std::vector<engine::Migration> migrations;  ///< Diff from the current one.
  /// Load distance the plan predicts, using the snapshot's (location
  /// independent) group loads.
  double predicted_load_distance = 0.0;
  /// True when the local search's wall-clock cap cut the solve short
  /// before it converged.
  bool capped = false;
};

/// \brief Interface of all key-group allocation algorithms (keyGroupAlloc()
/// in Algorithm 1): the paper's MILP, ALBIC, and the baselines.
class Rebalancer {
 public:
  virtual ~Rebalancer() = default;

  /// \brief Computes a new allocation for the snapshot under the given
  /// migration constraints.
  virtual Result<RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const RebalanceConstraints& constraints) = 0;

  virtual std::string name() const = 0;
};

}  // namespace albic::balance
