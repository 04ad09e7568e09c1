#pragma once

/// \file
/// \brief Algorithm 1 as a library: one integrative adaptation
/// round combining scaling, rebalancing and collocation.

#include "balance/rebalancer.h"
#include "engine/cost_model.h"
#include "engine/load_model.h"
#include "engine/migration.h"
#include "engine/snapshot.h"
#include "scaling/scaling_policy.h"

namespace albic::core {

/// \brief Configuration of the integrative adaptation framework.
struct AdaptationOptions {
  balance::RebalanceConstraints constraints;
  engine::MigrationCostModel migration_model;
};

/// \brief Result of one adaptation round.
struct AdaptationRound {
  balance::RebalancePlan plan;
  /// Wall-clock time of the round's ComputePlan calls (both, when the
  /// round re-plans after scaling), traced as controller.plan spans.
  double plan_ms = 0.0;
  /// True when a wall-clock cap cut any of those calls short
  /// (RebalancePlan::capped).
  bool plan_capped = false;
  engine::MigrationReport report;
  scaling::ScalingDecision scaling;
  int nodes_terminated = 0;
  int nodes_added = 0;
  int nodes_marked = 0;
};

/// \brief Algorithm 1: the integrative adaptation framework.
///
/// Each round: (1) terminate drained nodes that were marked for removal;
/// (2) compute a potential allocation plan; (3) consult the scaling policy
/// with that plan — rebalancing or collocation may fix an overload without
/// scaling, and scale-in is skipped when the remaining nodes could not be
/// balanced; (4) if scaling acted, recompute the plan integratively;
/// (5) apply the plan's migrations under the per-round overhead budget.
class AdaptationFramework {
 public:
  /// \brief Neither pointer is owned; \p policy may be null (no scaling).
  AdaptationFramework(balance::Rebalancer* rebalancer,
                      scaling::ScalingPolicy* policy,
                      AdaptationOptions options);

  /// \brief Runs one adaptation round, mutating the cluster (terminations,
  /// additions, marks) and the assignment (migrations). \p measured
  /// optionally carries the measured signals (service shares, lease
  /// availability); when it holds service shares, \p group_proc_loads
  /// should already be the measured loads.
  Result<AdaptationRound> RunRound(
      const engine::Topology& topology, const engine::LoadModel& load_model,
      const std::vector<double>& group_proc_loads,
      const engine::CommMatrix* comm, engine::Cluster* cluster,
      engine::Assignment* assignment,
      const engine::MeasuredSignals* measured = nullptr);

  /// \brief Builds the controller's view of the system (§3, "Controller"):
  /// loads, gLoads, migration costs (zeroed for groups \p measured marks
  /// lease-available) and service shares under the given allocation. Empty
  /// signal vectors change nothing, so a default MeasuredSignals builds
  /// the same snapshot as nullptr.
  engine::SystemSnapshot BuildSnapshot(
      const engine::Topology& topology, const engine::LoadModel& load_model,
      const std::vector<double>& group_proc_loads,
      const engine::CommMatrix* comm, const engine::Cluster& cluster,
      const engine::Assignment& assignment,
      const engine::MeasuredSignals* measured = nullptr) const;

  const AdaptationOptions& options() const { return options_; }

 private:
  balance::Rebalancer* rebalancer_;
  scaling::ScalingPolicy* policy_;
  AdaptationOptions options_;
};

}  // namespace albic::core
