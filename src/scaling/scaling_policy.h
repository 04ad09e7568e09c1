#pragma once

/// \file
/// \brief ScalingPolicy interface and the utilization-band policy.

#include <vector>

#include "balance/rebalancer.h"
#include "engine/snapshot.h"
#include "engine/types.h"

namespace albic::scaling {

/// \brief Output of the horizontal scaling algorithm (§4.2): how many nodes
/// to acquire, and which to mark for removal.
struct ScalingDecision {
  int add_nodes = 0;
  std::vector<engine::NodeId> mark_for_removal;

  bool any() const { return add_nodes > 0 || !mark_for_removal.empty(); }
};

/// \brief Interface of scaling algorithms. Per Algorithm 1, the decision is
/// made *after* computing a potential allocation plan, so that rebalancing
/// or collocation that would fix an overload prevents unnecessary scaling.
class ScalingPolicy {
 public:
  virtual ~ScalingPolicy() = default;

  virtual ScalingDecision Decide(const engine::SystemSnapshot& snapshot,
                                 const balance::RebalancePlan& potential) = 0;
};

/// \brief Options for the utilization-band policy.
struct UtilizationPolicyOptions {
  /// Scale out when the potential plan still leaves a retained node above
  /// this load (the plan could not fix the overload by rebalancing alone).
  double overload_threshold = 85.0;
  /// Sizing target: nodes are provisioned so the mean load approaches this.
  double target_utilization = 65.0;
  /// Scale in only when mean load is below this.
  double scale_in_threshold = 40.0;
  /// Cap on simultaneous additions / removals per adaptation round.
  int max_change_per_round = 4;
};

/// \brief Simple utilization-band scaling in the spirit of [10, 12] (the
/// paper plugs in existing sizing algorithms; developing a novel one is out
/// of scope there and here, §4.2).
class UtilizationScalingPolicy : public ScalingPolicy {
 public:
  explicit UtilizationScalingPolicy(
      UtilizationPolicyOptions options = UtilizationPolicyOptions());

  ScalingDecision Decide(const engine::SystemSnapshot& snapshot,
                         const balance::RebalancePlan& potential) override;

 private:
  UtilizationPolicyOptions options_;
};

/// \brief A policy that never scales (pure load-balancing experiments).
class NullScalingPolicy : public ScalingPolicy {
 public:
  ScalingDecision Decide(const engine::SystemSnapshot&,
                         const balance::RebalancePlan&) override {
    return {};
  }
};

}  // namespace albic::scaling
