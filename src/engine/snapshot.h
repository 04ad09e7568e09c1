#pragma once

/// \file
/// \brief SystemSnapshot, everything the controller and rebalancers
/// see at the end of a statistics period (model + measured statistics).

#include <vector>

#include "engine/assignment.h"
#include "engine/cluster.h"
#include "engine/comm_matrix.h"
#include "engine/topology.h"

namespace albic::engine {

/// \brief Everything the controller / rebalancers see at the end of a
/// statistics period: the system model plus the latest measured statistics
/// (§3, "Statistics" and "Controller").
struct SystemSnapshot {
  const Topology* topology = nullptr;
  const Cluster* cluster = nullptr;
  /// Latest communication matrix; nullptr when not tracked (pure
  /// load-balancing jobs exhibiting even full partitioning).
  const CommMatrix* comm = nullptr;

  Assignment assignment;               ///< Current allocation (q in Table 2).
  /// gLoadk, bottleneck resource, %. Under measured-cost planning these are
  /// the measured loads (the period's total modeled load redistributed by
  /// each group's measured service-time share); with telemetry off they are
  /// the tuple-count modeled loads, bit-identically.
  std::vector<double> group_loads;
  std::vector<double> node_loads;      ///< loadi by NodeId, %.
  /// mck per key group under DIRECT migration: O(state) serialize + move.
  std::vector<double> migration_costs;
  /// Optional per-group load of a non-bottleneck resource (e.g. memory),
  /// for the multi-dimensional extension of §4.3.1: when non-empty, the
  /// rebalancers additionally cap each node's secondary usage
  /// (RebalanceConstraints::max_secondary_per_node). Empty = untracked.
  std::vector<double> group_secondary_loads;
  /// Per-group measured service-time shares (EWMA across periods, summing
  /// to 1); the rebalancers order migration candidates by it. Empty when
  /// telemetry is off.
  std::vector<double> group_service_share;
};

}  // namespace albic::engine
