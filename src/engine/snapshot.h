#pragma once

/// \file
/// \brief SystemSnapshot, everything the controller and rebalancers
/// see at the end of a statistics period (model + measured statistics).

#include <vector>

#include "engine/assignment.h"
#include "engine/cluster.h"
#include "engine/comm_matrix.h"
#include "engine/cost_model.h"
#include "engine/metrics.h"
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
  /// Measured latency of the harvested period (p50/p99 end-to-end, p99
  /// queueing delay) when the engine runs with latency telemetry; all
  /// zeros (e2e_count == 0) otherwise. Informational for planners and
  /// policies — the SLO trigger consumes the live version pre-harvest.
  LatencySummary latency;
  /// Per-group measured service-time shares (EWMA across periods, summing
  /// to 1); the rebalancers order migration candidates by it. Empty when
  /// telemetry is off.
  std::vector<double> group_service_share;
  /// Per-group EWMA of the mean mailbox queueing delay (us). Empty when
  /// telemetry is off. Informational: no planner consumes it yet — the
  /// ROADMAP follow-on is to weigh collocation scoring with it; the
  /// aggregate trend below is what the scaling policy acts on.
  std::vector<double> group_queue_delay_us;
  /// Across-period queue-delay trend — the forecastable precursor of a p99
  /// breach; the scaling policy can scale out on sustained growth before
  /// the SLO trigger ever fires.
  QueueDelayTrend queue_trend;
  /// Wave-phase attribution (profile_wave_phases): the stable name of the
  /// phase that dominated the period's measured wall time ("service",
  /// "wave_barrier", "checkpoint", ...), "off" when profiling is off.
  /// Explains *why* the loads look the way they do — a service-dominated
  /// period calls for rebalancing, a checkpoint-dominated one does not.
  const char* dominant_phase = "off";
  double dominant_phase_share = 0.0;  ///< Dominant phase's time share.
  /// Top-k (operator, key group) pairs by measured wall service time;
  /// empty when profiling is off.
  std::vector<AttributedCost> top_service_costs;
};

}  // namespace albic::engine
