#pragma once

/// \file
/// \brief MeasuredCostModel: converts the engine's live latency telemetry
/// (per-group wall service time) into the load view the planners consume,
/// replacing the tuple-count-only path. When telemetry is off the model
/// falls back bit-identically to the modeled loads, so every
/// telemetry-free configuration behaves exactly as before.

#include <cstdint>
#include <vector>

#include "engine/metrics.h"
#include "engine/types.h"

namespace albic::engine {

/// \brief One entry of the profiler's top-k service attribution: the
/// (operator, key group) pairs whose measured service time dominated the
/// period, ranked so every controller decision is explainable from data.
struct AttributedCost {
  KeyGroupId group = -1;
  OperatorId op = -1;
  int64_t service_ns = 0;  ///< Measured wall service time of the group.
  double share = 0.0;      ///< Fraction of the period's total service.
};

/// \brief The measured signals one period distils for the planning
/// substrate; SystemSnapshot carries what the planners read of them. An
/// empty vector changes nothing in the snapshot, so a default
/// MeasuredSignals builds the same snapshot as none.
struct MeasuredSignals {
  /// Per-group share of the measured wall service time, EWMA-smoothed and
  /// summing to 1 over groups with any service. Empty = not measured.
  std::vector<double> group_service_share;
  /// Per-group flag (1/0): a lease flip can migrate the group at zero
  /// transfer cost (MigrationMode::kLease). Filled by the controller from
  /// the engine when lease migration is opted in — empty otherwise, so
  /// legacy planning never sees it. The snapshot builder zeroes the
  /// migration-cost terms of lease-available groups, letting the
  /// rebalancer's migration budget ignore moves that are actually free.
  std::vector<uint8_t> lease_available;
};

/// \brief Derives planning loads from measured telemetry, period by period.
///
/// Tuple counts know how many tuples each group saw; they do not know what
/// a tuple COSTS. The model redistributes the period's total modeled load
/// over the groups proportionally to their measured wall service time
/// (EWMA-smoothed across periods), so a group whose tuples are expensive
/// weighs what it really weighs. The total is preserved, keeping the
/// percent-of-reference-node calibration of node_capacity_work_units.
///
/// Fallback contract (pinned by tests): with telemetry disabled — or a
/// period with no service measurements — UpdateAndBlend returns
/// \p modeled_loads unchanged and clears the signals, so planners see
/// exactly the tuple-count view they saw before this model existed.
class MeasuredCostModel {
 public:
  /// \brief Ingests one harvested period and returns the loads the
  /// planners should balance on: \p modeled_loads redistributed by
  /// measured service share when \p latency carries measurements,
  /// \p modeled_loads bit-identically otherwise.
  std::vector<double> UpdateAndBlend(const std::vector<double>& modeled_loads,
                                     const LatencyPeriodStats& latency);

  /// \brief Signals of the last UpdateAndBlend (service shares).
  /// lease_available is the caller's to fill in its copy — the model has
  /// no engine access.
  const MeasuredSignals& signals() const { return signals_; }

  /// \brief True when the last period carried usable service measurements.
  bool measured() const { return measured_; }

 private:
  MeasuredSignals signals_;
  bool measured_ = false;
  bool have_share_ = false;  ///< share EWMA seeded
};

}  // namespace albic::engine
