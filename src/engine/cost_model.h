#pragma once

/// \file
/// \brief MeasuredCostModel: converts the engine's live latency telemetry
/// (per-group wall service time, mailbox queueing delay) into the load view
/// the planners consume, replacing the tuple-count-only path. When telemetry
/// is off the model falls back bit-identically to the modeled loads, so
/// every telemetry-free configuration behaves exactly as before.

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

/// \brief Knobs of the measured-cost model.
struct MeasuredCostOptions {
  /// EWMA weight of the newest period's measurements. 1.0 = no smoothing
  /// (each period stands alone), smaller values damp one-period noise at
  /// the cost of reacting slower to genuine shifts.
  double ewma_alpha = 0.5;
  /// Minimum increase of the queue-delay p99 over its EWMA (microseconds)
  /// that counts as growth for the trend detector; absorbs clock jitter.
  double trend_epsilon_us = 2.0;
};

/// \brief Across-period trend of the mailbox queueing delay — the
/// forecastable precursor of an end-to-end p99 breach: before latency
/// blows through an SLO, batches first sit longer in mailboxes, so a
/// sustained rise here lets the scaling policy act ahead of the breach.
struct QueueDelayTrend {
  bool measured = false;          ///< Telemetry produced queue samples.
  double p99_ewma_us = 0.0;       ///< Smoothed queue-delay p99.
  double slope_us_per_period = 0.0;  ///< Last change of the EWMA.
  int rising_periods = 0;         ///< Consecutive periods of growth.
};

/// \brief The measured signals one period of telemetry distils for the
/// planning substrate; SystemSnapshot carries a copy so every planner can
/// see them. All vectors are empty (and the trend unmeasured) when the
/// engine runs without latency telemetry.
struct MeasuredSignals {
  /// Per-group share of the measured wall service time, EWMA-smoothed and
  /// summing to 1 over groups with any service. Empty = not measured.
  std::vector<double> group_service_share;
  /// Per-group EWMA of the mean mailbox queueing delay (us) of batches
  /// delivered to the group. Empty = not measured.
  std::vector<double> group_queue_delay_us;
  QueueDelayTrend queue_trend;
  /// Per-group flag (1/0): a lease flip over the shared state arena can
  /// migrate the group at zero transfer cost (state_arena.h). Filled by
  /// the controller from the engine when lease migration is opted in —
  /// empty otherwise, so legacy planning never sees it. The snapshot
  /// builder zeroes the migration-cost terms of lease-available groups,
  /// letting the rebalancer's migration budget ignore moves that are
  /// actually free.
  std::vector<uint8_t> lease_available;
  /// Wave-phase attribution of the period (the caller's to fill from
  /// EnginePeriodStats::phases; the model has no engine access). "off"
  /// when the engine runs without profile_wave_phases — the stable name of
  /// the phase that dominated the period's wall time otherwise.
  const char* dominant_phase = "off";
  double dominant_phase_share = 0.0;   ///< Dominant phase's time share.
  /// Top-k (operator, key group) pairs by measured service time; empty
  /// when profiling is off.
  std::vector<AttributedCost> top_service_costs;
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
  explicit MeasuredCostModel(MeasuredCostOptions options = {})
      : options_(options) {}

  /// \brief Ingests one harvested period and returns the loads the
  /// planners should balance on: \p modeled_loads redistributed by
  /// measured service share when \p latency carries measurements,
  /// \p modeled_loads bit-identically otherwise.
  std::vector<double> UpdateAndBlend(const std::vector<double>& modeled_loads,
                                     const LatencyPeriodStats& latency);

  /// \brief Signals of the last UpdateAndBlend (service shares, queue
  /// delays, trend). lease_available and the phase attribution are the
  /// caller's to fill — the model has no engine access.
  MeasuredSignals& signals() { return signals_; }
  const MeasuredSignals& signals() const { return signals_; }

  /// \brief True when the last period carried usable service measurements.
  bool measured() const { return measured_; }

  const MeasuredCostOptions& options() const { return options_; }

 private:
  MeasuredCostOptions options_;
  MeasuredSignals signals_;
  bool measured_ = false;
  bool have_share_ = false;  ///< share EWMA seeded
  bool have_queue_ = false;  ///< queue-trend EWMA seeded
  /// Per-group: queue-delay EWMA seeded by a first measured period.
  std::vector<uint8_t> queue_delay_seeded_;
};

}  // namespace albic::engine
