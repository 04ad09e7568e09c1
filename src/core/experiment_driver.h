#pragma once

/// \file
/// \brief The simulation-driven experiment harness reproducing
/// the paper's figure workloads period by period.

#include "common/result.h"
#include "core/adaptation_framework.h"
#include "engine/load_model.h"
#include "engine/stats.h"
#include "engine/workload_model.h"

namespace albic::core {

/// \brief Options for a flow-level experiment run.
struct DriverOptions {
  int periods = 60;           ///< Number of SPL periods to simulate.
  int baseline_periods = 1;   ///< Periods defining the load-index baseline.
  /// Initialization periods before the controller starts adapting (§5,
  /// "Initialization": the paper measures its load-index baseline right
  /// after the initialization phase, before any adaptation savings).
  int warmup_periods = 1;
  /// Statistics period length in (simulated) seconds; converts migration
  /// pause time into load overhead.
  double spl_seconds = 300.0;
  /// Multiplier on pause-time-derived load: serialization at the source,
  /// deserialization at the target, and catch-up processing of buffered
  /// tuples. This is what makes COLA's ~200 migrations/SPL keep its load
  /// index high in Figs 12-13 while ALBIC's 10 are nearly free (§5.4).
  double migration_overhead_factor = 2.0;
};

/// \brief Drives the flow-level simulation: per SPL period it pulls fresh
/// statistics from the workload model, runs one adaptation round (Algorithm
/// 1), applies the migrations and records the paper's metrics.
///
/// This is the substrate substitution for the paper's EC2/Storm runs: all
/// reported metrics (load distance, load index, collocation factor,
/// migration counts and pause latency) are functions of exactly the
/// quantities simulated here (ARCHITECTURE.md, "Planners").
class ExperimentDriver {
 public:
  /// \brief None of the pointers are owned. `framework` encapsulates the
  /// rebalancer and the (possibly null) scaling policy.
  ExperimentDriver(const engine::Topology* topology,
                   engine::Cluster* cluster, engine::Assignment* assignment,
                   engine::WorkloadModel* workload,
                   AdaptationFramework* framework,
                   const engine::LoadModel* load_model,
                   DriverOptions options = DriverOptions());

  /// \brief Runs all periods; returns the collected statistics.
  Result<engine::StatsCollector> Run();

  /// \brief Runs a single period (exposed for step-wise tests).
  Result<engine::PeriodStats> RunPeriod(int period);

  const engine::StatsCollector& stats() const { return stats_; }

 private:
  const engine::Topology* topology_;
  engine::Cluster* cluster_;
  engine::Assignment* assignment_;
  engine::WorkloadModel* workload_;
  AdaptationFramework* framework_;
  const engine::LoadModel* load_model_;
  DriverOptions options_;
  engine::StatsCollector stats_;
};

}  // namespace albic::core
