#pragma once

// Shared driver for the ALBIC vs COLA experiments (Figs 10-14): runs an
// adaptation loop over a workload model and reports the paper's four
// series — collocation factor (normalized by the obtainable maximum), load
// distance, load index, and migrations per period.

#include <memory>
#include <vector>

#include "balance/cola_rebalancer.h"
#include "balance/rebalancer.h"
#include "bench/bench_util.h"
#include "core/adaptation_framework.h"
#include "core/albic.h"
#include "core/experiment_driver.h"
#include "engine/load_model.h"
#include "engine/workload_model.h"

namespace albic::bench {

struct AlbicColaSeries {
  std::vector<double> collocation;      ///< Normalized to obtainable max, %.
  std::vector<double> raw_collocation;  ///< Share of total traffic local, %.
  std::vector<double> load_distance;
  std::vector<double> load_index;
  std::vector<int> migrations;

  double FinalCollocation(int tail = 5) const {
    if (collocation.empty()) return 0.0;
    double s = 0.0;
    int n = 0;
    for (int i = std::max<int>(0, static_cast<int>(collocation.size()) - tail);
         i < static_cast<int>(collocation.size()); ++i, ++n) {
      s += collocation[i];
    }
    return n > 0 ? s / n : 0.0;
  }
  double MeanDistance() const {
    double s = 0.0;
    for (double d : load_distance) s += d;
    return load_distance.empty() ? 0.0 : s / load_distance.size();
  }
};

/// Chooses the serde cost so that, with zero collocation, communication
/// overhead roughly matches intrinsic processing load — the paper's Real
/// Job 2 regime where full collocation halves the system load (Fig 12).
inline engine::CostModel CalibratedCostModel(engine::WorkloadModel* wl) {
  wl->AdvancePeriod(0);
  double proc = 0.0;
  for (double l : wl->group_proc_loads()) proc += l;
  double traffic = wl->comm() != nullptr ? wl->comm()->TotalTraffic() : 0.0;
  engine::CostModel cost;
  if (traffic > 0.0) {
    // Both endpoints pay serde_cpu_per_rate; at zero collocation the total
    // serde overhead is ~0.9x the intrinsic processing load, so full
    // collocation cuts the system load roughly in half (Fig 12's load
    // index floor of ~50%).
    cost.serde_cpu_per_rate = 0.45 * proc / traffic;
    cost.network_per_rate = 0.2 * proc / traffic;
  }
  return cost;
}

/// Runs `periods` adaptation rounds of `rebalancer` over the workload.
inline AlbicColaSeries RunAlbicColaDriver(
    engine::WorkloadModel* wl, const engine::Topology& topology,
    engine::Cluster cluster, engine::Assignment assignment,
    balance::Rebalancer* rebalancer, int periods, int max_migrations,
    double max_collocatable_fraction) {
  engine::LoadModel load_model(CalibratedCostModel(wl));
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = max_migrations;
  core::AdaptationFramework fw(rebalancer, nullptr, aopts);
  core::DriverOptions dopts;
  dopts.periods = periods;
  core::ExperimentDriver driver(&topology, &cluster, &assignment, wl, &fw,
                                &load_model, dopts);

  AlbicColaSeries series;
  auto stats = driver.Run();
  if (!stats.ok()) return series;
  const double norm =
      max_collocatable_fraction > 1e-9 ? max_collocatable_fraction : 1.0;
  for (int p = 0; p < stats->num_periods(); ++p) {
    const engine::PeriodStats& ps = stats->series()[p];
    series.collocation.push_back(
        std::min(100.0, ps.collocation_pct / norm));
    series.raw_collocation.push_back(ps.collocation_pct);
    series.load_distance.push_back(ps.load_distance);
    series.load_index.push_back(stats->LoadIndexAt(p));
    series.migrations.push_back(ps.migrations);
  }
  return series;
}

inline std::unique_ptr<core::Albic> MakeAlbic(uint64_t seed,
                                              double budget_ms = 15.0,
                                              int pairs_per_round = 1) {
  core::AlbicOptions aopts;
  aopts.milp.time_budget_ms = budget_ms;
  aopts.seed = seed;
  aopts.max_pairs_per_round = pairs_per_round;
  return std::make_unique<core::Albic>(aopts);
}

}  // namespace albic::bench
