#pragma once

// Shared scale-out-reaction scenario: how many statistics periods the
// controller needs to absorb a load spike, as a function of the migration
// mode the round's moves can use. Driven by bench/bench_latency.cc (bench
// scale) and usable at test scale, like bench/skew_scenario.h.
//
// The workload: tuple counts are uniform until the spike period, then a
// few groups that all live on one node turn hot. The rebalancer runs under
// a finite RebalanceConstraints::max_migration_cost budget sized to one
// group's mck, so the default direct/indirect choice, whose moves carry
// their full O(state) mck (§3), spreads the spike's moves over several
// rounds — while lease-available groups have their mck zeroed in the
// snapshot (adaptation_framework.cc), so the same planner absorbs the
// whole spike in a single round. The reaction metric is the number of
// post-spike rounds that still plan migrations.

#include <algorithm>
#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "bench/skew_scenario.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"

namespace albic::bench {

struct ScaleOutScenarioOptions {
  /// Lease opt-in; without it the controller makes its default
  /// direct/indirect choice per group, every move budgeted at its mck.
  bool use_lease_migration = false;
  int warmup_periods = 2;   ///< Uniform-load periods before the spike.
  int total_periods = 12;   ///< Spike persists from warmup to the end.
  int cold_tuples = 8;      ///< Per-group tuples of a cold period slot.
  int hot_tuples = 40;      ///< Post-spike tuples of the hot groups.
};

struct ScaleOutScenarioResult {
  int reaction_periods = 0;   ///< Post-spike rounds whose moves landed.
  int migrations = 0;         ///< Applied moves, whole run.
  int migrations_lease = 0;
  int migrations_direct = 0;
  int migrations_indirect = 0;
  int pre_spike_migrations = 0;  ///< Should stay 0 (start is balanced).
  /// Moves the trailing round planned; should settle back to 0.
  int last_round_migrations = 0;
  double final_load_distance = 0.0;
  double total_pause_us = 0.0;
  bool ok = false;
};

inline ScaleOutScenarioResult RunScaleOutScenario(
    const ScaleOutScenarioOptions& opts) {
  constexpr int kGroups = 16;
  constexpr int kNodes = 4;
  constexpr int kHot = 3;  // all start on node 0
  constexpr int64_t kPeriodUs = 1000000;
  // One group's state is 1 MiB and the cost model's alpha is 1/2^20 per
  // byte, so every group's mck is exactly 1.0 — the budget below admits
  // one full-cost move per round.
  constexpr int kStateBytes = 1 << 20;

  ScaleOutScenarioResult out;

  // One key per group, so the modeled (tuple-count) loads are exactly the
  // per-group injection weights.
  std::vector<uint64_t> key_for_group(kGroups, 0);
  {
    std::vector<bool> found(kGroups, false);
    int remaining = kGroups;
    for (uint64_t k = 0; remaining > 0; ++k) {
      const int g = engine::LocalEngine::RouteKey(k, kGroups);
      if (!found[g]) {
        found[g] = true;
        key_for_group[g] = k;
        --remaining;
      }
    }
  }

  engine::Topology topo;
  topo.AddOperator("scale", kGroups, kStateBytes);
  engine::Cluster cluster(kNodes);
  engine::Assignment assign(kGroups);
  for (engine::KeyGroupId g = 0; g < kGroups; ++g) {
    assign.set_node(g, g / (kGroups / kNodes));  // node 0 holds the hots
  }
  // The skew scenario's sink with zero hot wall cost: a plain counting
  // operator with serialize/deserialize support, so every mode can move
  // its state.
  SkewedCostSinkOperator sink(kGroups, /*num_hot=*/0, /*hot_us=*/0);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&sink},
                             eopts);
  engine::MemoryCheckpointStore store;
  engine::CheckpointCoordinatorOptions ccopts;
  // Only the initial checkpoint: the replay suffix then grows every
  // period, so an indirect move is never free (with per-period checkpoints
  // the suffix would be ~empty).
  ccopts.interval_us = int64_t{1} << 60;
  engine::CheckpointCoordinator coordinator(&store, ccopts);
  if (!engine.EnableCheckpointing(&coordinator).ok()) return out;

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer rebalancer(mopts);
  core::AdaptationOptions aopts;
  // Cost-budgeted, not count-limited: one full-cost mck per round. Lease
  // moves cost zero in the snapshot, so the same budget never binds them.
  aopts.constraints.max_migrations = -1;
  aopts.constraints.max_migration_cost = 1.0;
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, aopts);
  engine::LoadModel load_model{engine::CostModel{}};

  core::ControllerLoopOptions copts;
  copts.period_every_us = kPeriodUs;
  copts.node_capacity_work_units =
      static_cast<double>(kGroups * opts.cold_tuples +
                          kHot * (opts.hot_tuples - opts.cold_tuples));
  copts.use_comm = false;
  copts.use_measured_costs = false;  // modeled loads: deterministic spike
  copts.use_lease_migration = opts.use_lease_migration;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  for (int p = 0; p < opts.total_periods; ++p) {
    const bool spiked = p >= opts.warmup_periods;
    for (int i = 0; i < opts.hot_tuples; ++i) {
      for (int g = 0; g < kGroups; ++g) {
        const int weight =
            spiked && g < kHot ? opts.hot_tuples : opts.cold_tuples;
        if (i >= weight) continue;
        engine::Tuple t;
        t.key = key_for_group[g];
        t.ts = static_cast<int64_t>(p) * kPeriodUs +
               i * kPeriodUs / opts.hot_tuples;
        t.num = 1.0;
        if (!controller.Ingest(0, t).ok()) return out;
      }
    }
  }
  if (!controller.RunRoundNow().ok()) return out;

  // Round r harvests period r (boundary rounds harvest the period just
  // ended; the trailing RunRoundNow harvests the last). The first round
  // that SEES the spike is the one harvesting the first spiked period.
  // A record reports the moves landed since the previous one: round 0, the
  // first, lands its plan at once, and every later round's plan lands
  // during the next period, so record r > 0 reports round r - 1's moves.
  // The trailing round's plan never lands (no tuple follows it).
  const std::vector<core::ControllerRound>& history = controller.history();
  for (size_t r = 0; r < history.size(); ++r) {
    const core::ControllerRound& round = history[r];
    const size_t planned_by = r == 0 ? 0 : r - 1;
    out.migrations += round.migrations_applied;
    out.migrations_lease += round.migrations_lease;
    out.migrations_direct += round.migrations_direct;
    out.migrations_indirect += round.migrations_indirect;
    out.total_pause_us += round.migration_pause_us;
    if (planned_by < static_cast<size_t>(opts.warmup_periods)) {
      out.pre_spike_migrations += round.migrations_applied;
    } else if (round.migrations_applied > 0) {
      ++out.reaction_periods;
    }
  }
  out.last_round_migrations =
      static_cast<int>(controller.pending_moves().size());
  out.final_load_distance = history.back().load_distance;
  out.ok = true;
  return out;
}

}  // namespace albic::bench
