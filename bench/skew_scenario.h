#pragma once

// Shared skewed per-tuple-cost planning scenario, driven by both
// bench/bench_latency.cc (bench scale) and tests/core/measured_cost_test.cc
// (test scale) so the harness — and any fix to it — exists exactly once.
//
// The workload: tuple counts are perfectly uniform across key groups, but a
// few "hot" groups burn real wall time per tuple, and every hot group
// starts on the same node. Tuple-count planning sees balanced loads and
// never acts; measured-cost planning sees the service-time shares and
// spreads the hot groups. The controller's fluid-queue overload model
// (ControllerLoopOptions::service_capacity_us_per_period) converts the
// persistent overload into compounding stall latency, so the difference
// shows up as overloaded periods and late-round p99.
//
// The capacity is CALIBRATED, not hard-coded: a one-period probe run
// measures the workload's total service time on this machine under the
// current load, and the capacity is set to capacity_factor x the per-node
// average. Machine speed, sanitizer slowdown and CPU contention inflate
// the probe and the measured runs together, so the
// concentrated-vs-balanced margin survives them.

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"

namespace albic::bench {

/// Sink whose per-tuple WALL cost is skewed by key group: hot groups burn
/// hot_us of real time per tuple, cold groups are free — tuple counts stay
/// uniform, so only measured service time can see the skew.
class SkewedCostSinkOperator : public engine::StreamOperator {
 public:
  SkewedCostSinkOperator(int num_groups, int num_hot, int64_t hot_us)
      : num_hot_(num_hot),
        hot_us_(hot_us),
        counts_(static_cast<size_t>(num_groups), 0) {}

  void Process(const engine::Tuple&, int group_index,
               engine::Emitter*) override {
    ++counts_[group_index];
    if (group_index < num_hot_) SpinFor(hot_us_);
  }
  void ProcessBatch(const engine::TupleBatch& batch, int group_index,
                    engine::Emitter*) override {
    counts_[group_index] += static_cast<int64_t>(batch.size());
    if (group_index < num_hot_) {
      SpinFor(hot_us_ * static_cast<int64_t>(batch.size()));
    }
  }
  std::string SerializeGroupState(int group_index) const override {
    return std::string(reinterpret_cast<const char*>(&counts_[group_index]),
                       sizeof(int64_t));
  }
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override {
    if (data.size() != sizeof(int64_t)) {
      return Status::InvalidArgument("bad skewed-sink state");
    }
    counts_[group_index] = *reinterpret_cast<const int64_t*>(data.data());
    return Status::OK();
  }
  void ClearGroupState(int group_index) override {
    counts_[group_index] = 0;
  }

 private:
  static void SpinFor(int64_t us) {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    while (std::chrono::steady_clock::now() < end) {
    }
  }

  int num_hot_;
  int64_t hot_us_;
  std::vector<int64_t> counts_;
};

struct SkewScenarioOptions {
  bool use_measured_costs = true;
  int64_t hot_us = 40;        ///< Wall cost per hot-group tuple.
  int tuples_per_group = 100; ///< Per period; counts are uniform by design.
  int periods = 10;
  /// Node capacity = this x the probe-measured per-node average service.
  /// With 3 hot groups on 4 nodes, the concentrated node carries ~3x the
  /// average hot work and a balanced node ~1.33x, so 1.75 sits between
  /// with margin on both sides.
  double capacity_factor = 1.75;
  bool checkpointed = true;   ///< Per-period checkpoints: modes can differ.
};

struct SkewScenarioResult {
  int overloaded_periods = 0;
  int last_round_overloaded_nodes = 0;
  int64_t max_late_p99_us = 0;  ///< Worst p99 past the warmup rounds.
  double final_backlog_us = 0.0;
  int migrations = 0;
  int migrations_direct = 0;
  int migrations_indirect = 0;
  double predicted_pause_us = 0.0;  ///< Summed over applied migrations.
  double actual_pause_us = 0.0;
  double capacity_us = 0.0;         ///< Calibrated per-period node capacity.
  bool measured_rounds = false;     ///< Any round planned on measured costs.
  bool ok = false;
};

inline SkewScenarioResult RunSkewScenario(const SkewScenarioOptions& opts) {
  constexpr int kSkewGroups = 12;
  constexpr int kSkewNodes = 4;
  constexpr int kHot = 3;
  constexpr int64_t kPeriodUs = 1000000;

  SkewScenarioResult out;

  // One key per group, so tuple counts are exactly uniform.
  std::vector<uint64_t> key_for_group(kSkewGroups, 0);
  {
    std::vector<bool> found(kSkewGroups, false);
    int remaining = kSkewGroups;
    for (uint64_t k = 0; remaining > 0; ++k) {
      const int g = engine::LocalEngine::RouteKey(k, kSkewGroups);
      if (!found[g]) {
        found[g] = true;
        key_for_group[g] = k;
        --remaining;
      }
    }
  }
  // Adversarial start: all hot groups on node 0, but every node holds the
  // same number of groups (tuple-count view: perfectly balanced).
  const auto initial_assignment = [&] {
    engine::Assignment assign(kSkewGroups);
    for (engine::KeyGroupId g = 0; g < kSkewGroups; ++g) {
      assign.set_node(g, g / kHot);
    }
    return assign;
  };
  const auto one_period = [&](auto&& ingest, int period) {
    for (int i = 0; i < opts.tuples_per_group; ++i) {
      for (int g = 0; g < kSkewGroups; ++g) {
        engine::Tuple t;
        t.key = key_for_group[g];
        t.ts = static_cast<int64_t>(period) * kPeriodUs +
               i * kPeriodUs / opts.tuples_per_group;
        t.num = 1.0;
        if (!ingest(t).ok()) return false;
      }
    }
    return true;
  };

  engine::Topology topo;
  topo.AddOperator("skew", kSkewGroups, 1 << 16);

  // --- Probe: measure one period's total service on THIS machine --------
  {
    engine::Cluster probe_cluster(kSkewNodes);
    SkewedCostSinkOperator probe_op(kSkewGroups, kHot, opts.hot_us);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    eopts.latency_sample_every = 8;
    engine::LocalEngine probe(&topo, &probe_cluster, initial_assignment(),
                              std::vector<engine::StreamOperator*>{&probe_op},
                              eopts);
    if (!one_period([&](const engine::Tuple& t) { return probe.Inject(0, t); },
                    /*period=*/0)) {
      return out;
    }
    probe.Flush();
    const engine::EnginePeriodStats stats = probe.HarvestPeriod();
    double total_service_us = 0.0;
    for (const engine::GroupLatency& gl : stats.latency.group_service) {
      total_service_us += gl.service_sum_us;
    }
    if (total_service_us <= 0.0) return out;
    out.capacity_us =
        opts.capacity_factor * total_service_us / kSkewNodes;
  }

  // --- Measured run ------------------------------------------------------
  engine::Cluster cluster(kSkewNodes);
  SkewedCostSinkOperator skew(kSkewGroups, kHot, opts.hot_us);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  eopts.latency_sample_every = 8;
  engine::LocalEngine engine(&topo, &cluster, initial_assignment(),
                             std::vector<engine::StreamOperator*>{&skew},
                             eopts);
  engine::MemoryCheckpointStore store;
  engine::CheckpointCoordinatorOptions ccopts;
  ccopts.interval_us = kPeriodUs;  // checkpoint every period
  engine::CheckpointCoordinator coordinator(&store, ccopts);
  if (opts.checkpointed && !engine.EnableCheckpointing(&coordinator).ok()) {
    return out;
  }

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer rebalancer(mopts);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  core::AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, aopts);
  engine::LoadModel load_model{engine::CostModel{}};

  core::ControllerLoopOptions copts;
  copts.period_every_us = kPeriodUs;
  copts.node_capacity_work_units =
      static_cast<double>(kSkewGroups * opts.tuples_per_group);
  copts.use_comm = false;
  copts.use_measured_costs = opts.use_measured_costs;
  copts.service_capacity_us_per_period = out.capacity_us;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topo,
                                  &cluster, copts);

  for (int p = 0; p < opts.periods; ++p) {
    if (!one_period(
            [&](const engine::Tuple& t) { return controller.Ingest(0, t); },
            p)) {
      return out;
    }
  }
  if (!controller.RunRoundNow().ok()) return out;

  // Records report the moves landed since the previous record, so the
  // sums below cover every plan but the trailing round's, which never lands.
  const std::vector<core::ControllerRound>& history = controller.history();
  for (size_t r = 0; r < history.size(); ++r) {
    const core::ControllerRound& round = history[r];
    if (round.overloaded_nodes > 0) ++out.overloaded_periods;
    out.migrations += round.migrations_applied;
    out.migrations_direct += round.migrations_direct;
    out.migrations_indirect += round.migrations_indirect;
    out.measured_rounds |= round.measured_costs;
    for (const core::MigrationDecision& d : round.migration_decisions) {
      out.predicted_pause_us += d.predicted_pause_us;
      out.actual_pause_us += d.actual_pause_us;
    }
    // Warmup: the first round measures the pre-plan placement, the second
    // still carries the first overload's modeled stall.
    if (r >= 2) {
      out.max_late_p99_us =
          std::max(out.max_late_p99_us, round.latency.e2e_p99_us);
    }
  }
  for (const double b : history.back().backlog_us) {
    out.final_backlog_us = std::max(out.final_backlog_us, b);
  }
  out.last_round_overloaded_nodes = history.back().overloaded_nodes;
  out.ok = true;
  return out;
}

}  // namespace albic::bench
