// Integrated elastic scaling (Algorithm 1, live): a real tuple stream whose
// rate swells to 3x and then recedes, driven through the batched runtime and
// the online ControllerLoop. No caller-supplied load vectors anywhere — the
// controller harvests the engine's measured statistics every period,
// consults the potential allocation plan before every scaling decision,
// acquires nodes only when rebalancing cannot fix the overload, marks nodes
// for removal when the cluster runs cold, drains them gradually under the
// migration budget, and terminates them once empty.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "common/table_printer.h"
#include "core/controller_loop.h"
#include "engine/load_model.h"
#include "engine/sharded_source.h"
#include "engine/source.h"
#include "ops/aggregate.h"
#include "scaling/scaling_policy.h"

using namespace albic;  // NOLINT: example brevity

namespace {

constexpr int kGroups = 48;
constexpr int kPeriods = 26;
constexpr int64_t kPeriodUs = 1000000;  // 1 s statistics periods
constexpr double kNodeCapacity = 100.0;  // work units / period at 100%

/// Tuples per period following the tidal profile: 1x -> 3x -> 1x.
int RateFor(int period) {
  double factor = 1.0;
  if (period >= 4 && period <= 10) {
    factor = 1.0 + 2.0 * (period - 4) / 6.0;
  } else if (period > 10 && period <= 16) {
    factor = 3.0;
  } else if (period > 16) {
    factor = std::max(1.0, 3.0 - 0.5 * (period - 16));
  }
  // Base load: 4 nodes x ~55% at factor 1.
  return static_cast<int>(4 * 55.0 / 100.0 * kNodeCapacity * factor);
}

/// The tidal workload as a replayable Source: per period, RateFor(p) tuples
/// spread evenly over the period and over all key groups.
class TidalSource : public engine::Source {
 public:
  size_t FillChunk(engine::Tuple* out, size_t max) override {
    size_t n = 0;
    while (n < max && period_ < kPeriods) {
      const int rate = RateFor(period_);
      if (index_ >= rate) {
        ++period_;
        index_ = 0;
        continue;
      }
      engine::Tuple t;
      t.key = static_cast<uint64_t>(index_);  // spreads over all key groups
      t.ts = static_cast<int64_t>(period_) * kPeriodUs +
             static_cast<int64_t>(index_) * kPeriodUs / rate;
      t.num = 1.0;
      out[n++] = t;
      ++index_;
    }
    return n;
  }

  void Reset() override {
    period_ = 0;
    index_ = 0;
  }

 private:
  int period_ = 0;
  int index_ = 0;
};

}  // namespace

int main() {
  engine::Topology topology;
  topology.AddOperator("pipeline", kGroups, 1 << 20);
  engine::Cluster cluster(4);
  engine::Assignment assignment(kGroups);
  for (engine::KeyGroupId g = 0; g < kGroups; ++g) {
    assignment.set_node(g, g % 4);
  }
  ops::SumByKeyOperator pipeline(kGroups, ops::GroupField::kKey,
                                 /*emit_updates=*/false);

  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topology, &cluster, assignment, {&pipeline},
                             eopts);

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer rebalancer(mopts);
  scaling::UtilizationScalingPolicy policy;
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 8;
  core::AdaptationFramework framework(&rebalancer, &policy, aopts);
  engine::LoadModel load_model(engine::CostModel{});

  core::ControllerLoopOptions copts;
  copts.period_every_us = kPeriodUs;
  copts.node_capacity_work_units = kNodeCapacity;
  copts.use_comm = false;  // even full partitioning: nothing to collocate
  core::ControllerLoop controller(&engine, &framework, &load_model, &topology,
                                  &cluster, copts);

  // Stream the tidal workload through the controller via the source
  // subsystem (single shard: bit-identical to per-tuple ingestion).
  TidalSource tides;
  core::ControllerShardSink sink(&controller);
  engine::ShardedSourceRunner runner;
  if (const auto report = runner.Run({&tides}, 0, kGroups, &sink);
      !report.ok()) {
    std::fprintf(stderr, "ingestion failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!controller.RunRoundNow().ok()) {
    std::fprintf(stderr, "final round failed\n");
    return 1;
  }

  TablePrinter table({"period", "tuples", "active-nodes", "marked",
                      "mean-load(%)", "load-distance(%)", "migrations",
                      "added", "terminated"});
  for (const core::ControllerRound& r : controller.history()) {
    table.AddDoubleRow(
        {static_cast<double>(r.period),
         static_cast<double>(r.tuples_processed),
         static_cast<double>(r.active_nodes),
         static_cast<double>(r.marked_nodes),
         r.mean_load, r.load_distance,
         static_cast<double>(r.migrations_applied),
         static_cast<double>(r.nodes_added),
         static_cast<double>(r.nodes_terminated)},
        1);
  }
  table.Print();
  std::printf(
      "\nThe cluster grew for the 3x surge and shrank afterwards — decided\n"
      "entirely from the engine's measured per-period statistics.\n");
  return 0;
}
