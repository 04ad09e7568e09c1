// Real Job 2 end-to-end on the tuple runtime: flight records stream through
// extract-delay -> sum-delay-by-plane (both partitioned on the airplane
// attribute), while ALBIC discovers at runtime that the two operators'
// aligned key groups belong together — cutting serialization work as the
// collocation factor climbs (§5.4 / Fig 12 of the paper, live).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/table_printer.h"
#include "core/albic.h"
#include "engine/local_engine.h"
#include "engine/migration.h"
#include "ops/aggregate.h"
#include "ops/extract.h"
#include "workload/streams.h"

using namespace albic;  // NOLINT: example brevity

namespace {
constexpr int kNodes = 6;
constexpr int kGroupsPerOp = 12;
constexpr int kPeriods = 16;
constexpr int kTuplesPerPeriod = 4000;
}  // namespace

int main() {
  // --- Job definition: two operators, one-to-one keyed stream. ---
  engine::Topology topology;
  topology.AddOperator("extract-delay", kGroupsPerOp, 1 << 16);
  topology.AddOperator("sum-delay-by-plane", kGroupsPerOp, 1 << 16);
  if (!topology.AddStream(0, 1, engine::PartitioningPattern::kOneToOne)
           .ok()) {
    return 1;
  }
  engine::Cluster cluster(kNodes);

  // Adversarial start: every extract group on a different node than its sum
  // partner, so zero collocation.
  engine::Assignment assignment(2 * kGroupsPerOp);
  for (int i = 0; i < kGroupsPerOp; ++i) {
    assignment.set_node(i, i % kNodes);
    assignment.set_node(kGroupsPerOp + i, (i + kNodes / 2) % kNodes);
  }

  ops::DelayExtractOperator extract(kGroupsPerOp);
  ops::SumByKeyOperator sum(kGroupsPerOp, ops::GroupField::kKey,
                            /*emit_updates=*/false);
  engine::LocalEngineOptions eopts;
  eopts.serde_cost = 1.0;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topology, &cluster, assignment,
                             {&extract, &sum}, eopts);

  workload::AirlineFlightStream flights(/*planes=*/500, /*airports=*/30,
                                        /*seed=*/2026);

  core::AlbicOptions aopts;
  aopts.milp.time_budget_ms = 10;
  core::Albic albic(aopts);
  engine::MigrationCostModel mig_model;

  TablePrinter table({"period", "collocated-pairs", "total-work",
                      "serde-share(%)", "migrations"});

  for (int period = 0; period < kPeriods; ++period) {
    for (int i = 0; i < kTuplesPerPeriod; ++i) {
      (void)engine.Inject(0, flights.Next());
    }
    engine::EnginePeriodStats stats = engine.HarvestPeriod();
    const double total_work = std::accumulate(stats.node_work.begin(),
                                              stats.node_work.end(), 0.0);
    double proc_work = 0.0;
    for (double w : stats.group_work) proc_work += w;

    // Controller view, normalized to percent-of-node scale.
    const double scale = total_work > 0 ? kNodes * 50.0 / total_work : 1.0;
    engine::SystemSnapshot snap;
    snap.topology = &topology;
    snap.cluster = &cluster;
    snap.comm = &stats.comm;
    snap.assignment = engine.assignment();
    snap.group_loads = stats.group_work;
    for (double& l : snap.group_loads) l *= scale;
    snap.node_loads = stats.node_work;
    for (double& l : snap.node_loads) l *= scale;
    snap.migration_costs = engine::AllMigrationCosts(topology, mig_model);

    balance::RebalanceConstraints cons;
    cons.max_migrations = 3;
    int applied = 0;
    auto plan = albic.ComputePlan(snap, cons);
    if (plan.ok()) {
      for (const engine::Migration& m : plan->migrations) {
        if (engine.MigrateGroup(m.group, m.to).ok()) ++applied;
      }
    }

    int collocated = 0;
    for (int i = 0; i < kGroupsPerOp; ++i) {
      if (engine.assignment().node_of(i) ==
          engine.assignment().node_of(kGroupsPerOp + i)) {
        ++collocated;
      }
    }
    table.AddRow({FormatDouble(period, 0), FormatDouble(collocated, 0),
                  FormatDouble(total_work, 0),
                  FormatDouble(100.0 * (total_work - proc_work) /
                                   std::max(total_work, 1.0),
                               1),
                  FormatDouble(applied, 0)});
  }
  table.Print();

  // Show the job output: the five most delayed planes.
  std::printf("\nmost delayed planes (total minutes):\n");
  std::vector<std::pair<double, uint64_t>> totals;
  for (int g = 0; g < kGroupsPerOp; ++g) {
    for (uint64_t plane = 0; plane < 500; ++plane) {
      if (engine::LocalEngine::RouteKey(plane, kGroupsPerOp) != g) continue;
      const double sum_delay = sum.SumFor(g, plane);
      if (sum_delay > 0) totals.push_back({sum_delay, plane});
    }
  }
  std::sort(totals.rbegin(), totals.rend());
  for (size_t i = 0; i < 5 && i < totals.size(); ++i) {
    std::printf("  plane %4llu: %.0f min\n",
                static_cast<unsigned long long>(totals[i].second),
                totals[i].first);
  }
  return 0;
}
