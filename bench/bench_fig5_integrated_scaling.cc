// Figure 5 (§5.1): integrating horizontal scaling with load balancing —
// now driven end-to-end through the engine and the online ControllerLoop
// instead of hand-fed load vectors. A real tuple stream reproduces the
// scenario (60-node cluster, 1200 key groups at ~50% mean load, 1 or 5
// overloaded nodes, 10 nodes marked for removal, maxMigrations = 20 per
// SPL); every period the controller harvests the engine's measured
// statistics and runs one adaptation round. The integrated MILP (which
// trades drain progress against urgent rebalancing inside one optimization)
// is compared with the non-integrated baseline (drain first, evenly, with
// the whole budget; balance only afterwards).
//
// Output (a): load distance after each period. Output (b): periods needed
// to finish scale-in.

#include <cstdio>
#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "balance/non_integrated.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/controller_loop.h"
#include "engine/local_engine.h"
#include "ops/aggregate.h"

namespace albic {
namespace {

constexpr int kNodes = 60;
constexpr int kGroups = 1200;
constexpr int kGroupsPerNode = kGroups / kNodes;
constexpr int64_t kPeriodUs = 1000000;
constexpr double kNodeCapacity = 400.0;  // work units / period at 100% load

struct SeriesResult {
  std::vector<double> distance;  // per period
  int periods_to_scale_in = 0;
};

/// One representative key per work group (RouteKey is hash-based, so the
/// driver scans keys until every group is covered).
std::vector<uint64_t> KeysPerGroup() {
  std::vector<uint64_t> keys(kGroups, 0);
  std::vector<bool> found(kGroups, false);
  int remaining = kGroups;
  for (uint64_t k = 1; remaining > 0; ++k) {
    const int g = engine::LocalEngine::RouteKey(k, kGroups);
    if (!found[g]) {
      found[g] = true;
      keys[g] = k;
      --remaining;
    }
  }
  return keys;
}

SeriesResult RunOne(bool integrated, int overloaded, int max_periods) {
  engine::Topology topology;
  engine::OperatorDef src;
  src.name = "src";
  src.num_key_groups = 1;
  src.state_bytes_per_group = 0;
  src.is_source = true;
  const engine::OperatorId src_op = topology.AddOperator(src);
  const engine::OperatorId work_op = topology.AddOperator("work", kGroups);
  if (!topology
           .AddStream(src_op, work_op,
                      engine::PartitioningPattern::kFullPartitioning)
           .ok()) {
    return {};
  }

  engine::Cluster cluster(kNodes);
  engine::Assignment assignment(topology.num_key_groups());
  assignment.set_node(0, 0);  // the source's single group
  const engine::KeyGroupId work0 = topology.first_group(work_op);
  for (int g = 0; g < kGroups; ++g) {
    assignment.set_node(work0 + g, g / kGroupsPerNode);
  }
  // Mark the last 10 nodes for removal.
  for (engine::NodeId n = 50; n < 60; ++n) {
    (void)cluster.MarkForRemoval(n);
  }

  ops::SumByKeyOperator work(kGroups, ops::GroupField::kKey,
                             /*emit_updates=*/false);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  eopts.serde_cost = 0.0;  // pure load balancing, as in the original figure
  engine::LocalEngine engine(&topology, &cluster, assignment,
                             {nullptr, &work}, eopts);

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 20;
  std::unique_ptr<balance::Rebalancer> rebalancer;
  if (integrated) {
    rebalancer = std::make_unique<balance::MilpRebalancer>(mopts);
  } else {
    rebalancer = std::make_unique<balance::NonIntegratedRebalancer>(
        std::make_unique<balance::MilpRebalancer>(mopts));
  }
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 20;
  core::AdaptationFramework framework(rebalancer.get(), /*policy=*/nullptr,
                                      aopts);
  engine::LoadModel load_model(engine::CostModel{});

  core::ControllerLoopOptions copts;
  // The driver injects exactly one period per chunk and paces the rounds
  // itself (one RunRoundNow per SPL, as in the figure); automatic
  // boundary rounds would double the per-period migration budget.
  copts.period_every_us = 0;
  copts.node_capacity_work_units = kNodeCapacity;
  copts.use_comm = false;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topology,
                                  &cluster, copts);

  const std::vector<uint64_t> keys = KeysPerGroup();
  // Per-group tuples per period: mean node load 50% over 20 groups/node,
  // doubled for groups living on overloaded nodes.
  const int base = static_cast<int>(kNodeCapacity * 0.5 / kGroupsPerNode);

  SeriesResult result;
  for (int period = 1; period <= max_periods; ++period) {
    std::vector<engine::Tuple> chunk;
    chunk.reserve(static_cast<size_t>(kGroups) * base * 2);
    for (int g = 0; g < kGroups; ++g) {
      // Overload follows the group's ORIGINAL placement, as in the figure:
      // the hot groups stay hot wherever they move.
      const bool hot = g / kGroupsPerNode < overloaded;
      const int n = hot ? 2 * base : base;
      for (int i = 0; i < n; ++i) {
        engine::Tuple t;
        t.key = keys[g];
        t.ts = static_cast<int64_t>(period - 1) * kPeriodUs;
        chunk.push_back(t);
      }
    }
    // Spread timestamps across the period so event time advances.
    for (size_t i = 0; i < chunk.size(); ++i) {
      chunk[i].ts += static_cast<int64_t>(i) * kPeriodUs /
                     static_cast<int64_t>(chunk.size());
    }
    if (!controller.IngestBatch(src_op, chunk.data(), chunk.size()).ok()) {
      break;
    }
    auto round = controller.RunRoundNow();
    if (!round.ok()) break;
    result.distance.push_back(round->load_distance);
    // The round's moves land during the next period; a marked node counts
    // as drained once the round has planned it empty.
    engine::Assignment planned = engine.assignment();
    for (const core::ControllerLoop::PendingMove& p :
         controller.pending_moves()) {
      planned.set_node(p.move.group, p.move.to);
    }
    int remaining = 0;
    for (engine::NodeId n = 50; n < 60; ++n) {
      remaining += planned.count_on(n);
    }
    if (remaining == 0 && result.periods_to_scale_in == 0) {
      result.periods_to_scale_in = period;
    }
  }
  if (result.periods_to_scale_in == 0) {
    result.periods_to_scale_in = -1;  // did not finish within max_periods
  }
  return result;
}

}  // namespace
}  // namespace albic

int main() {
  using albic::RunOne;
  const int max_periods = albic::bench::EnvInt("ALBIC_BENCH_PERIODS", 16);
  std::printf(
      "Figure 5: integrating horizontal scaling with load balancing\n"
      "(engine-driven through ControllerLoop)\n"
      "60 nodes, 1200 key groups, 10 nodes marked for removal, "
      "maxMigrations=20\n\n");

  albic::SeriesResult int5 = RunOne(true, 5, max_periods);
  albic::SeriesResult non5 = RunOne(false, 5, max_periods);
  albic::SeriesResult int1 = RunOne(true, 1, max_periods);
  albic::SeriesResult non1 = RunOne(false, 1, max_periods);

  std::printf("(a) Load distance (%%) per period\n");
  albic::TablePrinter table(
      {"period", "INT(5OL)", "NON-INT(5OL)", "INT(1OL)", "NON-INT(1OL)"});
  for (int p = 0; p < max_periods; ++p) {
    auto at = [&](const albic::SeriesResult& r) {
      return p < static_cast<int>(r.distance.size()) ? r.distance[p] : 0.0;
    };
    table.AddDoubleRow({static_cast<double>(p + 1), at(int5), at(non5),
                        at(int1), at(non1)});
  }
  table.Print();

  std::printf("\n(b) Periods (SPL) to complete scale-in");
  std::printf(" (DNF = not within %d periods)\n", max_periods);
  auto fmt = [](int periods) {
    return periods < 0 ? std::string("DNF") : albic::FormatDouble(periods, 0);
  };
  albic::TablePrinter t2({"setup", "Integrated", "Non-Integrated"});
  t2.AddRow({"5OL", fmt(int5.periods_to_scale_in),
             fmt(non5.periods_to_scale_in)});
  t2.AddRow({"1OL", fmt(int1.periods_to_scale_in),
             fmt(non1.periods_to_scale_in)});
  t2.Print();

  // -1 = did not finish; recorded as-is so the trajectory files cannot
  // mistake a capped run for a genuine completion.
  albic::bench::BenchJson("fig5", "scale_in_periods_integrated_5ol",
                          int5.periods_to_scale_in, "periods");
  albic::bench::BenchJson("fig5", "scale_in_periods_nonintegrated_5ol",
                          non5.periods_to_scale_in, "periods");
  albic::bench::BenchJson("fig5", "scale_in_periods_integrated_1ol",
                          int1.periods_to_scale_in, "periods");
  albic::bench::BenchJson("fig5", "scale_in_periods_nonintegrated_1ol",
                          non1.periods_to_scale_in, "periods");
  return 0;
}
