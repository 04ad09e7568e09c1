// Figures 8 and 9 (§5.2.2): the effect of the migration limit on balance
// quality and overhead. Real Job 1 on Wikipedia, MILP balancer with
// unrestricted migrations vs limits of 10 and 13 key groups per SPL.
//
// Fig 8: load distance per period. Fig 9: cumulative migration latency
// (minutes of summed per-group pause time) per period.

#include <cstdio>

#include "balance/milp_rebalancer.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/experiment_driver.h"
#include "workload/wikipedia.h"

namespace albic {
namespace {

engine::StatsCollector RunWithLimit(int max_migrations, int periods) {
  workload::WikipediaOptions wopts;
  wopts.nodes = 20;
  wopts.groups_per_op = 100;
  wopts.total_load = 20 * 50.0;
  wopts.seed = 909;
  workload::WikipediaWorkload wl(wopts);
  engine::Cluster cluster = wl.MakeCluster();
  engine::Assignment assign = wl.MakeInitialAssignment();
  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 15;
  balance::MilpRebalancer milp(mopts);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = max_migrations;  // -1 = no limit
  core::AdaptationFramework fw(&milp, nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});
  core::DriverOptions dopts;
  dopts.periods = periods;
  core::ExperimentDriver driver(&wl.topology(), &cluster, &assign, &wl, &fw,
                                &load_model, dopts);
  auto stats = driver.Run();
  return stats.ok() ? *stats : engine::StatsCollector();
}

}  // namespace
}  // namespace albic

int main() {
  const int periods = albic::bench::EnvInt("ALBIC_BENCH_PERIODS", 60);
  std::printf(
      "Figures 8 & 9: unrestricted vs bounded load balancing (Real Job 1, "
      "20 nodes)\n\n");

  albic::engine::StatsCollector unrestricted =
      albic::RunWithLimit(-1, periods);
  albic::engine::StatsCollector limit10 = albic::RunWithLimit(10, periods);
  albic::engine::StatsCollector limit13 = albic::RunWithLimit(13, periods);

  std::printf("Figure 8: load distance (%%) per period\n");
  albic::TablePrinter t8({"period", "NoLimit", "10kg", "13kg"});
  for (int p = 0; p < periods; ++p) {
    t8.AddDoubleRow({static_cast<double>(p),
                     unrestricted.series()[p].load_distance,
                     limit10.series()[p].load_distance,
                     limit13.series()[p].load_distance});
  }
  t8.Print();

  std::printf("\nFigure 9: cumulative migration latency (minutes)\n");
  albic::TablePrinter t9({"period", "NoLimit", "10kg", "13kg"});
  for (int p = 0; p < periods; ++p) {
    t9.AddDoubleRow({static_cast<double>(p),
                     unrestricted.CumulativePauseSeconds(p) / 60.0,
                     limit10.CumulativePauseSeconds(p) / 60.0,
                     limit13.CumulativePauseSeconds(p) / 60.0});
  }
  t9.Print();

  std::printf(
      "\nmean distance: NoLimit %.2f  10kg %.2f  13kg %.2f\n"
      "total migrations: NoLimit %d  10kg %d  13kg %d\n",
      unrestricted.MeanLoadDistance(), limit10.MeanLoadDistance(),
      limit13.MeanLoadDistance(),
      unrestricted.CumulativeMigrations(periods - 1),
      limit10.CumulativeMigrations(periods - 1),
      limit13.CumulativeMigrations(periods - 1));
  return 0;
}
