// Figures 6 and 7 (§5.2.1): load-balancing quality and overhead on Real Job
// 1 (Wikipedia: GeoHash -> 1-min TopK -> global TopK, 100 key groups each,
// 20 worker nodes), maxMigrations = 13 per SPL.
//
// Fig 6: load distance directly after applying migrations, per period, for
// the MILP, Flux and PoTC. Fig 7: number of state migrations per period for
// the MILP and Flux (PoTC does not migrate; it pays a continuous overhead).

#include <cstdio>
#include <memory>

#include "balance/flux_rebalancer.h"
#include "balance/milp_rebalancer.h"
#include "balance/potc.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "core/experiment_driver.h"
#include "workload/wikipedia.h"

namespace albic {
namespace {

engine::StatsCollector RunDriver(balance::Rebalancer* rebalancer,
                                 int periods) {
  workload::WikipediaOptions wopts;
  wopts.nodes = 20;
  wopts.groups_per_op = 100;
  wopts.total_load = 20 * 50.0;
  wopts.seed = 777;
  workload::WikipediaWorkload wl(wopts);
  engine::Cluster cluster = wl.MakeCluster();
  engine::Assignment assign = wl.MakeInitialAssignment();
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 13;
  core::AdaptationFramework fw(rebalancer, nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});
  core::DriverOptions dopts;
  dopts.periods = periods;
  core::ExperimentDriver driver(&wl.topology(), &cluster, &assign, &wl, &fw,
                                &load_model, dopts);
  auto stats = driver.Run();
  return stats.ok() ? *stats : engine::StatsCollector();
}

std::vector<double> RunPotc(int periods) {
  workload::WikipediaOptions wopts;
  wopts.nodes = 20;
  wopts.groups_per_op = 100;
  wopts.total_load = 20 * 50.0;
  wopts.seed = 777;
  workload::WikipediaWorkload wl(wopts);
  engine::Cluster cluster = wl.MakeCluster();
  balance::PotcModel potc;
  std::vector<double> distances;
  for (int p = 0; p < periods; ++p) {
    wl.AdvancePeriod(p);
    // Keys below key-group granularity, skewed like the article popularity.
    std::vector<balance::PotcKey> keys = balance::SplitGroupsIntoKeys(
        wl.group_proc_loads(), 8, 1.1, 777);
    std::vector<double> loads = potc.ComputeNodeLoads(keys, cluster, p);
    distances.push_back(engine::LoadDistance(loads, cluster));
  }
  return distances;
}

}  // namespace
}  // namespace albic

int main() {
  const int periods = albic::bench::EnvInt("ALBIC_BENCH_PERIODS", 60);
  std::printf(
      "Figures 6 & 7: Real Job 1 (Wikipedia), 20 nodes, 300 key groups, "
      "maxMigrations=13\n\n");

  albic::balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 15;
  albic::balance::MilpRebalancer milp(mopts);
  albic::balance::FluxRebalancer flux;

  albic::engine::StatsCollector milp_stats = albic::RunDriver(&milp, periods);
  albic::engine::StatsCollector flux_stats = albic::RunDriver(&flux, periods);
  std::vector<double> potc = albic::RunPotc(periods);

  std::printf("Figure 6: load distance (%%) per period\n");
  albic::TablePrinter t6({"period", "MILP", "Flux", "PoTC"});
  for (int p = 0; p < periods; ++p) {
    t6.AddDoubleRow({static_cast<double>(p),
                     milp_stats.series()[p].load_distance,
                     flux_stats.series()[p].load_distance, potc[p]});
  }
  t6.Print();

  // Means exclude the warm-up period 0 (the paper ignores the unstable
  // initialization phase, §5).
  double milp_avg = 0, flux_avg = 0, potc_avg = 0;
  for (int p = 1; p < periods; ++p) {
    milp_avg += milp_stats.series()[p].load_distance;
    flux_avg += flux_stats.series()[p].load_distance;
    potc_avg += potc[p];
  }
  milp_avg /= periods - 1;
  flux_avg /= periods - 1;
  potc_avg /= periods - 1;
  std::printf("\nmean load distance: MILP %.2f  Flux %.2f  PoTC %.2f\n\n",
              milp_avg, flux_avg, potc_avg);

  std::printf("Figure 7: #state migrations per period\n");
  albic::TablePrinter t7({"period", "MILP", "Flux"});
  for (int p = 0; p < periods; ++p) {
    t7.AddDoubleRow({static_cast<double>(p),
                     static_cast<double>(milp_stats.series()[p].migrations),
                     static_cast<double>(flux_stats.series()[p].migrations)},
                    0);
  }
  t7.Print();
  return 0;
}
