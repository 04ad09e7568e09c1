// Ablation of ALBIC's design knobs (the defaults §4.3.2 discusses):
//   sF      — the score factor gating which pairs count as collocatable;
//   maxPL   — the maximum partition load that triggers set splitting;
//   pairs/round — how many pairs step 3 pins per invocation (Algorithm 2
//                 uses exactly 1; the sweep shows the convergence tradeoff).
// Scenario: 20 nodes, 400 key groups, max collocation 50%, maxMigrations=20.

#include <cstdio>

#include "bench/albic_cola_common.h"
#include "common/table_printer.h"
#include "workload/synthetic_collocation.h"

namespace albic {
namespace {

bench::AlbicColaSeries RunWith(core::AlbicOptions aopts, int periods) {
  workload::SyntheticCollocationOptions wopts;
  wopts.nodes = 20;
  wopts.key_groups = 400;
  wopts.operators = 10;
  wopts.max_collocation_pct = 50.0;
  wopts.fluct_pct = 2.0;
  wopts.seed = 321;
  workload::SyntheticCollocationWorkload wl(wopts);
  core::Albic albic(aopts);
  return bench::RunAlbicColaDriver(
      &wl, wl.topology(), wl.MakeCluster(), wl.MakeInitialAssignment(),
      &albic, periods, /*max_migrations=*/20,
      wl.max_collocatable_fraction());
}

core::AlbicOptions Base() {
  core::AlbicOptions aopts;
  aopts.milp.time_budget_ms = 10;
  aopts.max_pairs_per_round = 4;
  return aopts;
}

int PeriodsToReach(const bench::AlbicColaSeries& s, double target) {
  for (size_t p = 0; p < s.collocation.size(); ++p) {
    if (s.collocation[p] >= target) return static_cast<int>(p);
  }
  return static_cast<int>(s.collocation.size());
}

}  // namespace
}  // namespace albic

int main() {
  using namespace albic;  // NOLINT
  const int periods = bench::EnvInt("ALBIC_BENCH_PERIODS", 35);
  std::printf(
      "ALBIC ablation: 20 nodes, 400 key groups, max collocation 50%%\n\n");

  {
    std::printf("(a) score factor sF (default 1.5)\n");
    TablePrinter t({"sF", "collocation(%)", "load-dist", "migr/SPL"});
    for (double sf : {1.0, 1.5, 2.0, 4.0}) {
      core::AlbicOptions a = Base();
      a.score_factor = sf;
      bench::AlbicColaSeries s = RunWith(a, periods);
      double migr = 0;
      for (int m : s.migrations) migr += m;
      t.AddDoubleRow({sf, s.FinalCollocation(), s.MeanDistance(),
                      migr / periods});
    }
    t.Print();
  }
  {
    std::printf("\n(b) max partition load maxPL (default 25)\n");
    TablePrinter t({"maxPL", "collocation(%)", "load-dist"});
    for (double pl : {5.0, 15.0, 25.0, 50.0}) {
      core::AlbicOptions a = Base();
      a.max_partition_load = pl;
      bench::AlbicColaSeries s = RunWith(a, periods);
      t.AddDoubleRow({pl, s.FinalCollocation(), s.MeanDistance()});
    }
    t.Print();
  }
  {
    std::printf(
        "\n(c) pairs pinned per round (Algorithm 2 default: 1): convergence "
        "to 80%% of obtainable\n");
    TablePrinter t(
        {"pairs/round", "periods-to-80%", "collocation(%)", "load-dist"});
    for (int k : {1, 2, 4, 8}) {
      core::AlbicOptions a = Base();
      a.max_pairs_per_round = k;
      bench::AlbicColaSeries s = RunWith(a, periods);
      t.AddDoubleRow({static_cast<double>(k),
                      static_cast<double>(PeriodsToReach(s, 80.0)),
                      s.FinalCollocation(), s.MeanDistance()});
    }
    t.Print();
  }
  return 0;
}
