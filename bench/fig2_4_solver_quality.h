#pragma once

// Shared implementation of the Figs 2-4 solver-quality experiment (§5.1):
// load distance achieved by Flux vs the MILP at increasing solver budgets,
// sweeping the `varies` perturbation and the migration limit.
//
// Substitution note (BENCHMARKS.md, "Figs 2–4: solver caps"): the paper
// gives CPLEX 5-60 *seconds* on a desktop; our local search gets a 5-60
// *millisecond* cap, which exercises the same quality-vs-budget tradeoff at
// in-memory instance sizes.
// Like CPLEX under a time limit, the search returns as soon as it converges
// (a whole perturbation sweep finds nothing better), so a row's MILP columns
// stop improving once the search converges inside the smaller cap.

#include <cstdio>
#include <vector>

#include "balance/flux_rebalancer.h"
#include "balance/milp_rebalancer.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"

namespace albic::bench {

struct SolverQualityConfig {
  const char* figure;
  int nodes;
  int key_groups;
  int operators;
};

inline void RunSolverQuality(const SolverQualityConfig& cfg) {
  const int repeats = EnvInt("ALBIC_BENCH_REPEATS", 3);
  const std::vector<double> budgets_ms = {5, 10, 30, 60};
  const std::vector<int> max_migrations = {10, 20, 30, 40};

  std::printf(
      "%s: %d nodes, %d key groups, %d operators — load distance (%%)\n"
      "Flux vs MILP at solver budgets of 5/10/30/60 ms (paper: seconds; see "
      "BENCHMARKS.md)\n\n",
      cfg.figure, cfg.nodes, cfg.key_groups, cfg.operators);

  for (int mm : max_migrations) {
    std::printf("MaxMigrations = %d\n", mm);
    TablePrinter table(
        {"varies", "Flux", "MILP-5", "MILP-10", "MILP-30", "MILP-60"});
    for (int varies = 0; varies <= 100; varies += 10) {
      double flux_sum = 0.0;
      std::vector<double> milp_sum(budgets_ms.size(), 0.0);
      for (int rep = 0; rep < repeats; ++rep) {
        workload::SyntheticOptions wopts;
        wopts.nodes = cfg.nodes;
        wopts.key_groups = cfg.key_groups;
        wopts.operators = cfg.operators;
        wopts.varies = varies;
        wopts.seed = 1000 + static_cast<uint64_t>(varies) * 17 + rep;
        workload::SyntheticScenario s =
            workload::BuildSyntheticScenario(wopts);
        engine::SystemSnapshot snap = SnapshotFrom(s);
        balance::RebalanceConstraints cons;
        cons.max_migrations = mm;

        balance::FluxRebalancer flux;
        auto fp = flux.ComputePlan(snap, cons);
        flux_sum += fp.ok() ? DistanceOf(snap, fp->assignment) : -1.0;

        for (size_t b = 0; b < budgets_ms.size(); ++b) {
          balance::MilpRebalancerOptions mopts;
          mopts.time_budget_ms = budgets_ms[b];
          balance::MilpRebalancer milp(mopts);
          auto mp = milp.ComputePlan(snap, cons);
          milp_sum[b] += mp.ok() ? DistanceOf(snap, mp->assignment) : -1.0;
        }
      }
      table.AddDoubleRow({static_cast<double>(varies),
                          flux_sum / repeats, milp_sum[0] / repeats,
                          milp_sum[1] / repeats, milp_sum[2] / repeats,
                          milp_sum[3] / repeats});
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace albic::bench
