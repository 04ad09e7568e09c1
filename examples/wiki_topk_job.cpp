// Real Job 1 end-to-end on the batched runtime: Wikipedia edits stream
// through GeoHash -> per-cell windowed TopK -> global TopK (1-minute
// windows), with the online ControllerLoop keeping the 6-node cluster
// balanced every period from the engine's measured statistics — no
// caller-supplied load vectors. The edits enter through the sharded source
// subsystem: each shard is an independent partition of the edit stream
// (own seed, its share of the rate), generated and routed off the engine
// thread and fed in through bounded staging queues. Run with a shard count
// argument (default 1, which is bit-identical to per-tuple ingestion):
//
//   wiki_topk_job [num_shards] [--metrics-dump=M.json] [--trace=T.json]
//                 [--journal=J.jsonl]
//
// The observability flags (examples/observability_flags.h) dump the final
// metrics-registry snapshot, a Chrome trace (the run ends with a
// three-mode migration showcase, so the trace shows the direct, indirect
// and lease signatures side by side) and the controller's decision
// journal. The controller itself runs with the lease opt-in, so every
// round-applied migration is a zero-cost lease flip (journal reason
// "lease-zero-cost"). Printed output is identical with or without the
// observability flags.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "common/table_printer.h"
#include "core/controller_loop.h"
#include "core/round_journal.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "engine/sharded_source.h"
#include "engine/source.h"
#include "examples/observability_flags.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

using namespace albic;  // NOLINT: example brevity

namespace {
constexpr int kNodes = 6;
constexpr int kGroups = 18;  // per operator
constexpr int kPeriods = 10;
constexpr int kTuplesPerPeriod = 6000;
constexpr int64_t kPeriodUs = 60LL * 1000 * 1000;  // SPL = window = 1 min
}  // namespace

int main(int argc, char** argv) {
  int num_shards = 1;
  examples::ObservabilityFlags obs;
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    if (examples::ParseObservabilityFlag(argv[i], &obs)) continue;
    if (++positionals > 1) {
      std::fprintf(stderr,
                   "usage: %s [num_shards] [--metrics-dump=PATH] "
                   "[--trace=PATH] [--journal=PATH]\n",
                   argv[0]);
      return 2;
    }
    // Reject non-numeric or out-of-range shard counts instead of silently
    // clamping what atoi made of them.
    char* end = nullptr;
    const long parsed = std::strtol(argv[i], &end, 10);
    if (end == argv[i] || *end != '\0' || parsed <= 0 || parsed > 1024) {
      std::fprintf(stderr,
                   "error: num_shards must be an integer in [1, 1024], "
                   "got \"%s\"\nusage: %s [num_shards]\n",
                   argv[i], argv[0]);
      return 2;
    }
    num_shards = static_cast<int>(parsed);
  }
  MetricsRegistry registry;
  core::RoundJournal journal;
  if (!obs.journal.empty() && !journal.Open(obs.journal).ok()) {
    std::fprintf(stderr, "cannot open journal: %s\n", obs.journal.c_str());
    return 1;
  }
  MetricsHttpServer metrics_server;  // serves only if --metrics-port given
  examples::StartObservability(obs, &registry, &metrics_server);
  engine::Topology topology;
  topology.AddOperator("geohash", kGroups, 1 << 16);
  topology.AddOperator("topk-1min", kGroups, 1 << 18);
  topology.AddOperator("global-topk", kGroups, 1 << 16);
  if (!topology
           .AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
           .ok() ||
      !topology
           .AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
           .ok()) {
    return 1;
  }
  engine::Cluster cluster(kNodes);
  engine::Assignment assignment(topology.num_key_groups());
  for (engine::KeyGroupId g = 0; g < topology.num_key_groups(); ++g) {
    assignment.set_node(g, g % kNodes);
  }

  ops::GeoHashOperator geohash(kGroups, 1024);
  ops::WindowedTopKOperator topk(kGroups, 5);
  ops::WindowedTopKOperator global_topk(kGroups, 5,
                                        ops::TopKCountMode::kSumNum);
  engine::LocalEngineOptions eopts;
  eopts.serde_cost = 0.3;
  eopts.window_every_us = kPeriodUs;
  // Latency telemetry: one sampled ingestion stamp per 32 tuples feeds the
  // per-period p50/p99 columns below, and the measured service times feed
  // the shares the planner balances on.
  eopts.latency_sample_every = 32;
  // Causal attribution: decompose wall time into wave phases (journaled as
  // each round's dominant_phase + top attributed operator costs) and trace
  // one sampled tuple journey per 4096 ingested tuples. Both observe and
  // never steer, so the printed output stays identical.
  eopts.profile_wave_phases = true;
  eopts.journey_sample_every = 4096;
  eopts.metrics = &registry;
  engine::LocalEngine engine(&topology, &cluster, assignment,
                             {&geohash, &topk, &global_topk}, eopts);

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer milp(mopts);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  core::AdaptationFramework framework(&milp, /*policy=*/nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});

  core::ControllerLoopOptions copts;
  copts.period_every_us = kPeriodUs;
  // ~2 work units per edit (two charged hops): size so the cluster sits
  // near 50% mean load at 6000 edits/minute.
  copts.node_capacity_work_units = 2.0 * kTuplesPerPeriod / kNodes / 0.5;
  copts.use_comm = true;
  // Zero-copy reconfiguration: round-applied moves flip leases (no
  // state serialized, no pause) — works without checkpointing, which this
  // job only attaches later for the migration showcase.
  copts.use_lease_migration = true;
  copts.metrics = &registry;
  if (journal.is_open()) copts.journal = &journal;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topology,
                                  &cluster, copts);

  // The edit stream as sharded Sources: shard s replays an independent
  // Wikipedia partition (seed 11 + s) at 1/num_shards of the rate, so the
  // union offers the same load. SyntheticSource recreates the generator on
  // Reset, which keeps each shard replayable.
  std::vector<std::unique_ptr<engine::SyntheticSource>> sources;
  std::vector<engine::Source*> shards;
  const double rate = kTuplesPerPeriod * 1e6 / kPeriodUs / num_shards;
  const int64_t total = static_cast<int64_t>(kPeriods) * kTuplesPerPeriod;
  for (int s = 0; s < num_shards; ++s) {
    // First (total % num_shards) shards carry one extra tuple, so the
    // union offers exactly `total` for every shard count.
    const int64_t quota = total / num_shards + (s < total % num_shards);
    sources.push_back(std::make_unique<engine::SyntheticSource>(
        [s, rate] {
          auto edits = std::make_shared<workload::WikipediaEditStream>(
              /*articles=*/20000, /*seed=*/11 + s, rate);
          return [edits] { return edits->Next(); };
        },
        quota));
    shards.push_back(sources.back().get());
  }
  core::ControllerShardSink sink(&controller);
  engine::ShardedSourceOptions sopts;
  sopts.metrics = &registry;
  engine::ShardedSourceRunner runner(sopts);
  const auto report = runner.Run(shards, 0, kGroups, &sink);
  if (!report.ok()) {
    std::fprintf(stderr, "ingestion failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!controller.RunRoundNow().ok()) return 1;

  // Migration-mode showcase: with the stream fully drained the engine is
  // quiescent, so moving a group is output-neutral (serialize -> restore is
  // bit-identical) — but each mode leaves its distinct pause signature in
  // the trace and bumps its engine_migrations_total{mode} counter. Direct
  // first (no checkpoint needed), then checkpointing is attached for the
  // indirect move, and a lease flip closes the set (its trace shows only
  // the finish span — nothing travels). Prints nothing: stdout stays
  // identical with observability off.
  {
    engine::MemoryCheckpointStore showcase_store;
    engine::CheckpointCoordinator showcase_coordinator(&showcase_store);
    const auto move = [&](engine::KeyGroupId g,
                          engine::MigrationMode mode) -> Status {
      const engine::NodeId from = engine.assignment().node_of(g);
      for (const engine::NodeId to : cluster.active_nodes()) {
        if (to != from) return engine.MigrateGroup(g, to, mode);
      }
      return Status::OK();  // single-node cluster: nothing to move
    };
    if (!move(0, engine::MigrationMode::kDirect).ok() ||
        !engine.EnableCheckpointing(&showcase_coordinator).ok() ||
        !showcase_coordinator.CheckpointNow(&engine).ok() ||
        !move(1, engine::MigrationMode::kIndirect).ok() ||
        !move(2, engine::MigrationMode::kLease).ok()) {
      std::fprintf(stderr, "migration showcase failed\n");
      return 1;
    }
    engine.HarvestPeriod();  // publish the showcase period into the registry
  }

  TablePrinter table({"period", "offered", "tuples", "mean-load(%)",
                      "load-distance(%)", "migrations", "pause(ms)",
                      "p50(us)", "p99(us)"});
  for (const core::ControllerRound& r : controller.history()) {
    table.AddDoubleRow({static_cast<double>(r.period),
                        static_cast<double>(r.tuples_ingested),
                        static_cast<double>(r.tuples_processed), r.mean_load,
                        r.load_distance,
                        static_cast<double>(r.migrations_applied),
                        r.migration_pause_us / 1000.0,
                        static_cast<double>(r.latency.e2e_p50_us),
                        static_cast<double>(r.latency.e2e_p99_us)},
                       1);
  }
  table.Print();

  std::printf("\ningestion shards:\n");
  for (size_t s = 0; s < report->shards.size(); ++s) {
    std::printf("  shard %zu: %lld tuples in %lld chunks, %lld "
                "backpressure stalls\n",
                s, static_cast<long long>(report->shards[s].tuples),
                static_cast<long long>(report->shards[s].chunks),
                static_cast<long long>(report->shards[s].blocked_pushes));
  }

  // The job's answer: hottest articles in the last closed window, merged
  // across the global TopK groups.
  std::printf("\nglobal top articles (last closed 1-minute window):\n");
  std::vector<std::pair<int64_t, uint64_t>> merged;
  for (int g = 0; g < kGroups; ++g) {
    for (const auto& [article, count] : global_topk.last_window_top(g)) {
      merged.push_back({count, article});
    }
  }
  std::sort(merged.rbegin(), merged.rend());
  for (size_t i = 0; i < 5 && i < merged.size(); ++i) {
    std::printf("  article %6llu: %lld edits\n",
                static_cast<unsigned long long>(merged[i].second),
                static_cast<long long>(merged[i].first));
  }
  return examples::FinishObservability(obs, &registry);
}
