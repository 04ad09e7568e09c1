// Fault-tolerant Real Job 1: the wiki top-k pipeline on the batched runtime
// with the full checkpoint subsystem — a file-backed CheckpointStore,
// periodic incremental checkpoints, indirect migrations, and failure
// recovery. Wikipedia edits stream in through sharded sources; halfway
// through, one node is killed abruptly. The controller recovers eagerly —
// KillNode itself runs the recovery round, re-planning the assignment over
// the surviving nodes, restoring every lost key group from its latest
// checkpoint + replay-log suffix, and draining the tuples that buffered
// during the outage — so the job's final top-k answer is exactly what a
// failure-free run produces.
//
//   fault_tolerant_job [num_shards] [kill_node]
//                      [--metrics-dump=M.json] [--trace=T.json]
//                      [--journal=J.jsonl]
//
// num_shards defaults to 1; kill_node defaults to 2 (pass -1 to disable the
// failure injection and compare outputs). The observability flags
// (examples/observability_flags.h) dump the final metrics snapshot, a
// Chrome trace (checkpoint rounds, the recovery window and the replayed
// suffix all appear as spans) and the controller's decision journal;
// printed output is identical with or without them.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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

/// ShardSink wrapper that kills a node once, mid-stream, from the
/// coordinator (driving) thread — the moment the job has ingested half its
/// input, as a real outage would interrupt a running pipeline.
class KillMidStreamSink final : public engine::ShardSink {
 public:
  KillMidStreamSink(core::ControllerLoop* loop, engine::NodeId kill_node,
                    int64_t kill_after_tuples)
      : loop_(loop), kill_node_(kill_node), remaining_(kill_after_tuples) {}

  Status IngestChunk(engine::OperatorId source_op,
                     const engine::Tuple* tuples, size_t count) override {
    ALBIC_RETURN_NOT_OK(loop_->IngestBatch(source_op, tuples, count));
    return MaybeKill(count);
  }
  Status IngestRouted(engine::OperatorId source_op, int shard, int group,
                      const engine::Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns) override {
    ALBIC_RETURN_NOT_OK(loop_->IngestRouted(source_op, shard, group, tuples,
                                            count, ingest_wall_ns));
    return MaybeKill(count);
  }

  bool killed() const { return killed_; }

 private:
  Status MaybeKill(size_t count) {
    if (kill_node_ < 0 || killed_) return Status::OK();
    remaining_ -= static_cast<int64_t>(count);
    if (remaining_ > 0) return Status::OK();
    killed_ = true;
    std::printf("!! killing node %d mid-stream\n", kill_node_);
    return loop_->KillNode(kill_node_);
  }

  core::ControllerLoop* loop_;
  engine::NodeId kill_node_;
  int64_t remaining_;
  bool killed_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  examples::ObservabilityFlags obs;
  int num_shards = 1;
  engine::NodeId kill_node = 2;
  int positionals = 0;
  for (int i = 1; i < argc; ++i) {
    if (examples::ParseObservabilityFlag(argv[i], &obs)) continue;
    switch (++positionals) {
      case 1:
        num_shards = std::max(1, std::atoi(argv[i]));
        break;
      case 2:
        kill_node = static_cast<engine::NodeId>(std::atoi(argv[i]));
        break;
      default:
        std::fprintf(stderr,
                     "usage: %s [num_shards] [kill_node] "
                     "[--metrics-dump=PATH] [--trace=PATH] "
                     "[--journal=PATH]\n",
                     argv[0]);
        return 2;
    }
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
  eopts.metrics = &registry;
  engine::LocalEngine engine(&topology, &cluster, assignment,
                             {&geohash, &topk, &global_topk}, eopts);

  // File-backed checkpoints: a restarted process could re-open this
  // directory and find every group's latest snapshot plus the manifest
  // with the sources' rewind offsets.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "albic_fault_tolerant_job")
          .string();
  std::filesystem::remove_all(ckpt_dir);
  auto store = engine::FileCheckpointStore::Open(ckpt_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open checkpoint store: %s\n",
                 store.status().ToString().c_str());
    return 1;
  }
  engine::CheckpointCoordinator coordinator(store->get());
  if (!engine.EnableCheckpointing(&coordinator).ok()) return 1;

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer milp(mopts);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  core::AdaptationFramework framework(&milp, /*policy=*/nullptr, aopts);
  engine::LoadModel load_model(engine::CostModel{});

  core::ControllerLoopOptions copts;
  copts.period_every_us = kPeriodUs;
  copts.node_capacity_work_units = 2.0 * kTuplesPerPeriod / kNodes / 0.5;
  copts.use_indirect_migration = true;  // pause O(log suffix), not O(state)
  copts.metrics = &registry;
  if (journal.is_open()) copts.journal = &journal;
  core::ControllerLoop controller(&engine, &framework, &load_model, &topology,
                                  &cluster, copts);

  // Sharded sources, as in wiki_topk_job: shard s replays an independent
  // Wikipedia partition at 1/num_shards of the rate.
  std::vector<std::unique_ptr<engine::SyntheticSource>> sources;
  std::vector<engine::Source*> shards;
  const double rate = kTuplesPerPeriod * 1e6 / kPeriodUs / num_shards;
  const int64_t total = static_cast<int64_t>(kPeriods) * kTuplesPerPeriod;
  for (int s = 0; s < num_shards; ++s) {
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
  KillMidStreamSink sink(&controller, kill_node, total / 2);
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

  TablePrinter table({"period", "offered", "mean-load(%)", "migrations",
                      "failed", "recovered", "replayed", "recovery(ms)"});
  int recovered_total = 0;
  for (const core::ControllerRound& r : controller.history()) {
    table.AddDoubleRow({static_cast<double>(r.period),
                        static_cast<double>(r.tuples_ingested), r.mean_load,
                        static_cast<double>(r.migrations_applied),
                        static_cast<double>(r.nodes_failed),
                        static_cast<double>(r.groups_recovered),
                        static_cast<double>(r.tuples_replayed),
                        r.recovery_wall_us / 1000.0},
                       1);
    recovered_total += r.groups_recovered;
  }
  table.Print();

  std::printf("\ncheckpoints: %lld rounds, %lld snapshots (%.1f KiB) in %s\n",
              static_cast<long long>(coordinator.stats().rounds),
              static_cast<long long>(coordinator.stats().snapshots),
              static_cast<double>(coordinator.stats().snapshot_bytes) / 1024.0,
              ckpt_dir.c_str());

  if (kill_node >= 0) {
    if (!sink.killed() || recovered_total == 0) {
      std::fprintf(stderr, "FAIL: the mid-stream kill never recovered\n");
      return 1;
    }
    std::printf("node %d failed and all %d lost groups were restored from "
                "checkpoint + replay; no tuple was lost\n",
                kill_node, recovered_total);
  }

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
