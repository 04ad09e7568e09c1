// Engine-throughput microbench: the Real Job 1 wiki top-k pipeline
// (GeoHash -> per-cell windowed TopK -> global TopK) driven through the
// batched engine, through the sharded source ingestion path, and with
// checkpointing enabled (steady-state checkpoint overhead at the default
// interval) or observability on. Verifies that all configurations process
// the same number of tuples (the 1-shard sharded run must be bit-identical
// to the InjectBatch run) and reports tuples/second plus each
// configuration's ratio to the plain batched run. The sharded runs take
// their queue capacity and chunk size from ALBIC_BENCH_SHARD_QUEUE /
// ALBIC_BENCH_SHARD_CHUNK.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "engine/sharded_source.h"
#include "engine/source.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

constexpr int kNodes = 6;
constexpr int kGroups = 18;

struct RunResult {
  double tuples_per_sec = 0.0;
  int64_t tuples_processed = 0;
  int64_t blocked_pushes = 0;  ///< Backpressure stalls (sharded runs only).
  int64_t checkpoints = 0;     ///< Snapshots written (checkpointed runs).
  int64_t checkpoint_bytes = 0;
  double checkpoint_wall_us = 0.0;
};

/// The wiki top-k pipeline the bench drives; one instance per run.
struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 1024};
  ops::WindowedTopKOperator topk{kGroups, 32};
  ops::WindowedTopKOperator global{kGroups, 32, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;
  bool ok = false;

  explicit Pipeline(const engine::LocalEngineOptions& opts) {
    topo.AddOperator("geohash", kGroups, 1 << 16);
    topo.AddOperator("topk-1min", kGroups, 1 << 18);
    topo.AddOperator("global-topk", kGroups, 1 << 16);
    if (!topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
             .ok() ||
        !topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
             .ok()) {
      return;
    }
    engine::Assignment assign(topo.num_key_groups());
    for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kNodes);
    }
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
    ok = true;
  }
};

RunResult RunOne(const engine::LocalEngineOptions& opts,
                 const std::vector<engine::Tuple>& stream,
                 int64_t checkpoint_interval_us = 0) {
  Pipeline p(opts);
  if (!p.ok) return {};

  // Checkpointed mode: attach the coordinator before the timed section
  // (the initial full snapshot is setup, not steady state).
  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  if (checkpoint_interval_us > 0) {
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = checkpoint_interval_us;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&store, copts);
    if (!p.engine->EnableCheckpointing(coordinator.get()).ok()) return {};
  }

  // The stream is pre-generated so the timed section measures the engine,
  // not the Zipf sampler (which otherwise dominates the loop), and ingested
  // in one chunk, as a chunked source would hand it over.
  const auto start = std::chrono::steady_clock::now();
  (void)p.engine->InjectBatch(0, stream.data(), stream.size());
  p.engine->Flush();
  const auto stop = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();

  RunResult result;
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  result.tuples_processed = stats.tuples_processed;
  result.tuples_per_sec =
      secs > 0 ? static_cast<double>(stream.size()) / secs : 0.0;
  if (coordinator != nullptr) {
    result.checkpoints = coordinator->stats().snapshots;
    result.checkpoint_bytes = coordinator->stats().snapshot_bytes;
    result.checkpoint_wall_us = coordinator->stats().round_wall_us;
  }
  return result;
}

/// Sharded-ingestion run: the stream is split round-robin into num_shards
/// VectorSources (each shard's timestamps stay monotone) and driven through
/// the ShardedSourceRunner. 1 shard is the inline pass-through and must be
/// bit-identical to the InjectBatch run above.
RunResult RunSharded(const engine::LocalEngineOptions& opts,
                     const std::vector<engine::Tuple>& stream, int num_shards,
                     const engine::ShardedSourceOptions& sopts) {
  Pipeline p(opts);
  if (!p.ok) return {};

  std::vector<std::vector<engine::Tuple>> shard_streams(
      static_cast<size_t>(num_shards));
  for (auto& ss : shard_streams) {
    ss.reserve(stream.size() / static_cast<size_t>(num_shards) + 1);
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    shard_streams[i % static_cast<size_t>(num_shards)].push_back(stream[i]);
  }
  std::vector<engine::VectorSource> sources;
  sources.reserve(static_cast<size_t>(num_shards));
  std::vector<engine::Source*> shards;
  for (auto& ss : shard_streams) {
    sources.emplace_back(ss.data(), ss.size());
    shards.push_back(&sources.back());
  }

  engine::EngineShardSink sink(p.engine.get());
  engine::ShardedSourceRunner runner(sopts);

  const auto start = std::chrono::steady_clock::now();
  const auto report = runner.Run(shards, 0, kGroups, &sink);
  p.engine->Flush();
  const auto stop = std::chrono::steady_clock::now();
  if (!report.ok()) {
    std::fprintf(stderr, "sharded run failed: %s\n",
                 report.status().ToString().c_str());
    return {};
  }
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(stop - start)
          .count();

  RunResult result;
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  result.tuples_processed = stats.tuples_processed;
  result.tuples_per_sec =
      secs > 0 ? static_cast<double>(stream.size()) / secs : 0.0;
  for (const engine::ShardIngestStats& s : report->shards) {
    result.blocked_pushes += s.blocked_pushes;
  }
  return result;
}

std::vector<engine::Tuple> MakeStream(int tuples, int articles) {
  workload::WikipediaEditStream edits(articles, /*seed=*/7,
                                      /*rate_per_second=*/2000.0);
  std::vector<engine::Tuple> stream;
  stream.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) stream.push_back(edits.Next());
  return stream;
}

}  // namespace
}  // namespace albic

int main() {
  using albic::bench::BenchJson;
  using albic::bench::EnvInt;
  const int tuples = std::max(1, EnvInt("ALBIC_BENCH_TUPLES", 1500000));
  const int batch = EnvInt("ALBIC_BENCH_BATCH", 8192);
  const int shards = std::max(2, EnvInt("ALBIC_BENCH_SHARDS", 4));
  // Distinct articles in the stream; matches examples/wiki_topk_job.cpp.
  const int articles = EnvInt("ALBIC_BENCH_ARTICLES", 20000);
  // Sharded-ingestion tuning knobs (ShardedSourceOptions), so the queue
  // capacity / chunk size trade-off is explorable without a rebuild.
  albic::engine::ShardedSourceOptions sopts;
  sopts.chunk_tuples = EnvInt("ALBIC_BENCH_SHARD_CHUNK", sopts.chunk_tuples);
  sopts.queue_capacity =
      EnvInt("ALBIC_BENCH_SHARD_QUEUE", sopts.queue_capacity);
  // Checkpoint interval (event-time seconds) for the checkpointed mode.
  const int ckpt_secs = EnvInt("ALBIC_BENCH_CKPT_SECS", 60);

  const int reps = EnvInt("ALBIC_BENCH_REPS", 5);
  const int sample_every = std::max(1, EnvInt("ALBIC_BENCH_SAMPLE_EVERY", 32));
  // Self-describing snapshot: record the effective shard/telemetry knobs.
  albic::bench::BenchMetaCommon(sopts.queue_capacity, sopts.chunk_tuples,
                                sample_every);
  albic::bench::BenchMetaInt("shards", shards);
  std::printf(
      "Engine throughput: wiki top-k pipeline, %d tuples, %d articles, "
      "best of %d runs\n\n",
      tuples, articles, reps);
  const std::vector<albic::engine::Tuple> stream =
      albic::MakeStream(tuples, articles);

  // Each mode runs `reps` times; the best run counts (standard microbench
  // practice to shed scheduler noise on shared machines).
  auto best_of = [&](auto run_fn) {
    albic::RunResult best;
    for (int r = 0; r < reps; ++r) {
      albic::RunResult result = run_fn();
      if (result.tuples_per_sec > best.tuples_per_sec) best = result;
    }
    return best;
  };

  albic::engine::LocalEngineOptions batched1;
  if (batch > 0) batched1.max_batch_tuples = batch;
  albic::RunResult r_batched1 =
      best_of([&] { return albic::RunOne(batched1, stream); });

  // Sharded ingestion over the same batched engine, so the delta against
  // r_batched1 isolates the ingestion path.
  albic::RunResult r_sharded1 =
      best_of([&] { return albic::RunSharded(batched1, stream, 1, sopts); });
  albic::RunResult r_shardedN = best_of(
      [&] { return albic::RunSharded(batched1, stream, shards, sopts); });

  // Batched run with checkpointing at the default interval: the delta
  // against r_batched1 is the steady-state checkpoint overhead (replay
  // logging on every delivery + periodic incremental snapshots).
  albic::RunResult r_ckpt = best_of([&] {
    return albic::RunOne(batched1, stream, 1000LL * 1000 * ckpt_secs);
  });

  // Batched run with latency telemetry: sampled ingestion stamps, queueing
  // delay, per-operator service time and sink end-to-end histograms. The
  // delta against r_batched1 is the full measurement cost (budget: ~2%).
  albic::engine::LocalEngineOptions telemetry = batched1;
  telemetry.latency_sample_every = sample_every;
  albic::RunResult r_telemetry =
      best_of([&] { return albic::RunOne(telemetry, stream); });

  // Batched run with the full observability layer on: registry publishing,
  // latency telemetry at the same sampling rate, and the event tracer
  // recording every wave and batch span. The delta against r_batched1 is
  // the fully-enabled observability cost (budget: <= 2%).
  albic::engine::LocalEngineOptions observed = telemetry;
  albic::MetricsRegistry obs_registry;
  observed.metrics = &obs_registry;
  albic::RunResult r_observed = best_of([&] {
    albic::Tracer::Global().Clear();
    albic::Tracer::Global().Enable();
    albic::RunResult result = albic::RunOne(observed, stream);
    albic::Tracer::Global().Disable();
    return result;
  });
  albic::Tracer::Global().Clear();

  // Batched run with causal attribution on top of telemetry: wave-phase
  // profiling (one clock read per phase switch, per-group service
  // attribution) plus sampled per-tuple journeys. The delta against
  // r_batched1 is the attribution cost (budget: <= 2%).
  albic::engine::LocalEngineOptions attributed = telemetry;
  attributed.profile_wave_phases = true;
  attributed.journey_sample_every =
      std::max(1, EnvInt("ALBIC_BENCH_JOURNEY_EVERY", 4096));
  albic::RunResult r_attributed =
      best_of([&] { return albic::RunOne(attributed, stream); });

  albic::TablePrinter table({"mode", "tuples/s", "vs batched"});
  const double base = r_batched1.tuples_per_sec;
  table.AddRow({"batched", albic::FormatDouble(base, 0), "1.00"});
  char label[64];
  table.AddRow({"sharded (1 shard)",
                albic::FormatDouble(r_sharded1.tuples_per_sec, 0),
                albic::FormatDouble(r_sharded1.tuples_per_sec / base, 2)});
  std::snprintf(label, sizeof(label), "sharded (%d shards)", shards);
  table.AddRow({label, albic::FormatDouble(r_shardedN.tuples_per_sec, 0),
                albic::FormatDouble(r_shardedN.tuples_per_sec / base, 2)});
  std::snprintf(label, sizeof(label), "batched + checkpoints (%ds)",
                ckpt_secs);
  table.AddRow({label, albic::FormatDouble(r_ckpt.tuples_per_sec, 0),
                albic::FormatDouble(r_ckpt.tuples_per_sec / base, 2)});
  std::snprintf(label, sizeof(label), "batched + latency telemetry (1/%d)",
                telemetry.latency_sample_every);
  table.AddRow({label, albic::FormatDouble(r_telemetry.tuples_per_sec, 0),
                albic::FormatDouble(r_telemetry.tuples_per_sec / base, 2)});
  table.AddRow({"batched + full observability",
                albic::FormatDouble(r_observed.tuples_per_sec, 0),
                albic::FormatDouble(r_observed.tuples_per_sec / base, 2)});
  std::snprintf(label, sizeof(label),
                "batched + attribution (journeys 1/%d)",
                attributed.journey_sample_every);
  table.AddRow({label, albic::FormatDouble(r_attributed.tuples_per_sec, 0),
                albic::FormatDouble(r_attributed.tuples_per_sec / base, 2)});
  table.Print();

  const double telemetry_overhead_pct =
      r_batched1.tuples_per_sec > 0
          ? 100.0 *
                (1.0 - r_telemetry.tuples_per_sec / r_batched1.tuples_per_sec)
          : 0.0;
  std::printf("\nlatency telemetry: %.1f%% overhead vs batched\n",
              telemetry_overhead_pct);

  const double observability_overhead_pct =
      r_batched1.tuples_per_sec > 0
          ? 100.0 *
                (1.0 - r_observed.tuples_per_sec / r_batched1.tuples_per_sec)
          : 0.0;
  std::printf("full observability (registry + telemetry + tracer): %.1f%% "
              "overhead vs batched\n",
              observability_overhead_pct);

  const double attribution_overhead_pct =
      r_batched1.tuples_per_sec > 0
          ? 100.0 *
                (1.0 - r_attributed.tuples_per_sec / r_batched1.tuples_per_sec)
          : 0.0;
  std::printf("causal attribution (telemetry + wave phases + journeys): "
              "%.1f%% overhead vs batched\n",
              attribution_overhead_pct);

  const double ckpt_overhead_pct =
      r_batched1.tuples_per_sec > 0
          ? 100.0 * (1.0 - r_ckpt.tuples_per_sec / r_batched1.tuples_per_sec)
          : 0.0;
  // The raw delta above replays ~minutes of event time in milliseconds of
  // wall time, which amplifies the periodic (event-time-paced) snapshot
  // rounds by the same factor. Steady state — where one round happens per
  // real interval and amortizes to ~0 — is the per-delivery logging cost:
  // subtract the measured round wall time from the checkpointed run.
  const double base_secs =
      static_cast<double>(stream.size()) / r_batched1.tuples_per_sec;
  const double ckpt_secs_total =
      static_cast<double>(stream.size()) / r_ckpt.tuples_per_sec;
  const double steady_secs = ckpt_secs_total - r_ckpt.checkpoint_wall_us / 1e6;
  const double ckpt_steady_overhead_pct =
      base_secs > 0 ? 100.0 * (steady_secs / base_secs - 1.0) : 0.0;
  std::printf("\ncheckpointing: %lld snapshots, %.1f MiB written, "
              "%.1f ms in rounds; %.1f%% raw overhead on this "
              "time-compressed trace, %.1f%% steady-state (logging) "
              "overhead vs batched\n",
              static_cast<long long>(r_ckpt.checkpoints),
              static_cast<double>(r_ckpt.checkpoint_bytes) / (1 << 20),
              r_ckpt.checkpoint_wall_us / 1000.0, ckpt_overhead_pct,
              ckpt_steady_overhead_pct);

  const int64_t processed = r_batched1.tuples_processed;
  if (processed != r_ckpt.tuples_processed ||
      processed != r_telemetry.tuples_processed ||
      processed != r_observed.tuples_processed ||
      processed != r_attributed.tuples_processed ||
      processed != r_shardedN.tuples_processed) {
    std::fprintf(stderr, "FAIL: modes processed different tuple counts\n");
    return 1;
  }
  // The 1-shard sharded path must reproduce the batched InjectBatch run
  // exactly (the bit-identity contract of ShardedSourceRunner).
  if (r_sharded1.tuples_processed != r_batched1.tuples_processed) {
    std::fprintf(stderr,
                 "FAIL: 1-shard sharded ingestion diverged from InjectBatch "
                 "(%lld vs %lld tuples)\n",
                 static_cast<long long>(r_sharded1.tuples_processed),
                 static_cast<long long>(r_batched1.tuples_processed));
    return 1;
  }
  std::printf("\nall modes processed %lld tuples (incl. downstream hops); "
              "%d-shard run saw %lld backpressure stalls\n",
              static_cast<long long>(processed), shards,
              static_cast<long long>(r_shardedN.blocked_pushes));

  BenchJson("engine_throughput", "batched_1worker", r_batched1.tuples_per_sec,
            "tuples/s");
  BenchJson("engine_throughput", "sharded_1shard", r_sharded1.tuples_per_sec,
            "tuples/s");
  BenchJson("engine_throughput", "sharded_nshard", r_shardedN.tuples_per_sec,
            "tuples/s");
  BenchJson("engine_throughput", "batched_checkpointed",
            r_ckpt.tuples_per_sec, "tuples/s");
  BenchJson("engine_throughput", "checkpoint_overhead_pct",
            ckpt_overhead_pct, "%");
  BenchJson("engine_throughput", "checkpoint_steady_overhead_pct",
            ckpt_steady_overhead_pct, "%");
  BenchJson("engine_throughput", "batched_telemetry",
            r_telemetry.tuples_per_sec, "tuples/s");
  BenchJson("engine_throughput", "latency_telemetry_overhead_pct",
            telemetry_overhead_pct, "%");
  BenchJson("engine_throughput", "batched_observed",
            r_observed.tuples_per_sec, "tuples/s");
  BenchJson("engine_throughput", "observability_overhead_pct",
            observability_overhead_pct, "%");
  BenchJson("engine_throughput", "batched_attributed",
            r_attributed.tuples_per_sec, "tuples/s");
  BenchJson("engine_throughput", "attribution_overhead_pct",
            attribution_overhead_pct, "%");
  // Engine-level counters of the fully-observed run ride along in
  // BENCH_engine_throughput.json (collected by scripts/run_benches.sh).
  std::printf("BENCH_METRICS %s\n", obs_registry.JsonSnapshot().c_str());
  return 0;
}
