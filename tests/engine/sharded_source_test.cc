// The sharded source subsystem's contracts: a 1-shard run reproduces
// InjectBatch ingestion and the depth-first reference cascade
// bit-identically (same EnginePeriodStats, same operator outputs) on the
// wiki pipeline; multi-shard runs lose no tuples and keep per-(shard,
// key-group) order, including across a migration started while shard
// batches are in flight; the bounded staging queues actually backpressure
// the producers; and per-shard offered load is folded into
// EnginePeriodStats.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "engine/local_engine.h"
#include "engine/sharded_source.h"
#include "engine/source.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "tests/engine/reference_cascade.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;

/// Per-article counts of the last closed window, merged over \p global's
/// groups: the pipeline's answer.
std::map<uint64_t, int64_t> GlobalCounts(
    const ops::WindowedTopKOperator& global) {
  std::map<uint64_t, int64_t> out;
  for (int g = 0; g < kGroups; ++g) {
    for (const auto& [article, count] : global.last_window_top(g)) {
      out[article] += count;
    }
  }
  return out;
}

struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  engine::Assignment initial;
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(engine::LocalEngineOptions opts) {
    topo.AddOperator("geohash", kGroups, 1 << 14);
    topo.AddOperator("topk", kGroups, 1 << 14);
    topo.AddOperator("global", kGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    initial = engine::Assignment(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      initial.set_node(g, g % kNodes);
    }
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, initial,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
  }

  std::map<uint64_t, int64_t> GlobalCounts() const {
    return albic::GlobalCounts(global);
  }
};

void ExpectStatsEqual(const engine::EnginePeriodStats& a,
                      const engine::EnginePeriodStats& b) {
  ASSERT_EQ(a.group_work.size(), b.group_work.size());
  for (size_t g = 0; g < a.group_work.size(); ++g) {
    EXPECT_EQ(a.group_work[g], b.group_work[g]) << "group " << g;
  }
  ASSERT_EQ(a.node_work.size(), b.node_work.size());
  for (size_t n = 0; n < a.node_work.size(); ++n) {
    EXPECT_EQ(a.node_work[n], b.node_work[n]) << "node " << n;
  }
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.tuples_buffered, b.tuples_buffered);
  EXPECT_EQ(a.migration_pause_us, b.migration_pause_us);
  EXPECT_EQ(a.shard_ingested, b.shard_ingested);
  ASSERT_EQ(a.comm.num_groups(), b.comm.num_groups());
  for (KeyGroupId from = 0; from < a.comm.num_groups(); ++from) {
    for (KeyGroupId to = 0; to < a.comm.num_groups(); ++to) {
      EXPECT_EQ(a.comm.Rate(from, to), b.comm.Rate(from, to))
          << "comm " << from << " -> " << to;
    }
  }
}

std::vector<Tuple> WikiStream(int tuples) {
  workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
  std::vector<Tuple> stream;
  stream.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) stream.push_back(edits.Next());
  return stream;
}

// --- the num_shards = 1 parity contract -----------------------------------

TEST(ShardedSourceTest, OneShardMatchesInjectBatchOnWikiPipeline) {
  constexpr int kTuples = 70000;  // > 2 one-minute windows at 400 tuples/s
  const std::vector<Tuple> stream = WikiStream(kTuples);

  engine::LocalEngineOptions opts;

  // Reference: the unsharded bulk-ingestion path, one InjectBatch call.
  Pipeline unsharded(opts);
  ASSERT_TRUE(
      unsharded.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  unsharded.engine->Flush();

  // Same stream through the sharded subsystem with a single shard.
  Pipeline sharded(opts);
  engine::VectorSource source(stream.data(), stream.size());
  engine::EngineShardSink sink(sharded.engine.get());
  engine::ShardedSourceRunner runner;
  const auto report = runner.Run({&source}, 0, kGroups, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_tuples, kTuples);
  ASSERT_EQ(report->shards.size(), 1u);
  EXPECT_EQ(report->shards[0].blocked_pushes, 0)
      << "the inline single-shard path never queues";
  sharded.engine->Flush();

  engine::EnginePeriodStats unsharded_stats =
      unsharded.engine->HarvestPeriod();
  engine::EnginePeriodStats sharded_stats = sharded.engine->HarvestPeriod();
  ExpectStatsEqual(unsharded_stats, sharded_stats);
  // Offered load: every source tuple counted, on shard 0, in both paths.
  ASSERT_EQ(sharded_stats.shard_ingested.size(), 1u);
  EXPECT_EQ(sharded_stats.shard_ingested[0], kTuples);

  // The job answer must be identical too.
  const std::map<uint64_t, int64_t> a = unsharded.GlobalCounts();
  const std::map<uint64_t, int64_t> b = sharded.GlobalCounts();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ShardedSourceTest, OneShardMatchesReferenceCascade) {
  // Transitivity check against the reference semantics: every tuple
  // cascaded depth-first through the DAG before the next one enters.
  constexpr int kTuples = 40000;
  const std::vector<Tuple> stream = WikiStream(kTuples);

  const engine::LocalEngineOptions opts;
  Pipeline sharded(opts);
  engine::VectorSource source(stream.data(), stream.size());
  engine::EngineShardSink sink(sharded.engine.get());
  engine::ShardedSourceRunner runner;
  ASSERT_TRUE(runner.Run({&source}, 0, kGroups, &sink).ok());
  sharded.engine->Flush();

  // The reference runs the same topology and initial assignment over its
  // own operator instances.
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  testing::ReferenceCascade reference(
      &sharded.topo, kNodes, sharded.initial, {&geohash, &topk, &global},
      opts.serde_cost, opts.window_every_us);
  for (const Tuple& t : stream) reference.Inject(0, t);

  ExpectStatsEqual(reference.Harvest(), sharded.engine->HarvestPeriod());
  const std::map<uint64_t, int64_t> expected = GlobalCounts(global);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(expected, sharded.GlobalCounts());
}

// --- multi-shard: ordering, backpressure, migration safety ----------------

/// Records arrival order per group; tuples encode (shard, sequence).
class RecordingOperator : public engine::StreamOperator {
 public:
  explicit RecordingOperator(int num_groups) : seen_(num_groups) {}

  void Process(const Tuple& tuple, int group_index,
               engine::Emitter* out) override {
    (void)out;
    seen_[group_index].push_back(tuple);
  }

  const std::vector<std::vector<Tuple>>& seen() const { return seen_; }

 private:
  std::vector<std::vector<Tuple>> seen_;
};

/// Delegates to the engine sink; triggers a migration mid-ingestion and
/// slows the first deliveries down so the bounded queues must backpressure.
class MigratingSlowSink : public engine::ShardSink {
 public:
  MigratingSlowSink(engine::LocalEngine* eng, KeyGroupId group,
                    engine::NodeId target)
      : inner_(eng), engine_(eng), group_(group), target_(target) {}

  Status IngestChunk(engine::OperatorId op, const Tuple* tuples,
                     size_t count) override {
    return inner_.IngestChunk(op, tuples, count);
  }

  Status IngestRouted(engine::OperatorId op, int shard, int group,
                      const Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns) override {
    ++calls_;
    if (calls_ <= 30) {
      // Slow consumer: the producers outrun the capacity-1 queues.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (calls_ == 5) {
      ALBIC_RETURN_NOT_OK(engine_->StartMigration(group_, target_));
    }
    Status st =
        inner_.IngestRouted(op, shard, group, tuples, count, ingest_wall_ns);
    if (st.ok() && calls_ == 40) {
      st = engine_->FinishMigration(group_).status();
    }
    return st;
  }

  int calls() const { return calls_; }

 private:
  engine::EngineShardSink inner_;
  engine::LocalEngine* engine_;
  KeyGroupId group_;
  engine::NodeId target_;
  int calls_ = 0;
};

TEST(ShardedSourceTest, MultiShardNoLossInOrderAcrossMidIngestionMigration) {
  constexpr int kShards = 2;
  constexpr int kPerShard = 6400;
  engine::Topology topo;
  topo.AddOperator("rec", 4, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  RecordingOperator rec(4);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  // Small drain threshold so the pipeline drains (and therefore delivers
  // into the migrating group, which must buffer) while the migration from
  // sink call 5 to sink call 40 is open.
  opts.max_batch_tuples = 256;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  // Shard s produces (shard s, seq i) with keys spreading over groups.
  std::vector<std::vector<Tuple>> shard_tuples(kShards);
  for (int s = 0; s < kShards; ++s) {
    for (int i = 0; i < kPerShard; ++i) {
      Tuple t;
      t.key = static_cast<uint64_t>(i * 1315423911u + s * 2654435761u);
      t.aux = static_cast<uint64_t>(s);
      t.num = i;
      shard_tuples[s].push_back(t);
    }
  }
  std::vector<engine::VectorSource> sources;
  sources.reserve(kShards);
  std::vector<engine::Source*> shards;
  for (int s = 0; s < kShards; ++s) {
    sources.emplace_back(shard_tuples[s].data(), shard_tuples[s].size());
    shards.push_back(&sources.back());
  }

  // Group 0 migrates from node 0 to node 1 while shard batches are in
  // flight; tuples delivered meanwhile must buffer, not drop.
  MigratingSlowSink sink(&eng, /*group=*/0, /*target=*/1);
  engine::ShardedSourceOptions sopts;
  sopts.chunk_tuples = 64;
  sopts.queue_capacity = 1;
  engine::ShardedSourceRunner runner(sopts);
  const auto report = runner.Run(shards, 0, topo.op(0).num_key_groups, &sink);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  eng.Flush();

  EXPECT_EQ(report->total_tuples, kShards * kPerShard);
  int64_t stalls = 0;
  for (const auto& s : report->shards) stalls += s.blocked_pushes;
  EXPECT_GT(stalls, 0) << "capacity-1 queues against a slowed consumer must "
                          "have backpressured";

  // No loss: every produced tuple was processed exactly once.
  engine::EnginePeriodStats stats = eng.HarvestPeriod();
  EXPECT_EQ(stats.tuples_processed, kShards * kPerShard);
  EXPECT_GT(stats.tuples_buffered, 0) << "the migration must have buffered "
                                         "in-flight tuples";
  ASSERT_EQ(stats.shard_ingested.size(), static_cast<size_t>(kShards));
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(stats.shard_ingested[s], kPerShard) << "shard " << s;
  }
  EXPECT_EQ(eng.assignment().node_of(0), 1) << "migration must have landed";

  // Per-(shard, group) FIFO: within every group, each shard's sequence
  // numbers arrive in increasing order, and nothing is duplicated.
  int64_t recorded = 0;
  for (const std::vector<Tuple>& group : rec.seen()) {
    std::vector<double> last(kShards, -1.0);
    for (const Tuple& t : group) {
      const int s = static_cast<int>(t.aux);
      EXPECT_LT(last[s], t.num) << "shard " << s << " reordered";
      last[s] = t.num;
      ++recorded;
    }
  }
  EXPECT_EQ(recorded, kShards * kPerShard);
}

TEST(ShardedSourceTest, SinkErrorAbortsRunAndUnblocksProducers) {
  class FailingSink : public engine::ShardSink {
   public:
    Status IngestChunk(engine::OperatorId, const Tuple*, size_t) override {
      return Status::Internal("sink down");
    }
    Status IngestRouted(engine::OperatorId, int, int, const Tuple*, size_t,
                        int64_t) override {
      return Status::Internal("sink down");
    }
  };

  std::vector<Tuple> tuples(10000);
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].key = static_cast<uint64_t>(i);
  }
  std::vector<engine::VectorSource> sources;
  sources.reserve(3);
  std::vector<engine::Source*> shards;
  for (int s = 0; s < 3; ++s) {
    sources.emplace_back(tuples.data(), tuples.size());
    shards.push_back(&sources.back());
  }
  FailingSink sink;
  engine::ShardedSourceOptions sopts;
  sopts.chunk_tuples = 32;
  sopts.queue_capacity = 1;
  engine::ShardedSourceRunner runner(sopts);
  // Must return the sink's error and terminate (producers unblocked via
  // queue Close) instead of deadlocking on the full queues.
  const auto report = runner.Run(shards, 0, 4, &sink);
  EXPECT_FALSE(report.ok());
}

TEST(ShardedSourceTest, RunValidatesArguments) {
  engine::ShardedSourceRunner runner;
  engine::VectorSource source(nullptr, 0);
  class NullSink : public engine::ShardSink {
   public:
    Status IngestChunk(engine::OperatorId, const Tuple*, size_t) override {
      return Status::OK();
    }
    Status IngestRouted(engine::OperatorId, int, int, const Tuple*, size_t,
                        int64_t) override {
      return Status::OK();
    }
  };
  NullSink sink;
  EXPECT_FALSE(runner.Run({}, 0, 4, &sink).ok());
  EXPECT_FALSE(runner.Run({&source}, 0, 0, &sink).ok());
  EXPECT_FALSE(runner.Run({&source}, 0, 4, nullptr).ok());
  EXPECT_FALSE(runner.Run({&source, nullptr}, 0, 4, &sink).ok());
  // An empty source is a valid no-op run.
  const auto report = runner.Run({&source}, 0, 4, &sink);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->total_tuples, 0);
}

}  // namespace
}  // namespace albic
