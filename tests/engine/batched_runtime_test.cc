// The batched runtime must reproduce the synchronous depth-first reference
// cascade (tests/engine/reference_cascade.h): it produces identical
// EnginePeriodStats and operator outputs on the Real Job 1 pipeline
// (including across migrations) and on a branched DAG that takes every
// routing pattern, and migrations started while batches are staged buffer
// and drain in arrival order.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/local_engine.h"
#include "ops/aggregate.h"
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

struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;
  std::unique_ptr<testing::ReferenceCascade> reference;

  /// The pipeline on the engine with \p opts, or with \p on_reference on
  /// the reference cascade with \p opts' serde cost and window cadence.
  explicit Pipeline(engine::LocalEngineOptions opts,
                    bool on_reference = false) {
    topo.AddOperator("geohash", kGroups, 1 << 14);
    topo.AddOperator("topk", kGroups, 1 << 14);
    topo.AddOperator("global", kGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kNodes);
    }
    const std::vector<engine::StreamOperator*> ops = {&geohash, &topk,
                                                      &global};
    if (on_reference) {
      reference = std::make_unique<testing::ReferenceCascade>(
          &topo, kNodes, assign, ops, opts.serde_cost, opts.window_every_us);
    } else {
      engine = std::make_unique<engine::LocalEngine>(&topo, &cluster, assign,
                                                     ops, opts);
    }
  }

  void Inject(const Tuple& t) {
    if (reference != nullptr) {
      reference->Inject(0, t);
    } else {
      EXPECT_TRUE(engine->Inject(0, t).ok());
    }
  }

  const engine::Assignment& assignment() const {
    return reference != nullptr ? reference->assignment()
                                : engine->assignment();
  }

  void Migrate(KeyGroupId g, engine::NodeId to) {
    if (reference != nullptr) {
      reference->Migrate(g, to);
      return;
    }
    engine->Flush();  // migrate between batches, as the controller does
    EXPECT_TRUE(engine->MigrateGroup(g, to).ok());
  }

  engine::EnginePeriodStats Harvest() {
    if (reference != nullptr) return reference->Harvest();
    engine->Flush();
    return engine->HarvestPeriod();
  }

  /// Runs the wiki edit stream with a rotating migration every 2000 tuples
  /// and returns the final period's statistics.
  engine::EnginePeriodStats RunWiki(int tuples) {
    workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
    for (int i = 0; i < tuples; ++i) {
      Inject(edits.Next());
      if (i % 2000 == 1999) {
        const KeyGroupId g =
            static_cast<KeyGroupId>((i / 2000) % topo.num_key_groups());
        Migrate(g, (assignment().node_of(g) + 1) % kNodes);
      }
    }
    return Harvest();
  }

  std::map<uint64_t, int64_t> GlobalCounts() const {
    std::map<uint64_t, int64_t> out;
    for (int g = 0; g < kGroups; ++g) {
      for (const auto& [article, count] : global.last_window_top(g)) {
        out[article] += count;
      }
    }
    return out;
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
  ASSERT_EQ(a.comm.num_groups(), b.comm.num_groups());
  for (KeyGroupId from = 0; from < a.comm.num_groups(); ++from) {
    for (KeyGroupId to = 0; to < a.comm.num_groups(); ++to) {
      EXPECT_EQ(a.comm.Rate(from, to), b.comm.Rate(from, to))
          << "comm " << from << " -> " << to;
    }
  }
}

TEST(BatchedRuntimeTest, SingleWorkerMatchesReferenceCascadeOnWikiPipeline) {
  engine::LocalEngineOptions opts;
  Pipeline reference(opts, /*on_reference=*/true);
  Pipeline batched(opts);

  constexpr int kTuples = 70000;  // > 2 one-minute windows at 400 tuples/s
  engine::EnginePeriodStats reference_stats = reference.RunWiki(kTuples);
  engine::EnginePeriodStats batched_stats = batched.RunWiki(kTuples);

  ExpectStatsEqual(reference_stats, batched_stats);
  EXPECT_GT(batched_stats.migration_pause_us, 0.0);

  // The job answer must be identical too: same per-window global counts.
  std::map<uint64_t, int64_t> a = reference.GlobalCounts();
  std::map<uint64_t, int64_t> b = batched.GlobalCounts();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);

  // And the rotating migrations must have landed both runs on the same
  // allocation.
  EXPECT_TRUE(reference.assignment() == batched.assignment());
}

TEST(BatchedRuntimeTest, InjectBatchMatchesReferenceCascade) {
  engine::LocalEngineOptions opts;
  Pipeline reference(opts, /*on_reference=*/true);
  Pipeline batched(opts);

  // Same stream, cascaded per tuple by the reference and ingested in
  // arbitrary chunk sizes by the engine.
  constexpr int kTuples = 50000;
  workload::WikipediaEditStream edits(300, 101, /*rate_per_second=*/400.0);
  std::vector<Tuple> stream;
  stream.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) stream.push_back(edits.Next());

  for (const Tuple& t : stream) reference.Inject(t);
  size_t offset = 0;
  const size_t chunks[] = {1, 7, 1000, 40000, 8992};
  for (size_t chunk : chunks) {
    ASSERT_TRUE(
        batched.engine->InjectBatch(0, stream.data() + offset, chunk).ok());
    offset += chunk;
  }
  ASSERT_EQ(offset, stream.size());

  ExpectStatsEqual(reference.Harvest(), batched.Harvest());
  EXPECT_EQ(reference.GlobalCounts(), batched.GlobalCounts());
}

/// A branched DAG that takes every routing path the engine has: a null
/// source staged at ingress fans out one-to-one into geohash (so a single
/// source group feeds each geohash group) and by key into a running sum;
/// geohash merges into the windowed top-k sink and the sum's updates
/// partition into it, so the sink's groups merge two upstream operators.
struct BranchedDag {
  static constexpr int kSourceGroups = 4;
  static constexpr int kSumGroups = 6;
  static constexpr int kSinkGroups = 2;
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kSourceGroups, 64};
  ops::SumByKeyOperator sum{kSumGroups, ops::GroupField::kKey};
  ops::WindowedTopKOperator sink{kSinkGroups, 16};
  std::vector<engine::StreamOperator*> ops = {nullptr, &geohash, &sum,
                                              &sink};

  BranchedDag() {
    topo.AddOperator("source", kSourceGroups, 0.0, /*is_source=*/true);
    topo.AddOperator("geohash", kSourceGroups, 1 << 10);
    topo.AddOperator("sum", kSumGroups, 1 << 12);
    topo.AddOperator("topk", kSinkGroups, 1 << 12);
    using engine::PartitioningPattern;
    EXPECT_TRUE(topo.AddStream(0, 1, PartitioningPattern::kOneToOne).ok());
    EXPECT_TRUE(
        topo.AddStream(0, 2, PartitioningPattern::kFullPartitioning).ok());
    EXPECT_TRUE(topo.AddStream(1, 3, PartitioningPattern::kPartialMerge).ok());
    EXPECT_TRUE(
        topo.AddStream(2, 3, PartitioningPattern::kPartialPartitioning).ok());
  }

  engine::Assignment InitialAssignment() const {
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, (g * 3) % kNodes);
    }
    return assign;
  }

  std::vector<std::string> States() const {
    std::vector<std::string> out;
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      const engine::StreamOperator* op = ops[topo.group_operator(g)];
      if (op != nullptr) {
        out.push_back(
            op->SerializeGroupState(topo.group_index_in_operator(g)));
      }
    }
    return out;
  }
};

TEST(BatchedRuntimeTest, BranchedDagMatchesReferenceCascade) {
  engine::LocalEngineOptions opts;
  opts.max_batch_tuples = 512;
  opts.window_every_us = 1000LL * 1000;  // a window every ~2000 tuples

  BranchedDag on_engine;
  engine::LocalEngine eng(&on_engine.topo, &on_engine.cluster,
                          on_engine.InitialAssignment(), on_engine.ops, opts);
  BranchedDag on_reference;
  testing::ReferenceCascade reference(
      &on_reference.topo, kNodes, on_reference.InitialAssignment(),
      on_reference.ops, opts.serde_cost, opts.window_every_us);

  constexpr int kTuples = 100000;  // 90 chunks: every group moves once
  workload::WikipediaEditStream edits(300, 17, /*rate_per_second=*/2000.0);
  std::vector<Tuple> stream;
  stream.reserve(kTuples);
  for (int i = 0; i < kTuples; ++i) stream.push_back(edits.Next());

  // Chunks straddle the batch limit on both sides; every fifth chunk is
  // followed by a direct move rotating over all groups, source ones too.
  const size_t chunks[] = {1, 333, 4096, 7};
  size_t offset = 0;
  int moves = 0;
  for (int c = 0; offset < stream.size(); ++c) {
    const size_t n = std::min(chunks[c % 4], stream.size() - offset);
    ASSERT_TRUE(eng.InjectBatch(0, stream.data() + offset, n).ok());
    for (size_t i = offset; i < offset + n; ++i) {
      reference.Inject(0, stream[i]);
    }
    offset += n;
    if (c % 5 == 4) {
      const KeyGroupId g =
          static_cast<KeyGroupId>(moves++ % on_engine.topo.num_key_groups());
      const engine::NodeId to = (eng.assignment().node_of(g) + 1) % kNodes;
      eng.Flush();
      ASSERT_TRUE(eng.MigrateGroup(g, to).ok());
      reference.Migrate(g, to);
    }
  }
  eng.Flush();
  ASSERT_GT(moves, on_engine.topo.num_key_groups());

  const engine::EnginePeriodStats engine_stats = eng.HarvestPeriod();
  const engine::EnginePeriodStats reference_stats = reference.Harvest();
  ExpectStatsEqual(reference_stats, engine_stats);
  EXPECT_GT(engine_stats.migration_pause_us, 0.0);
  EXPECT_EQ(reference_stats.shard_ingested, engine_stats.shard_ingested);
  EXPECT_TRUE(reference.assignment() == eng.assignment());

  // Every operator group's canonical state, the closed windows' top-k
  // included.
  const std::vector<std::string> a = on_reference.States();
  const std::vector<std::string> b = on_engine.States();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << "group " << i;
  bool fired = false;
  for (int gi = 0; gi < BranchedDag::kSinkGroups; ++gi) {
    fired = fired || !on_engine.sink.last_window_top(gi).empty();
  }
  EXPECT_TRUE(fired);
}

/// Records the order in which tuples reach each group (via tuple.num).
class RecordingOperator : public engine::StreamOperator {
 public:
  explicit RecordingOperator(int num_groups) : seen_(num_groups) {}

  void Process(const Tuple& tuple, int group_index,
               engine::Emitter* out) override {
    (void)out;
    seen_[group_index].push_back(tuple.num);
  }

  const std::vector<double>& seen(int group_index) const {
    return seen_[group_index];
  }

 private:
  std::vector<std::vector<double>> seen_;
};

TEST(BatchedRuntimeTest, MigrationMidBatchBuffersAndDrainsInOrder) {
  engine::Topology topo;
  topo.AddOperator("rec", 4, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % 2);
  }
  RecordingOperator rec(4);
  engine::LocalEngineOptions opts;
  opts.max_batch_tuples = 1024;  // nothing auto-drains during the test
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  // A key that lands in group 0.
  uint64_t key = 0;
  while (engine::LocalEngine::RouteKey(key, 4) != 0) ++key;
  const KeyGroupId group = 0;

  auto inject = [&](double seq) {
    Tuple t;
    t.key = key;
    t.num = seq;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  };

  // Tuples 1-5 are staged, then the group starts migrating: the flush must
  // buffer them at the target instead of processing.
  for (int i = 1; i <= 5; ++i) inject(i);
  ASSERT_TRUE(eng.StartMigration(group, 1).ok());
  eng.Flush();
  EXPECT_TRUE(rec.seen(group).empty());

  // More arrive while the state is in flight.
  for (int i = 6; i <= 7; ++i) inject(i);

  // FinishMigration drains the buffer, then the staged tuples, in order.
  auto pause = eng.FinishMigration(group);
  ASSERT_TRUE(pause.ok());
  eng.Flush();
  EXPECT_EQ(eng.assignment().node_of(group), 1);
  EXPECT_EQ(rec.seen(group),
            (std::vector<double>{1, 2, 3, 4, 5, 6, 7}));

  engine::EnginePeriodStats stats = eng.HarvestPeriod();
  EXPECT_EQ(stats.tuples_processed, 7);
  EXPECT_EQ(stats.tuples_buffered, 5);
}

TEST(BatchedRuntimeTest, AutoDrainTriggersAtBatchLimit) {
  engine::Topology topo;
  topo.AddOperator("rec", 2, 1 << 10);
  engine::Cluster cluster(1);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) assign.set_node(g, 0);
  RecordingOperator rec(2);
  engine::LocalEngineOptions opts;
  opts.max_batch_tuples = 8;
  opts.window_every_us = 0;
  engine::LocalEngine eng(&topo, &cluster, assign,
                          std::vector<engine::StreamOperator*>{&rec}, opts);

  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.num = i;
    ASSERT_TRUE(eng.Inject(0, t).ok());
  }
  // The eighth tuple hit the batch limit: everything processed, no Flush.
  EXPECT_EQ(rec.seen(0).size() + rec.seen(1).size(), 8u);
}

}  // namespace
}  // namespace albic
