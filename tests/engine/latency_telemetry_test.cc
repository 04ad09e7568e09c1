// Engine latency telemetry: enabling it must not change any output
// (bit-identity), it must populate the end-to-end / queueing / service
// histograms, buffered tuples must account the
// modeled migration pause as latency, and HarvestPeriod must reset the
// running histograms.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/local_engine.h"
#include "engine/migration.h"
#include "ops/aggregate.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;
constexpr int64_t kWindowUs = 60LL * 1000 * 1000;

/// The wiki pipeline (geohash -> windowed topk -> global topk) with a
/// configurable telemetry sampling interval.
struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 16};
  ops::WindowedTopKOperator global{kGroups, 16, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(int sample_every) {
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
    engine::LocalEngineOptions opts;
    opts.window_every_us = kWindowUs;
    opts.latency_sample_every = sample_every;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
  }

  std::string StateOf(KeyGroupId g) {
    engine::StreamOperator* ops[] = {&geohash, &topk, &global};
    return ops[topo.group_operator(g)]->SerializeGroupState(
        topo.group_index_in_operator(g));
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

std::vector<Tuple> MakeStream(int tuples) {
  workload::WikipediaEditStream edits(/*articles=*/300, /*seed=*/5,
                                      /*rate_per_second=*/400.0);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) out.push_back(edits.Next());
  return out;
}

TEST(LatencyTelemetryTest, DisabledByDefaultAndInert) {
  Pipeline p(/*sample_every=*/0);
  EXPECT_FALSE(p.engine->latency_telemetry_enabled());
  const std::vector<Tuple> stream = MakeStream(5000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  EXPECT_FALSE(stats.latency.enabled);
  EXPECT_EQ(stats.latency.e2e_us.count(), 0);
  EXPECT_EQ(engine::LatencySummary::FromPeriod(stats.latency).e2e_count, 0);
}

TEST(LatencyTelemetryTest, OutputsBitIdenticalWithTelemetryEnabled) {
  const std::vector<Tuple> stream = MakeStream(60000);
  Pipeline off(/*sample_every=*/0);
  Pipeline on(/*sample_every=*/32);
  ASSERT_TRUE(off.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  ASSERT_TRUE(on.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  off.engine->Flush();
  on.engine->Flush();

  // Bit-identity: every group's canonical state and the merged windowed
  // answer agree — telemetry observes, never steers.
  for (KeyGroupId g = 0; g < off.topo.num_key_groups(); ++g) {
    EXPECT_EQ(off.StateOf(g), on.StateOf(g)) << "group " << g;
  }
  ASSERT_FALSE(off.GlobalCounts().empty());
  EXPECT_EQ(off.GlobalCounts(), on.GlobalCounts());

  // The telemetry run measured the pipeline: queueing delay on every hop,
  // service time per operator, end-to-end at the sink (the global top-k
  // only receives window-fire aggregates, so e2e samples exist once the
  // first window closed).
  engine::EnginePeriodStats stats = on.engine->HarvestPeriod();
  ASSERT_TRUE(stats.latency.enabled);
  EXPECT_GT(stats.latency.queue_us.count(), 0);
  ASSERT_EQ(stats.latency.op_service_us.size(), 3u);
  EXPECT_GT(stats.latency.op_service_us[0].count(), 0);  // geohash
  EXPECT_GT(stats.latency.op_service_us[1].count(), 0);  // topk
  EXPECT_GT(stats.latency.e2e_us.count(), 0);
  // Per-(operator, key-group) service accounting saw every delivered tuple
  // of the geohash operator.
  int64_t geohash_tuples = 0;
  for (int gi = 0; gi < kGroups; ++gi) {
    geohash_tuples += stats.latency.group_service[gi].tuples;
  }
  EXPECT_EQ(geohash_tuples, static_cast<int64_t>(stream.size()));
}

TEST(LatencyTelemetryTest, MigrationPauseAccountedForBufferedTuples) {
  // A terminal sum operator with per-key state: tuples that arrive while
  // the group migrates must surface the modeled pause as end-to-end
  // latency (the buffered tuples sat it out).
  engine::Topology topo;
  topo.AddOperator("sum", kGroups, 1 << 14);
  engine::Cluster cluster(2);
  engine::Assignment assign(kGroups);
  for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 2);
  ops::SumByKeyOperator sum(kGroups, ops::GroupField::kKey,
                            /*emit_updates=*/false);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  opts.latency_sample_every = 8;
  engine::LocalEngine eng(&topo, &cluster, assign, {&sum}, opts);

  // Build state on every group, then migrate group 0 with tuples in the
  // buffer window.
  std::vector<Tuple> warm;
  for (int i = 0; i < 20000; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.ts = i;
    t.num = 1.0;
    warm.push_back(t);
  }
  ASSERT_TRUE(eng.InjectBatch(0, warm.data(), warm.size()).ok());
  eng.Flush();
  (void)eng.HarvestPeriod();  // isolate the migration period

  ASSERT_TRUE(eng.StartMigration(0, 1).ok());
  std::vector<Tuple> during;
  for (int i = 0; i < 2000; ++i) {
    Tuple t;
    t.key = static_cast<uint64_t>(i);
    t.ts = 20000 + i;
    t.num = 1.0;
    during.push_back(t);
  }
  ASSERT_TRUE(eng.InjectBatch(0, during.data(), during.size()).ok());
  eng.Flush();
  const auto pause = eng.FinishMigration(0);
  ASSERT_TRUE(pause.ok());
  ASSERT_GT(*pause, 0.0);

  engine::EnginePeriodStats stats = eng.HarvestPeriod();
  ASSERT_GT(stats.tuples_buffered, 0);
  // Each buffered tuple recorded one stall sample of the modeled pause...
  EXPECT_EQ(stats.latency.stall_e2e_us.count(), stats.tuples_buffered);
  EXPECT_GE(stats.latency.stall_e2e_us.max(),
            static_cast<int64_t>(*pause * 0.99));
  // ...which the reported summary folds into the end-to-end percentiles,
  EXPECT_GE(engine::LatencySummary::FromPeriod(stats.latency).e2e_max_us,
            static_cast<int64_t>(*pause * 0.99));
  // ...while the measured histogram keeps the modeled pause out: it holds
  // wall-clock latency only.
  EXPECT_LT(stats.latency.e2e_us.max(), static_cast<int64_t>(*pause * 0.99));
}

TEST(LatencyTelemetryTest, HarvestResetsRunningHistograms) {
  Pipeline p(/*sample_every=*/16);
  const std::vector<Tuple> stream = MakeStream(20000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  const engine::EnginePeriodStats first = p.engine->HarvestPeriod();
  EXPECT_GT(engine::LatencySummary::FromPeriod(first.latency).e2e_count +
                first.latency.queue_us.count(),
            0);
  const engine::EnginePeriodStats next = p.engine->HarvestPeriod();
  const engine::LatencySummary after =
      engine::LatencySummary::FromPeriod(next.latency);
  EXPECT_EQ(after.e2e_count, 0);
  EXPECT_EQ(after.e2e_p99_us, 0);
  EXPECT_TRUE(next.latency.enabled);
  EXPECT_EQ(next.latency.queue_us.count(), 0);
}

}  // namespace
}  // namespace albic
