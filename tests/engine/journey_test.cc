// Sampled per-tuple journeys: the tracker's claim protocol (exactly one
// hop per (journey, operator), first batch at-or-past the sample's event
// time wins), worst-N retention, and the engine integration — journeys
// survive mid-stream migrations and recovery re-deliveries without
// duplicated hops, and render as nested spans when the tracer is on.

#include "engine/journey.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/trace.h"
#include "engine/local_engine.h"
#include "engine/migration.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::CompletedJourney;
using engine::JourneyTracker;
using engine::KeyGroupId;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;
constexpr int64_t kWindowUs = 60LL * 1000 * 1000;

// ---------------------------------------------------------------------------
// Tracker unit tests (synthetic hops, no engine).

TEST(JourneyTrackerTest, ClaimsEachOperatorHopExactlyOnce) {
  JourneyTracker tracker;
  // Two operators; operator 1 is the sink.
  tracker.Enable(/*sample_every=*/1, /*num_operators=*/2, {0, 1});
  ASSERT_TRUE(tracker.enabled());
  tracker.MaybeStart(/*event_ts_us=*/1000, /*wall_ns=*/10, /*count=*/1);

  // A batch older than the sample must NOT claim the hop.
  tracker.OnBatchDelivered(/*op=*/0, /*group=*/3, /*last_ts=*/999,
                           /*enqueue_ns=*/20, /*t0_ns=*/30, /*t1_ns=*/40);
  // The first batch at-or-past the stamp claims it; later ones (e.g. a
  // re-delivery after a migration replay) must lose the exchange.
  tracker.OnBatchDelivered(0, 4, 1000, 50, 60, 80);
  tracker.OnBatchDelivered(0, 5, 2000, 90, 100, 120);
  // Sink hop completes the journey.
  tracker.OnBatchDelivered(1, 6, 1500, 130, 140, 200);

  std::vector<CompletedJourney> worst;
  tracker.Sweep(&worst);
  ASSERT_EQ(worst.size(), 1u);
  const CompletedJourney& j = worst[0];
  EXPECT_EQ(j.event_ts_us, 1000);
  EXPECT_EQ(j.ingest_wall_ns, 10);
  ASSERT_EQ(j.hops.size(), 2u);
  // Hop 0 belongs to the first claiming batch — group 4, not 5.
  EXPECT_EQ(j.hops[0].op, 0);
  EXPECT_EQ(j.hops[0].group, 4);
  EXPECT_EQ(j.hops[0].start_ns, 50);  // enqueue stamp present -> queue wait
  EXPECT_EQ(j.hops[0].end_ns, 80);
  EXPECT_DOUBLE_EQ(j.hops[0].queue_us, (60 - 50) / 1000.0);
  EXPECT_DOUBLE_EQ(j.hops[0].service_us, (80 - 60) / 1000.0);
  EXPECT_EQ(j.hops[1].op, 1);
  EXPECT_EQ(j.hops[1].group, 6);
  // End-to-end: ingest wall stamp to sink service end.
  EXPECT_DOUBLE_EQ(j.e2e_us, (200 - 10) / 1000.0);
}

TEST(JourneyTrackerTest, IncompleteJourneysStayActiveUntilDropped) {
  JourneyTracker tracker;
  tracker.Enable(1, 2, {0, 1});
  tracker.MaybeStart(1000, 10, 1);
  tracker.OnBatchDelivered(0, 0, 1000, 0, 20, 30);  // non-sink hop only

  std::vector<CompletedJourney> worst;
  tracker.Sweep(&worst);
  EXPECT_TRUE(worst.empty());  // no sink hop claimed yet

  // Period harvest drops the in-flight journey; the freed slot must not
  // leak its old claims into a journey started later.
  tracker.DropActive();
  tracker.MaybeStart(5000, 100, 1);
  tracker.OnBatchDelivered(1, 2, 6000, 0, 200, 300);
  tracker.Sweep(&worst);
  ASSERT_EQ(worst.size(), 1u);
  ASSERT_EQ(worst[0].hops.size(), 1u);  // only the new sink hop
  EXPECT_EQ(worst[0].hops[0].op, 1);
}

TEST(JourneyTrackerTest, KeepsTheWorstJourneysByEndToEndLatency) {
  JourneyTracker tracker;
  tracker.Enable(1, 1, {1});  // single sink operator
  std::vector<CompletedJourney> worst;
  // Complete more journeys than the retention cap; e2e grows with i except
  // journey 0, which is made the slowest of all.
  const int total = JourneyTracker::kWorstPerPeriod + 3;
  for (int i = 0; i < total; ++i) {
    const int64_t ts = 1000 * (i + 1);
    tracker.MaybeStart(ts, /*wall_ns=*/1, 1);
    const int64_t end = (i == 0) ? 1000000 : 100 * (i + 1);
    tracker.OnBatchDelivered(0, 0, ts, 0, 2, end);
    tracker.Sweep(&worst);
  }
  ASSERT_EQ(worst.size(), static_cast<size_t>(JourneyTracker::kWorstPerPeriod));
  // The slowest journey (the first one) survived the eviction.
  double max_e2e = 0;
  for (const CompletedJourney& j : worst) max_e2e = std::max(max_e2e, j.e2e_us);
  EXPECT_DOUBLE_EQ(max_e2e, (1000000 - 1) / 1000.0);
}

TEST(JourneyTrackerTest, SamplingIntervalAndSlotExhaustion) {
  JourneyTracker tracker;
  tracker.Enable(/*sample_every=*/100, 1, {1});
  std::vector<CompletedJourney> worst;
  // The very first tuple starts a journey (countdown primes at 1, like
  // the ingest-sample ring); after that a fresh interval must elapse.
  tracker.MaybeStart(10, 1, 1);
  tracker.MaybeStart(20, 1, 99);  // 99 of the next 100: not yet
  // Fill every remaining slot, then exhaust: the overflow samples are
  // skipped, not queued.
  for (int i = 0; i < JourneyTracker::kMaxActive + 2; ++i) {
    tracker.MaybeStart(30 + i, 1, 100);
  }
  // Complete everything in flight; only kMaxActive journeys ever existed.
  tracker.OnBatchDelivered(0, 0, 1000000, 0, 2, 3);
  tracker.Sweep(&worst);
  EXPECT_EQ(worst.size(), static_cast<size_t>(JourneyTracker::kMaxActive));
}

// ---------------------------------------------------------------------------
// Engine integration.

/// The wiki pipeline with journey sampling on (requires latency
/// telemetry) — geohash -> topk -> global topk, the global being the sink.
struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 16};
  ops::WindowedTopKOperator global{kGroups, 16, ops::TopKCountMode::kSumNum};
  std::unique_ptr<engine::LocalEngine> engine;

  explicit Pipeline(int journey_sample_every) {
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
    opts.latency_sample_every = 32;
    opts.journey_sample_every = journey_sample_every;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
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

// Every journey must have at most one hop per operator, hops in operator
// order, and a positive end-to-end latency.
void CheckJourneyShape(const std::vector<CompletedJourney>& journeys,
                       int num_operators) {
  for (const CompletedJourney& j : journeys) {
    EXPECT_GT(j.e2e_us, 0.0) << "journey " << j.id;
    EXPECT_LE(j.hops.size(), static_cast<size_t>(num_operators));
    std::vector<int> seen(static_cast<size_t>(num_operators), 0);
    int prev_op = -1;
    for (const engine::JourneyHop& h : j.hops) {
      ASSERT_GE(h.op, 0);
      ASSERT_LT(h.op, num_operators);
      ++seen[static_cast<size_t>(h.op)];
      EXPECT_GT(h.op, prev_op) << "hops out of operator order";
      prev_op = h.op;
      EXPECT_GE(h.service_us, 0.0);
      EXPECT_GE(h.end_ns, h.start_ns);
    }
    for (int op = 0; op < num_operators; ++op) {
      EXPECT_LE(seen[static_cast<size_t>(op)], 1)
          << "operator " << op << " claimed twice in journey " << j.id;
    }
  }
}

TEST(JourneyEngineTest, HarvestsWorstJourneysWithOrderedHops) {
  Pipeline p(/*journey_sample_every=*/64);
  ASSERT_TRUE(p.engine->journey_sampling_enabled());
  const std::vector<Tuple> stream = MakeStream(60000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  ASSERT_FALSE(stats.journeys.empty());
  EXPECT_LE(stats.journeys.size(),
            static_cast<size_t>(JourneyTracker::kWorstPerPeriod));
  CheckJourneyShape(stats.journeys, 3);
  // The sampled journeys reached the pipeline's first operator at least.
  bool any_geohash_hop = false;
  for (const CompletedJourney& j : stats.journeys) {
    for (const engine::JourneyHop& h : j.hops) {
      if (h.op == 0) any_geohash_hop = true;
    }
  }
  EXPECT_TRUE(any_geohash_hop);
  // No new tuples between harvests: the next period completes nothing.
  engine::EnginePeriodStats next = p.engine->HarvestPeriod();
  EXPECT_TRUE(next.journeys.empty());
}

// A sampled tuple waiting for its window to close legitimately spans
// controller periods, so a mid-run harvest must not drop the in-flight
// journeys — its completion lands in a later period's worst-N.
TEST(JourneyEngineTest, JourneysSurviveMidRunHarvests) {
  // An interval longer than the stream means exactly one journey ever
  // starts (the countdown primes at 1, so the first tuple samples); if the
  // mid-run harvest dropped it, nothing could complete afterwards.
  Pipeline p(/*journey_sample_every=*/1 << 30);
  const std::vector<Tuple> stream = MakeStream(60000);
  // First window fires around 60s of event time (~24000 tuples at 400/s);
  // harvest well before that, while every journey is still in flight.
  const size_t half = 20000;
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), half).ok());
  p.engine->Flush();
  engine::EnginePeriodStats early = p.engine->HarvestPeriod();
  EXPECT_TRUE(early.journeys.empty()) << "no window fired yet";
  ASSERT_TRUE(
      p.engine->InjectBatch(0, stream.data() + half, stream.size() - half)
          .ok());
  p.engine->Flush();
  engine::EnginePeriodStats late = p.engine->HarvestPeriod();
  ASSERT_FALSE(late.journeys.empty())
      << "journeys started before the harvest never completed";
  CheckJourneyShape(late.journeys, 3);
}

TEST(JourneyEngineTest, MigrationRedeliveriesDoNotDuplicateHops) {
  Pipeline p(/*journey_sample_every=*/32);
  // One continuous stream, split so the second half lands mid-migration
  // (event time keeps advancing across the split — windows still fire).
  const std::vector<Tuple> stream = MakeStream(60000);
  const size_t half = stream.size() / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), half).ok());
  p.engine->Flush();

  // Migrate two groups with tuples buffered mid-migration: the buffered
  // batches re-deliver after FinishMigration, offering duplicate claim
  // opportunities to any journey in flight.
  for (KeyGroupId g = 0; g < 2; ++g) {
    const engine::NodeId from = p.engine->assignment().node_of(g);
    ASSERT_TRUE(p.engine->StartMigration(g, (from + 1) % kNodes).ok());
  }
  ASSERT_TRUE(
      p.engine->InjectBatch(0, stream.data() + half, stream.size() - half)
          .ok());
  p.engine->Flush();
  for (KeyGroupId g = 0; g < 2; ++g) {
    ASSERT_TRUE(p.engine->FinishMigration(g).ok());
  }
  p.engine->Flush();
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  ASSERT_FALSE(stats.journeys.empty());
  CheckJourneyShape(stats.journeys, 3);
}

TEST(JourneyEngineTest, TracerRendersCompletedJourneysAsSpans) {
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  Pipeline p(/*journey_sample_every=*/64);
  const std::vector<Tuple> stream = MakeStream(60000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  Tracer::Global().Disable();
  ASSERT_FALSE(stats.journeys.empty());
  const std::string json = Tracer::Global().ChromeTraceJson();
  Tracer::Global().Clear();
  EXPECT_NE(json.find("\"journey\""), std::string::npos);
  EXPECT_NE(json.find("\"journey.hop\""), std::string::npos);
}

}  // namespace
}  // namespace albic
