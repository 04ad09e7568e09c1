// Event tracer: span nesting and the Chrome trace-event document, threads
// publishing into their own buffers while the collector reads, and the
// core cost contract — engine outputs are bit-identical with tracing (and
// metrics publishing) on or off.
//
// The tracer is process-wide (Tracer::Global()), so every test clears it
// on entry and disables it on exit.

#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <thread>

#include "common/metrics_registry.h"
#include "engine/local_engine.h"
#include "tests/engine/reconfig_harness.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::MigrationMode;
using engine::Tuple;
using testing::MakeWikiStream;
using testing::ReconfigOptions;
using testing::ReconfigPipeline;

/// Extracts the numeric field \p key of the event named \p name from a
/// Chrome trace JSON document (first occurrence). Returns -1 if absent.
double EventField(const std::string& json, const std::string& name,
                  const std::string& key) {
  const size_t at = json.find("\"name\":\"" + name + "\"");
  if (at == std::string::npos) return -1.0;
  const size_t end = json.find('}', at);
  const size_t field = json.find("\"" + key + "\":", at);
  if (field == std::string::npos || field > end) return -1.0;
  return std::atof(json.c_str() + field + key.size() + 3);
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  {
    ALBIC_TRACE_SPAN("test", "invisible");
    ALBIC_TRACE_INSTANT("test", "also-invisible");
  }
  EXPECT_EQ(Tracer::Global().CollectedSpans(), 0u);
  EXPECT_EQ(Tracer::Global().ChromeTraceJson(), "{\"traceEvents\":[]}");
}

TEST_F(TraceTest, NestedScopesRecordContainedSpans) {
  Tracer::Global().Enable();
  {
    ALBIC_TRACE_SPAN1("test", "outer", "round", 3);
    {
      ALBIC_TRACE_SPAN2("test", "inner", "group", 7, "to", 2);
    }
  }
  ALBIC_TRACE_INSTANT("test", "tick");
  Tracer::Global().Disable();
  ASSERT_EQ(Tracer::Global().CollectedSpans(), 3u);

  const std::string json = Tracer::Global().ChromeTraceJson();
  // The inner scope closes (and records) first, but its span must lie
  // within the outer span's [ts, ts+dur] window on the same thread.
  const double outer_ts = EventField(json, "outer", "ts");
  const double outer_dur = EventField(json, "outer", "dur");
  const double inner_ts = EventField(json, "inner", "ts");
  const double inner_dur = EventField(json, "inner", "dur");
  ASSERT_GE(outer_ts, 0.0) << json;
  ASSERT_GE(inner_ts, 0.0) << json;
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur + 1e-3);
  EXPECT_EQ(EventField(json, "outer", "tid"), EventField(json, "inner", "tid"));
  // Args and categories survive into the document; the instant event is a
  // ph:"i" tick.
  EXPECT_NE(json.find("\"round\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"group\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
}

TEST_F(TraceTest, FullBufferDropsAndCountsInsteadOfBlocking) {
  Tracer::Global().Enable();
  for (size_t i = 0; i < Tracer::kSpansPerThread + 100; ++i) {
    ALBIC_TRACE_SPAN("test", "flood");
  }
  Tracer::Global().Disable();
  EXPECT_EQ(Tracer::Global().CollectedSpans(), Tracer::kSpansPerThread);
  EXPECT_GE(Tracer::Global().Dropped(), 100);
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().CollectedSpans(), 0u);
  EXPECT_EQ(Tracer::Global().Dropped(), 0);
}

TEST_F(TraceTest, ThreadsPublishIntoTheirOwnBuffers) {
  // Two plain threads publish while the engine publishes its wave and
  // batch spans on this one and the collector reads: every span must
  // arrive, each thread's under its own tid.
  constexpr int kSpansEach = 2000;
  ReconfigPipeline p;
  const std::vector<Tuple> stream = MakeWikiStream(4000);
  Tracer::Global().Enable();
  auto publish = [] {
    for (int i = 0; i < kSpansEach; ++i) {
      ALBIC_TRACE_SPAN1("test", "threaded", "i", i);
    }
  };
  std::thread a(publish);
  std::thread b(publish);
  EXPECT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  // Collecting mid-publish reads only committed slots.
  EXPECT_NE(Tracer::Global().ChromeTraceJson().find("traceEvents"),
            std::string::npos);
  a.join();
  b.join();
  Tracer::Global().Disable();

  EXPECT_EQ(Tracer::Global().Dropped(), 0);
  const std::string json = Tracer::Global().ChromeTraceJson();
  EXPECT_NE(json.find("\"name\":\"wave\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op.batch\""), std::string::npos);
  int threaded = 0;
  std::set<double> tids;
  const std::string name = "\"name\":\"threaded\"";
  for (size_t at = json.find(name); at != std::string::npos;
       at = json.find(name, at + 1)) {
    ++threaded;
    tids.insert(std::atof(json.c_str() + json.find("\"tid\":", at) + 6));
  }
  EXPECT_EQ(threaded, 2 * kSpansEach);
  EXPECT_EQ(tids.size(), 2u);
}

TEST_F(TraceTest, MigrationModesLeaveDistinctSpans) {
  ReconfigOptions opts;
  opts.nodes = 4;
  ReconfigPipeline p(opts);
  p.EnableCheckpointing();
  if (::testing::Test::HasFatalFailure()) return;
  const std::vector<Tuple> stream = MakeWikiStream(4000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  // The indirect move needs a checkpoint to restore from (without one it
  // falls back to a direct pause — and a direct span).
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  Tracer::Global().Enable();
  ASSERT_TRUE(
      p.engine->MigrateGroup(0, /*to=*/1, MigrationMode::kDirect).ok());
  ASSERT_TRUE(
      p.engine->MigrateGroup(1, /*to=*/2, MigrationMode::kIndirect).ok());
  // A lease flips in FinishMigration's cutover, inside its one finish
  // span, which names the target.
  ASSERT_TRUE(
      p.engine->MigrateGroup(2, /*to=*/3, MigrationMode::kLease).ok());
  Tracer::Global().Disable();

  const std::string json = Tracer::Global().ChromeTraceJson();
  for (const char* span : {"migration.direct", "migration.indirect",
                           "migration.lease.finish"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(span) + "\""),
              std::string::npos)
        << span << " missing from " << json;
  }
  const size_t finish = json.find("\"name\":\"migration.lease.finish\"");
  ASSERT_NE(finish, std::string::npos);
  const size_t args = json.find("\"args\":{", finish);
  ASSERT_NE(args, std::string::npos);
  const std::string finish_args =
      json.substr(args, json.find('}', args) - args);
  EXPECT_NE(finish_args.find("\"to\":3"), std::string::npos) << finish_args;
  EXPECT_EQ(json.find("migration.lease.flip"), std::string::npos)
      << "a lease move leaves one span, not a flip nested in its finish";
}

TEST_F(TraceTest, EngineOutputsBitIdenticalWithObservabilityOnAndOff) {
  // The cost contract's correctness half: a fully-observed run (tracer on,
  // registry attached) must produce byte-identical state and windowed
  // output to a bare run over the same stream and schedule.
  const std::vector<Tuple> stream = MakeWikiStream(6000);
  const auto drive = [&](ReconfigPipeline* p) {
    ASSERT_TRUE(
        p->engine->InjectBatch(0, stream.data(), stream.size() / 2).ok());
    ASSERT_TRUE(p->engine
                    ->MigrateGroup(1, /*to=*/2, MigrationMode::kDirect)
                    .ok());
    ASSERT_TRUE(p->engine
                    ->InjectBatch(0, stream.data() + stream.size() / 2,
                                  stream.size() - stream.size() / 2)
                    .ok());
    p->engine->Flush();
  };

  ReconfigOptions bare_opts;
  ReconfigPipeline bare(bare_opts);
  drive(&bare);
  if (::testing::Test::HasFatalFailure()) return;

  MetricsRegistry registry;
  ReconfigOptions observed_opts;
  observed_opts.metrics = &registry;
  ReconfigPipeline observed(observed_opts);
  Tracer::Global().Enable();
  drive(&observed);
  Tracer::Global().Disable();
  if (::testing::Test::HasFatalFailure()) return;

  testing::ExpectSameOutputs(&observed, &bare, "observability on/off");
  // And the observed run really was observed (counters publish at the
  // period harvest).
  EXPECT_GT(Tracer::Global().CollectedSpans(), 0u);
  observed.engine->HarvestPeriod();
  EXPECT_GT(registry.Counter("engine_tuples_processed_total")->value(), 0);
}

}  // namespace
}  // namespace albic
