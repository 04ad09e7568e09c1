// Migration-mode equivalence matrix: one parameterized suite asserting
// that direct, indirect and lease migrations produce identical
// final outputs (canonical state, windowed results, tuple counts — and all
// of them identical to a no-migration baseline) across state sizes (empty
// group, single key, a 3000-key FlatMap64 grown through several
// doublings) and edge timings (migration started mid-window with
// in-flight traffic, back-to-back migrations of the same group, target
// equal to source).
// The same loop pins each mode's accounting: returned pause, buffered and
// replayed tuples, the per-mode migration counters, and the one ownership
// rule — the source owns the group while the move is open, the target once
// FinishMigration returns. Plus the mode-request contracts: kLease without
// checkpointing still flips (the state slot never moves, so a lease needs
// no checkpoint subsystem), kIndirect without checkpointing is rejected,
// FinishMigration rejects an unknown group, a group already mid-migration
// rejects a second StartMigration, a lease racing a node kill loses no
// tuples whichever endpoint dies, and a failed rebuild loses only its own
// group, which recovers from checkpoint + replay.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/store.h"
#include "tests/engine/reconfig_harness.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::MigrationMode;
using engine::NodeId;
using engine::Tuple;
using testing::MakeWikiStream;
using testing::ReconfigOptions;
using testing::ReconfigPipeline;

// ---------------------------------------------------------------------------
// State-size axis: a null fan-out source feeding a StoreSink, so the
// migrated group's state is exactly the keys the scenario routes to it.
// ---------------------------------------------------------------------------

constexpr int kStoreGroups = 4;
constexpr int kStoreNodes = 3;

struct StoreScenario {
  const char* name;
  int distinct_keys;  ///< Keys routed into the migrated group.
};

struct StorePipeline {
  engine::Topology topo;
  engine::Cluster cluster{kStoreNodes};
  ops::StoreSinkOperator sink{kStoreGroups};
  MetricsRegistry registry;
  engine::MemoryCheckpointStore cstore;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;

  StorePipeline() {
    topo.AddOperator("src", 1);
    topo.AddOperator("store", kStoreGroups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kStoreNodes);
    }
    engine::LocalEngineOptions opts;
    opts.window_every_us = 0;
    opts.metrics = &registry;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = 1LL << 60;  // paced manually by the scenario
    copts.max_delta_chain = 3;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&cstore, copts);
    EXPECT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
  }

  std::vector<std::string> SinkStates() const {
    std::vector<std::string> out;
    for (int g = 0; g < kStoreGroups; ++g) {
      out.push_back(sink.SerializeGroupState(g));
    }
    return out;
  }
};

/// Keys of the store operator's group \p group, enough to fill the
/// scenario's distinct-key budget; values make every upsert visible.
std::vector<Tuple> KeysFor(int group, int distinct) {
  std::vector<Tuple> out;
  int64_t ts = 0;
  for (uint64_t k = 0; out.size() < static_cast<size_t>(distinct); ++k) {
    if (engine::LocalEngine::RouteKey(k, kStoreGroups) != group) continue;
    Tuple t;
    t.key = k;
    t.num = static_cast<double>(k % 97) + 0.5;
    t.ts = ts += 1000;
    out.push_back(t);
  }
  return out;
}

/// Every MigrationMode, in enum order (the index of the per-mode series).
std::vector<MigrationMode> AllModes() {
  std::vector<MigrationMode> out;
  for (int m = 0; m < engine::kNumMigrationModes; ++m) {
    out.push_back(static_cast<MigrationMode>(m));
  }
  return out;
}

/// The `mode` label of the engine's per-mode migration series.
const char* ModeLabel(int m) {
  return engine::MigrationModeName(static_cast<MigrationMode>(m));
}

struct StoreRunResult {
  std::vector<std::string> states;
  int64_t processed = 0;
  int64_t buffered = 0;
  // Migrated runs: the move's accounting...
  double pause_us = 0.0;
  int64_t replayed = 0;
  NodeId from = engine::kInvalidNode;
  NodeId to = engine::kInvalidNode;
  NodeId owner_open = engine::kInvalidNode;  ///< After the in-flight Flush.
  NodeId owner_finished = engine::kInvalidNode;  ///< After FinishMigration.
  /// engine_migrations_total{mode}.
  int64_t migrations[engine::kNumMigrationModes] = {};
  /// engine_migration_bytes_total{mode}.
  int64_t migration_bytes[engine::kNumMigrationModes] = {};
  // ...and what it should be, measured when the move starts.
  int64_t in_flight = 0;          ///< Tuples offered between Start and Finish.
  int64_t state_bytes = 0;        ///< Serialized live state of the group.
  int64_t chain_delta_bytes = 0;  ///< Deltas chained onto its newest base.
};

/// One run: half the keys, checkpoint, migrate (or not), the other half
/// mid-migration when the scenario keeps the move open, then finish.
StoreRunResult RunStoreScenario(const StoreScenario& scenario,
                                bool migrate, MigrationMode mode) {
  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);  // store group 0
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  if (half > 0) {
    EXPECT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
    p.engine->Flush();
  }
  EXPECT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());
  StoreRunResult out;
  if (migrate) {
    out.from = p.engine->assignment().node_of(group);
    out.to = (out.from + 1) % kStoreNodes;
    out.in_flight = static_cast<int64_t>(keys.size() - half);
    out.state_bytes =
        static_cast<int64_t>(p.sink.SerializeGroupState(0).size());
    out.chain_delta_bytes =
        static_cast<int64_t>(p.cstore.ChainDeltaBytes(group));
    EXPECT_TRUE(p.engine->StartMigration(group, out.to, mode).ok());
    if (keys.size() > half) {
      // In-flight traffic between Start and Finish: buffered for direct
      // and indirect, processed live for lease — same final state either
      // way.
      EXPECT_TRUE(
          p.engine->InjectBatch(0, keys.data() + half, keys.size() - half)
              .ok());
      p.engine->Flush();
    }
    out.owner_open = p.engine->assignment().node_of(group);
    const auto pause = p.engine->FinishMigration(group);
    EXPECT_TRUE(pause.ok()) << pause.status().ToString();
    out.owner_finished = p.engine->assignment().node_of(group);
    out.pause_us = pause.ok() ? *pause : -1.0;
  } else if (keys.size() > half) {
    EXPECT_TRUE(
        p.engine->InjectBatch(0, keys.data() + half, keys.size() - half)
            .ok());
  }
  p.engine->Flush();
  out.states = p.SinkStates();
  const engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  out.processed = stats.tuples_processed;
  out.buffered = stats.tuples_buffered;
  out.replayed = stats.tuples_replayed;
  for (int m = 0; m < engine::kNumMigrationModes; ++m) {
    const MetricLabels mode = {{"mode", ModeLabel(m)}};
    out.migrations[m] =
        p.registry.Counter("engine_migrations_total", mode)->value();
    out.migration_bytes[m] =
        p.registry.Counter("engine_migration_bytes_total", mode)->value();
  }
  return out;
}

/// What one move of \p mode must account in \p run: the returned pause,
/// buffered and replayed tuples and the bytes its per-mode series counts.
void ExpectMoveAccounting(const StoreRunResult& run, MigrationMode mode,
                          const std::string& where) {
  double pause_us = 0.0;
  int64_t buffered = 0;
  int64_t bytes = 0;
  switch (mode) {
    case MigrationMode::kDirect:
      // The live round-trip: O(state) pause, in-flight input buffered.
      bytes = run.state_bytes;
      pause_us = engine::kEnginePauseUsPerByte * static_cast<double>(bytes);
      buffered = run.in_flight;
      break;
    case MigrationMode::kIndirect:
      // Chain restore with nothing logged past it (in-flight input
      // buffered): the pause is the chained deltas only.
      bytes = run.chain_delta_bytes;
      pause_us = engine::kEnginePauseUsPerByte * static_cast<double>(bytes);
      buffered = run.in_flight;
      break;
    case MigrationMode::kLease:
      break;  // a flip and nothing else
  }
  EXPECT_DOUBLE_EQ(run.pause_us, pause_us) << where;
  EXPECT_EQ(run.buffered, buffered) << where;
  EXPECT_EQ(run.replayed, 0) << where;
  // Every mode changes owner in FinishMigration and nowhere else: waves
  // that ran while the move was open left the source in charge.
  EXPECT_EQ(run.owner_open, run.from)
      << where << ": owner changed before FinishMigration";
  EXPECT_EQ(run.owner_finished, run.to)
      << where << ": owner is not the target after FinishMigration";
  for (int m = 0; m < engine::kNumMigrationModes; ++m) {
    const bool own = m == static_cast<int>(mode);
    EXPECT_EQ(run.migrations[m], own ? 1 : 0)
        << where << ": engine_migrations_total{mode=" << ModeLabel(m) << "}";
    EXPECT_EQ(run.migration_bytes[m], own ? bytes : 0)
        << where << ": engine_migration_bytes_total{mode=" << ModeLabel(m)
        << "}";
  }
}

class MigrationMatrixTest : public ::testing::TestWithParam<StoreScenario> {};

TEST_P(MigrationMatrixTest, AllModesMatchTheUnmigratedBaseline) {
  const StoreScenario& scenario = GetParam();
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);
  for (const MigrationMode mode : AllModes()) {
    const std::string where =
        std::string(scenario.name) + ": mode " + MigrationModeName(mode);
    const StoreRunResult run = RunStoreScenario(scenario, /*migrate=*/true,
                                                mode);
    EXPECT_EQ(run.states, baseline.states)
        << where << " diverged from the unmigrated baseline";
    EXPECT_EQ(run.processed, baseline.processed)
        << where << " lost or duplicated tuples";
    if (!engine::MigrationBuffers(mode)) {
      EXPECT_EQ(run.buffered, 0) << where << ": a lease buffered tuples";
    }
    ExpectMoveAccounting(run, mode, where);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StateSizes, MigrationMatrixTest,
    ::testing::Values(StoreScenario{"empty_group", 0},
                      StoreScenario{"single_key", 1},
                      StoreScenario{"large", 3000}),
    [](const ::testing::TestParamInfo<StoreScenario>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Edge-timing axis, on the windowed wiki pipeline.
// ---------------------------------------------------------------------------

struct WikiRunResult {
  std::vector<std::string> states;
  std::map<uint64_t, int64_t> counts;
  int64_t processed = 0;
};

enum class Timing { kNone, kMidWindow, kBackToBack, kSelfTarget };

WikiRunResult RunWikiScenario(Timing timing, MigrationMode mode) {
  ReconfigOptions opts;  // 4 nodes, 8 groups per op, 500 ms windows
  ReconfigPipeline p(opts);
  engine::CheckpointCoordinatorOptions copts;
  copts.interval_us = 700LL * 1000;
  copts.max_delta_chain = 4;
  p.EnableCheckpointing(copts);
  const std::vector<Tuple> stream = MakeWikiStream(4000);
  // Split inside a window, and find where that window ends: the in-flight
  // slice [split, window_end) shares the open migration's window, so no
  // window can close over tuples a direct or indirect move has buffered.
  // The engine anchors window boundaries at the first tuple's ts, so the
  // window index of a tuple is (ts - anchor) / every, not an absolute
  // bucket.
  const size_t split = stream.size() / 2;
  const int64_t anchor = stream[0].ts;
  size_t window_end = split;
  while (window_end < stream.size() &&
         (stream[window_end].ts - anchor) / opts.window_every_us ==
             (stream[split].ts - anchor) / opts.window_every_us) {
    ++window_end;
  }
  EXPECT_TRUE(p.engine->InjectBatch(0, stream.data(), split).ok());
  p.engine->Flush();
  const KeyGroupId group = p.topo.first_group(1);  // first top-k group
  const NodeId from = p.engine->assignment().node_of(group);
  switch (timing) {
    case Timing::kNone:
      break;
    case Timing::kMidWindow: {
      // Started mid-window, with the rest of the window's traffic landing
      // between Start and Finish.
      EXPECT_TRUE(
          p.engine->StartMigration(group, (from + 1) % opts.nodes, mode)
              .ok());
      break;
    }
    case Timing::kBackToBack: {
      // Two complete migrations of the same group, one right after the
      // other (the second starts from the first one's target).
      EXPECT_TRUE(
          p.engine->MigrateGroup(group, (from + 1) % opts.nodes, mode).ok());
      EXPECT_TRUE(
          p.engine->MigrateGroup(group, (from + 2) % opts.nodes, mode).ok());
      break;
    }
    case Timing::kSelfTarget: {
      // Target equal to source is rejected for every mode, and the
      // rejection must leave the pipeline untouched.
      const Status s = p.engine->StartMigration(group, from, mode);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
      break;
    }
  }
  if (timing == Timing::kMidWindow) {
    // The rest of the split window lands between Start and Finish.
    EXPECT_TRUE(
        p.engine->InjectBatch(0, stream.data() + split, window_end - split)
            .ok());
    p.engine->Flush();
    const auto pause = p.engine->FinishMigration(group);
    EXPECT_TRUE(pause.ok()) << pause.status().ToString();
    EXPECT_TRUE(p.engine
                    ->InjectBatch(0, stream.data() + window_end,
                                  stream.size() - window_end)
                    .ok());
  } else {
    EXPECT_TRUE(
        p.engine->InjectBatch(0, stream.data() + split, stream.size() - split)
            .ok());
  }
  p.engine->Flush();
  WikiRunResult out;
  out.states = p.AllStates();
  out.counts = p.GlobalCounts();
  out.processed = p.engine->HarvestPeriod().tuples_processed;
  return out;
}

class MigrationTimingTest : public ::testing::TestWithParam<Timing> {};

TEST_P(MigrationTimingTest, AllModesMatchTheUnmigratedBaseline) {
  const Timing timing = GetParam();
  const WikiRunResult baseline =
      RunWikiScenario(Timing::kNone, MigrationMode::kDirect);
  for (const MigrationMode mode : AllModes()) {
    const WikiRunResult run = RunWikiScenario(timing, mode);
    EXPECT_EQ(run.states, baseline.states)
        << "mode " << MigrationModeName(mode) << " diverged";
    EXPECT_EQ(run.counts, baseline.counts)
        << "mode " << MigrationModeName(mode) << " windowed output diverged";
    EXPECT_EQ(run.processed, baseline.processed)
        << "mode " << MigrationModeName(mode) << " lost or duplicated tuples";
  }
}

INSTANTIATE_TEST_SUITE_P(
    EdgeTimings, MigrationTimingTest,
    ::testing::Values(Timing::kMidWindow, Timing::kBackToBack,
                      Timing::kSelfTarget),
    [](const ::testing::TestParamInfo<Timing>& info) {
      switch (info.param) {
        case Timing::kMidWindow:
          return "mid_window";
        case Timing::kBackToBack:
          return "back_to_back";
        case Timing::kSelfTarget:
          return "target_equals_source";
        default:
          return "none";
      }
    });

// ---------------------------------------------------------------------------
// Mode-request contracts: rejection, cancellation and failed rebuilds.
// ---------------------------------------------------------------------------

TEST(MigrationModeContractTest, LeaseWithoutCheckpointingStillFlips) {
  // No EnableCheckpointing: kIndirect is an explicit mechanism request and
  // is rejected outright. A kLease request needs no checkpoint subsystem at
  // all: the state slot never moves, so there is nothing to transfer and
  // nothing to replay. The in-flight tuple processes LIVE at whichever
  // owner the routing names, and the accounted pause is exactly zero.
  engine::Topology topo;
  topo.AddOperator("src", 1);
  topo.AddOperator("store", kStoreGroups, 1 << 14);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  engine::Cluster cluster(kStoreNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kStoreNodes);
  }
  ops::StoreSinkOperator sink(kStoreGroups);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  engine::LocalEngine engine(
      &topo, &cluster, assign,
      std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);

  const std::vector<Tuple> keys = KeysFor(0, 33);
  ASSERT_TRUE(engine.InjectBatch(0, keys.data(), 32).ok());
  engine.Flush();
  const KeyGroupId group = topo.first_group(1);
  const NodeId to = (engine.assignment().node_of(group) + 1) % kStoreNodes;

  // kIndirect without checkpointing: rejected.
  const Status indirect = engine.StartMigration(group, to,
                                                MigrationMode::kIndirect);
  EXPECT_EQ(indirect.code(), StatusCode::kInvalidArgument)
      << indirect.ToString();

  ASSERT_TRUE(engine.StartMigration(group, to, MigrationMode::kLease).ok());
  ASSERT_TRUE(engine.InjectBatch(0, &keys[32], 1).ok());
  engine.Flush();
  EXPECT_EQ(sink.ValueFor(0, keys[32].key), keys[32].num)
      << "a lease move must process in-flight tuples live, not buffer them";
  const auto pause = engine.FinishMigration(group);
  ASSERT_TRUE(pause.ok()) << pause.status().ToString();
  EXPECT_EQ(*pause, 0.0) << "a lease flip moves nothing, pauses for nothing";
  EXPECT_EQ(engine.assignment().node_of(group), to);
  const engine::EnginePeriodStats stats = engine.HarvestPeriod();
  EXPECT_EQ(stats.tuples_buffered, 0);
  EXPECT_EQ(stats.tuples_processed, 33);
}

TEST(MigrationModeContractTest, FinishMigrationRejectsUnknownGroup) {
  // The same range check StartMigration and RecoverGroup make: an id
  // outside [0, num_key_groups()) is an error, never an index.
  StorePipeline p;
  for (const KeyGroupId g : {KeyGroupId{-1}, p.topo.num_key_groups()}) {
    const auto pause = p.engine->FinishMigration(g);
    EXPECT_EQ(pause.status().code(), StatusCode::kInvalidArgument)
        << "group " << g << ": " << pause.status().ToString();
  }
}

TEST(MigrationModeContractTest, LeaseTowardDyingNodeIsCancelledLossFree) {
  // A kill of a lease's TARGET before FinishMigration: ownership changes
  // only at the finish, so the source still owns the group even though
  // waves ran while the lease was open — FailNode cancels the move and the
  // group keeps processing where it is, losing nothing.
  const StoreScenario scenario{"single_owner", 48};
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);

  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);  // store group 0
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  const NodeId from = p.engine->assignment().node_of(group);
  const NodeId to = (from + 1) % kStoreNodes;
  ASSERT_TRUE(p.engine->StartMigration(group, to, MigrationMode::kLease).ok());
  // Part of the second half runs in waves while the lease is open.
  const size_t open_end = half + (keys.size() - half) / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, keys.data() + half, open_end - half)
                  .ok());
  p.engine->Flush();
  ASSERT_TRUE(p.engine->FailNode(to).ok());
  EXPECT_EQ(p.engine->assignment().node_of(group), from)
      << "a cancelled lease flip must leave ownership untouched";
  ASSERT_TRUE(p.engine
                  ->InjectBatch(0, keys.data() + open_end,
                                keys.size() - open_end)
                  .ok());
  p.engine->Flush();
  // Groups that died WITH the node recover normally (checkpoint + replay);
  // the leased group is not among them.
  for (const KeyGroupId lost : p.engine->lost_groups()) {
    EXPECT_NE(lost, group);
    ASSERT_TRUE(p.engine->RecoverGroup(lost, from).ok());
  }
  p.engine->Flush();
  EXPECT_EQ(p.SinkStates(), baseline.states);
  EXPECT_EQ(p.engine->HarvestPeriod().tuples_processed, baseline.processed);
}

TEST(MigrationModeContractTest, LeasedGroupDyingWithNodeRecoversLossFree) {
  // A finished lease, followed by a kill of the new owner: the group dies
  // with the node, and recovery goes through checkpoint + replay like any
  // other lost group — zero tuple loss.
  const StoreScenario scenario{"single_owner", 48};
  const StoreRunResult baseline =
      RunStoreScenario(scenario, /*migrate=*/false, MigrationMode::kDirect);

  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);
  const std::vector<Tuple> keys = KeysFor(0, scenario.distinct_keys);
  const size_t half = keys.size() / 2;
  ASSERT_TRUE(p.engine->InjectBatch(0, keys.data(), half).ok());
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  const NodeId from = p.engine->assignment().node_of(group);
  const NodeId to = (from + 1) % kStoreNodes;
  ASSERT_TRUE(p.engine->MigrateGroup(group, to, MigrationMode::kLease).ok());
  ASSERT_EQ(p.engine->assignment().node_of(group), to);

  ASSERT_TRUE(p.engine->FailNode(to).ok());
  // Input offered during the outage buffers and drains at recovery.
  ASSERT_TRUE(
      p.engine->InjectBatch(0, keys.data() + half, keys.size() - half).ok());
  p.engine->Flush();
  for (const KeyGroupId lost : p.engine->lost_groups()) {
    ASSERT_TRUE(p.engine->RecoverGroup(lost, from).ok());
  }
  p.engine->Flush();
  EXPECT_EQ(p.SinkStates(), baseline.states);
  EXPECT_EQ(p.engine->HarvestPeriod().tuples_processed, baseline.processed);
}

TEST(MigrationModeContractTest, FailedRebuildLosesOnlyItsOwnGroup) {
  // Group A's newest checkpoint record is a truncated image, so the chain
  // rebuild of its indirect move fails while group B moves indirectly at
  // the same time. The
  // failure is reported on A alone — B finishes cleanly — and A never
  // processes input on its wiped state: it is lost exactly as if its node
  // had died, buffers its input, and RecoverGroup rebuilds it once a sound
  // record exists again.
  const std::vector<Tuple> a_keys = KeysFor(0, 30);
  const std::vector<Tuple> b_keys = KeysFor(1, 20);
  StorePipeline baseline;
  ASSERT_TRUE(baseline.engine->InjectBatch(0, a_keys.data(), 30).ok());
  ASSERT_TRUE(baseline.engine->InjectBatch(0, b_keys.data(), 20).ok());
  baseline.engine->Flush();
  const int64_t baseline_processed =
      baseline.engine->HarvestPeriod().tuples_processed;

  const MigrationMode mode = MigrationMode::kIndirect;
  StorePipeline p;
  const KeyGroupId a = p.topo.first_group(1);  // store group 0
  const KeyGroupId b = a + 1;                  // store group 1
  ASSERT_TRUE(p.engine->InjectBatch(0, a_keys.data(), 10).ok());
  ASSERT_TRUE(p.engine->InjectBatch(0, b_keys.data(), 10).ok());
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());
  const std::string sound = p.sink.SerializeGroupState(0);
  const uint64_t seq = p.engine->replay_log(a).next_seq();
  ASSERT_TRUE(p.cstore.Put(a, seq, sound.substr(0, 3)).ok());

  const NodeId a_from = p.engine->assignment().node_of(a);
  const NodeId b_to = (p.engine->assignment().node_of(b) + 1) % kStoreNodes;
  ASSERT_TRUE(
      p.engine->StartMigration(a, (a_from + 1) % kStoreNodes, mode).ok());
  ASSERT_TRUE(p.engine->StartMigration(b, b_to, mode).ok());
  // In-flight input for both groups, buffered by the indirect moves.
  ASSERT_TRUE(p.engine->InjectBatch(0, a_keys.data() + 10, 10).ok());
  ASSERT_TRUE(p.engine->InjectBatch(0, b_keys.data() + 10, 10).ok());
  p.engine->Flush();

  const auto b_pause = p.engine->FinishMigration(b);
  EXPECT_TRUE(b_pause.ok()) << b_pause.status().ToString();
  EXPECT_EQ(p.engine->assignment().node_of(b), b_to);
  const auto a_pause = p.engine->FinishMigration(a);
  EXPECT_EQ(a_pause.status().code(), StatusCode::kOutOfRange)
      << a_pause.status().ToString();
  EXPECT_EQ(p.engine->lost_groups(), std::vector<KeyGroupId>{a});
  EXPECT_EQ(p.engine->assignment().node_of(a), a_from)
      << "a failed rebuild must not flip ownership";

  // Lost, not live on a wiped state: new input for A buffers.
  ASSERT_TRUE(p.engine->InjectBatch(0, a_keys.data() + 20, 10).ok());
  p.engine->Flush();
  EXPECT_EQ(p.sink.ValueFor(0, a_keys[20].key), 0.0);

  ASSERT_TRUE(p.cstore.Put(a, seq, sound).ok());
  const auto recovered = p.engine->RecoverGroup(a, a_from);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  p.engine->Flush();
  EXPECT_TRUE(p.engine->lost_groups().empty());
  EXPECT_EQ(p.SinkStates(), baseline.SinkStates());
  EXPECT_EQ(p.engine->HarvestPeriod().tuples_processed, baseline_processed);
}

TEST(MigrationModeContractTest, FailedRoundTripWithoutCheckpointingIsLost) {
  // The live round-trip obeys the same rule, with no checkpoint subsystem
  // at all: an operator that cannot read its own state image fails the
  // direct move, which reports the error and leaves the group lost rather
  // than live on a wiped state. With nothing to restore from, recovery is
  // refused with a Status.
  struct UnreadableStore : ops::StoreSinkOperator {
    using ops::StoreSinkOperator::StoreSinkOperator;
    Status DeserializeGroupState(int, const std::string&) override {
      return Status::Internal("unreadable state image");
    }
  };
  engine::Topology topo;
  topo.AddOperator("src", 1);
  topo.AddOperator("store", kStoreGroups, 1 << 14);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  engine::Cluster cluster(kStoreNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kStoreNodes);
  }
  UnreadableStore sink(kStoreGroups);
  engine::LocalEngineOptions opts;
  opts.window_every_us = 0;
  engine::LocalEngine engine(
      &topo, &cluster, assign,
      std::vector<engine::StreamOperator*>{nullptr, &sink}, opts);

  const std::vector<Tuple> keys = KeysFor(0, 2);
  ASSERT_TRUE(engine.InjectBatch(0, keys.data(), 1).ok());
  engine.Flush();
  const KeyGroupId group = topo.first_group(1);
  const NodeId from = engine.assignment().node_of(group);
  const Status moved = engine.MigrateGroup(group, (from + 1) % kStoreNodes);
  EXPECT_EQ(moved.code(), StatusCode::kInternal) << moved.ToString();
  EXPECT_EQ(engine.lost_groups(), std::vector<KeyGroupId>{group});
  EXPECT_EQ(engine.assignment().node_of(group), from);
  ASSERT_TRUE(engine.InjectBatch(0, &keys[1], 1).ok());
  engine.Flush();
  EXPECT_EQ(sink.ValueFor(0, keys[1].key), 0.0);  // buffered, not applied
  const auto recovered = engine.RecoverGroup(group, from);
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument)
      << recovered.status().ToString();
}

TEST(MigrationModeContractTest, SecondStartOnMigratingGroupIsRejected) {
  StorePipeline p;
  const KeyGroupId group = p.topo.first_group(1);
  const NodeId from = p.engine->assignment().node_of(group);
  for (const MigrationMode mode : AllModes()) {
    ASSERT_TRUE(
        p.engine->StartMigration(group, (from + 1) % kStoreNodes, mode).ok());
    // Every re-Start on the open migration is rejected, whatever mode the
    // second request asks for.
    for (const MigrationMode second : AllModes()) {
      const Status s =
          p.engine->StartMigration(group, (from + 2) % kStoreNodes, second);
      EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << s.ToString();
    }
    ASSERT_TRUE(p.engine->FinishMigration(group).ok());
    // Round-trip the group home so every iteration starts identically.
    ASSERT_TRUE(
        p.engine->MigrateGroup(group, from, MigrationMode::kDirect).ok());
  }
}

}  // namespace
}  // namespace albic
