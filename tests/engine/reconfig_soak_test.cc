// Randomized reconfiguration soak: a seeded fuzz schedule of direct,
// indirect and lease migrations plus node failures, interleaved
// with sharded ingestion on a wide cluster, differentially
// checked against a single-node no-reconfiguration oracle. Node kills can
// land while a migration of any mode is still open (its source owns the
// group until FinishMigration), so the schedule exercises the
// cancelled-toward-victim, lost-with-victim and survived-the-kill paths of
// every mode. Every seed must produce bit-identical canonical state and
// windowed output — reconfiguration is supposed to be invisible to the
// computation, whatever the schedule.
//
// Seed count defaults to 96 and can be changed via ALBIC_SOAK_SEEDS; every
// assertion prints the failing seed so a counterexample replays directly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
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

constexpr int kNodes = 6;
constexpr int kGroupsPerOp = 8;
constexpr int kShards = 3;
constexpr int kTuplesPerSeed = 9000;
constexpr int64_t kWindowUs = 500LL * 1000;
// A chunk never spans a window boundary (so cross-group reordering inside
// one routed chunk cannot change any window's contents) and is capped so a
// window contributes several fuzz action points, not one.
constexpr size_t kMaxChunk = 400;

/// The engine anchors window boundaries at the first tuple it ever sees and
/// fires at anchor + k * window — windows are NOT absolute ts buckets. All
/// window math in the schedule must use the same anchored index.
int64_t WindowIndex(int64_t ts, int64_t anchor) {
  return (ts - anchor) / kWindowUs;
}

int SeedCount() {
  const char* env = std::getenv("ALBIC_SOAK_SEEDS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 96;
}

/// Cuts \p stream into chunks that never cross an (anchored) window
/// boundary.
std::vector<std::pair<size_t, size_t>> CutChunks(
    const std::vector<Tuple>& stream) {
  const int64_t anchor = stream[0].ts;
  std::vector<std::pair<size_t, size_t>> chunks;
  size_t begin = 0;
  for (size_t i = 1; i <= stream.size(); ++i) {
    const bool boundary =
        i == stream.size() ||
        WindowIndex(stream[i].ts, anchor) !=
            WindowIndex(stream[begin].ts, anchor);
    if (boundary || i - begin >= kMaxChunk) {
      chunks.emplace_back(begin, i);
      begin = i;
    }
  }
  return chunks;
}

/// Sharded ingestion of one chunk: bucket by source key group (preserving
/// per-group stream order) and feed each run through the routed entry
/// point, as an ingestion shard would.
void InjectChunkRouted(ReconfigPipeline* p, const std::vector<Tuple>& stream,
                       size_t begin, size_t end) {
  std::vector<std::vector<Tuple>> buckets(kGroupsPerOp);
  for (size_t i = begin; i < end; ++i) {
    buckets[engine::LocalEngine::RouteKey(stream[i].key, kGroupsPerOp)]
        .push_back(stream[i]);
  }
  // Inject the chunk's leading group first: the very first routed run sets
  // the engine's window anchor from its first tuple, which must be
  // stream[0] to match the oracle's bulk ingest.
  const int lead =
      static_cast<int>(engine::LocalEngine::RouteKey(stream[begin].key,
                                                     kGroupsPerOp));
  for (int i = 0; i < kGroupsPerOp; ++i) {
    const int g = (lead + i) % kGroupsPerOp;
    if (buckets[g].empty()) continue;
    ASSERT_TRUE(p->engine
                    ->InjectRouted(0, /*shard=*/g % kShards, g,
                                   buckets[g].data(), buckets[g].size())
                    .ok());
  }
}

/// One full fuzzed run for \p seed, differentially checked at the end.
void RunSoak(uint64_t seed) {
  const std::string label = "seed " + std::to_string(seed);
  const std::vector<Tuple> stream = MakeWikiStream(
      kTuplesPerSeed, /*articles=*/250,
      /*seed=*/static_cast<int>(101 + seed), /*rate=*/2000.0);
  const std::vector<std::pair<size_t, size_t>> chunks = CutChunks(stream);

  // Oracle: one node, one worker, no reconfiguration, plain bulk ingest.
  ReconfigOptions oracle_opts;
  oracle_opts.nodes = 1;
  oracle_opts.groups = kGroupsPerOp;
  oracle_opts.window_every_us = kWindowUs;
  ReconfigPipeline oracle(oracle_opts);
  ASSERT_TRUE(oracle.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  oracle.engine->Flush();

  // Fuzzed run: wide cluster, checkpointing with delta chains.
  // The registry rides along so the run double-checks the observability
  // blind-spot contract: every counter a run with traffic must move is
  // asserted nonzero below (a zero means publishing silently broke).
  MetricsRegistry registry;
  ReconfigOptions fuzz_opts;
  fuzz_opts.nodes = kNodes;
  fuzz_opts.groups = kGroupsPerOp;
  fuzz_opts.window_every_us = kWindowUs;
  fuzz_opts.metrics = &registry;
  ReconfigPipeline fuzz(fuzz_opts);
  engine::CheckpointCoordinatorOptions copts;
  // Far below the window. A TopK group declines a delta once a fire is in
  // its log, and GeoHash has no delta support, so only a round between two
  // fires writes deltas. Rounds run at safe points, which come mostly at
  // window boundaries; a short interval takes every mid-window one that a
  // migration adds.
  copts.interval_us = 50LL * 1000;
  copts.max_delta_chain = 4;
  fuzz.EnableCheckpointing(copts);

  Rng rng(seed * 7919 + 17);
  KeyGroupId open_group = -1;  // migration started, Finish pending
  NodeId open_to = -1;         // its target node
  int migrations = 0;
  int kills = 0;
  int64_t groups_lost = 0;  // groups the kills took down, each recovered
  for (size_t c = 0; c < chunks.size(); ++c) {
    const uint64_t action = rng.NextU64() % 100;
    const bool kill_action = action >= 35 && action < 45 &&
                             fuzz.cluster.num_active() > 3;
    // A kill deliberately races any still-open migration (the branch below
    // resolves what the failure did to it); every other action first closes
    // the previous chunk's open move.
    if (open_group >= 0 && !kill_action) {
      const auto pause = fuzz.engine->FinishMigration(open_group);
      ASSERT_TRUE(pause.ok()) << label << ": " << pause.status().ToString();
      open_group = -1;
    }
    if (action < 35) {
      // Random migration of a random group in a random mode; half the time
      // it stays open across the next chunk's ingestion (the in-flight
      // window a controller-applied move exposes to live traffic).
      const KeyGroupId g = static_cast<KeyGroupId>(
          rng.NextU64() %
          static_cast<uint64_t>(fuzz.topo.num_key_groups()));
      const NodeId from = fuzz.engine->assignment().node_of(g);
      NodeId to = static_cast<NodeId>(rng.NextU64() %
                                      static_cast<uint64_t>(kNodes));
      while (!fuzz.cluster.is_active(to) || to == from) {
        to = (to + 1) % kNodes;
      }
      const MigrationMode mode = static_cast<MigrationMode>(
          rng.NextU64() % static_cast<uint64_t>(engine::kNumMigrationModes));
      ASSERT_TRUE(fuzz.engine->StartMigration(g, to, mode).ok()) << label;
      ++migrations;
      // An open migration must not span a window boundary: a direct or
      // indirect move buffers the group's tuples, and a window firing over
      // that hole would close without them. Lease moves do not buffer, but
      // the schedule keeps one rule for every mode. The migration may stay
      // open across this chunk's ingestion only if the chunk cannot fire a
      // window, i.e. it continues the window of the tuple before it.
      const size_t begin = chunks[c].first;
      const bool fires_window =
          begin > 0 &&
          WindowIndex(stream[begin].ts, stream[0].ts) !=
              WindowIndex(stream[begin - 1].ts, stream[0].ts);
      if (!fires_window && rng.NextU64() % 2 == 0) {
        open_group = g;
        open_to = to;
      } else {
        const auto pause = fuzz.engine->FinishMigration(g);
        ASSERT_TRUE(pause.ok()) << label << ": " << pause.status().ToString();
      }
    } else if (kill_action) {
      // Abrupt node failure followed by eager recovery of every lost group
      // onto the lowest-numbered survivor — deterministic for the seed. If
      // a migration is still open the kill races it: a move toward the
      // victim is cancelled by FailNode, a group whose owner died is lost
      // (and recovered below), and a move the failure didn't touch stays
      // finishable. Every mode changes owner only at FinishMigration, so
      // an open move's owner is its source, whatever ran since Start.
      NodeId victim = static_cast<NodeId>(rng.NextU64() %
                                          static_cast<uint64_t>(kNodes));
      while (!fuzz.cluster.is_active(victim)) victim = (victim + 1) % kNodes;
      const bool open_survives =
          open_group >= 0 && open_to != victim &&
          fuzz.engine->assignment().node_of(open_group) != victim;
      ASSERT_TRUE(fuzz.engine->FailNode(victim).ok()) << label;
      ASSERT_TRUE(fuzz.cluster.Fail(victim).ok()) << label;
      ++kills;
      if (open_group >= 0) {
        if (open_survives) {
          // Neither endpoint died: the move must still complete normally
          // (before this chunk ingests, to keep the window rule).
          const auto pause = fuzz.engine->FinishMigration(open_group);
          ASSERT_TRUE(pause.ok())
              << label << ": " << pause.status().ToString();
        } else {
          // Cancelled (target died) or lost (owner died): the move never
          // completes, so it never publishes to engine_migrations_total —
          // keep the published-vs-completed invariant below exact.
          --migrations;
        }
        open_group = -1;
        open_to = -1;
      }
      NodeId target = 0;
      while (!fuzz.cluster.is_active(target)) ++target;
      // Copy: RecoverGroup prunes the engine's lost list as it succeeds.
      const std::vector<KeyGroupId> lost = fuzz.engine->lost_groups();
      groups_lost += static_cast<int64_t>(lost.size());
      for (const KeyGroupId g : lost) {
        const auto rec = fuzz.engine->RecoverGroup(g, target);
        ASSERT_TRUE(rec.ok()) << label << ": " << rec.status().ToString();
      }
      ASSERT_TRUE(fuzz.engine->lost_groups().empty()) << label;
    }
    InjectChunkRouted(&fuzz, stream, chunks[c].first, chunks[c].second);
  }
  if (open_group >= 0) {
    ASSERT_TRUE(fuzz.engine->FinishMigration(open_group).ok()) << label;
  }
  fuzz.engine->Flush();

  // The schedule must have actually reconfigured something.
  EXPECT_GT(migrations + kills, 0) << label;
  testing::ExpectSameOutputs(&fuzz, &oracle, label);
  // And nothing may have been dropped: both pipelines processed the same
  // number of tuple deliveries across all hops.
  const int64_t fuzz_processed = fuzz.engine->HarvestPeriod().tuples_processed;
  const int64_t oracle_processed =
      oracle.engine->HarvestPeriod().tuples_processed;
  EXPECT_EQ(fuzz_processed, oracle_processed) << label;

  // Blind-spot guard: traffic flowed and reconfiguration happened, so the
  // engine's registry counters must all be live. A zero here means a
  // publishing path silently dropped out.
  EXPECT_EQ(registry.Counter("engine_tuples_processed_total")->value(),
            fuzz_processed)
      << label;
  EXPECT_GT(registry.Counter("engine_waves_total")->value(), 0) << label;
  EXPECT_GT(registry.Gauge("engine_mailbox_highwater")->value(), 0) << label;
  EXPECT_GT(registry.Counter("engine_checkpoints_total")->value(), 0)
      << label;
  EXPECT_GT(registry.Counter("engine_checkpoint_delta_groups_total")->value(),
            0)
      << label;
  int64_t migrations_published = 0;
  for (int m = 0; m < engine::kNumMigrationModes; ++m) {
    migrations_published +=
        registry
            .Counter("engine_migrations_total",
                     {{"mode", engine::MigrationModeName(
                                   static_cast<MigrationMode>(m))}})
            ->value();
  }
  EXPECT_EQ(migrations_published, migrations) << label;
  // Exactly the groups the kills took down were recovered, each once. A
  // victim that owned no group loses none, so a kill alone proves nothing.
  EXPECT_EQ(registry.Counter("engine_groups_recovered_total")->value(),
            groups_lost)
      << label;
}

TEST(ReconfigSoakTest, RandomScheduleMatchesOracleBitForBit) {
  const int seeds = SeedCount();
  for (int s = 0; s < seeds; ++s) {
    RunSoak(static_cast<uint64_t>(s));
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "soak diverged at seed " << s;
    }
  }
}

}  // namespace
}  // namespace albic
