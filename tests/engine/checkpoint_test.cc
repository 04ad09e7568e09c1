// Checkpoint subsystem: stores (memory + file), replay logs, the
// coordinator's incremental rounds, and the three integrative guarantees —
// (a) checkpoint + replay reconstruction is bit-identical to live state,
// (b) indirect migration produces outputs identical to direct migration,
// (c) recovery after a mid-stream node kill loses zero tuples and matches
// the no-failure run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/store.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::CheckpointCoordinator;
using engine::CheckpointCoordinatorOptions;
using engine::CheckpointInfo;
using engine::CheckpointManifest;
using engine::KeyGroupId;
using engine::MemoryCheckpointStore;
using engine::NodeId;
using engine::ReplayLog;
using engine::Tuple;

constexpr int kNodes = 4;
constexpr int kGroups = 8;
constexpr int64_t kWindowUs = 60LL * 1000 * 1000;

/// The Real Job 1 pipeline over the batched runtime, with optional
/// checkpointing (mirrors tests/integration/wiki_pipeline_test.cc).
struct Pipeline {
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{kGroups, 256};
  ops::WindowedTopKOperator topk{kGroups, 64};
  ops::WindowedTopKOperator global{kGroups, 64, ops::TopKCountMode::kSumNum};
  MemoryCheckpointStore store;
  std::unique_ptr<CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;

  Pipeline() {
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
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global}, opts);
  }

  void EnableCheckpointing(CheckpointCoordinatorOptions copts = {}) {
    coordinator = std::make_unique<CheckpointCoordinator>(&store, copts);
    ASSERT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
  }

  engine::StreamOperator* op(engine::OperatorId id) {
    engine::StreamOperator* ops[] = {&geohash, &topk, &global};
    return ops[id];
  }

  /// Canonical serialized state of a global key group.
  std::string StateOf(KeyGroupId g) {
    return op(topo.group_operator(g))
        ->SerializeGroupState(topo.group_index_in_operator(g));
  }

  /// Edit counts per article in the last closed window, merged over the
  /// global groups.
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

std::vector<Tuple> MakeStream(int tuples, int articles = 300, int seed = 101,
                              double rate = 400.0) {
  workload::WikipediaEditStream edits(articles, seed, rate);
  std::vector<Tuple> out;
  out.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) out.push_back(edits.Next());
  return out;
}

// ---------------------------------------------------------------------------
// ReplayLog
// ---------------------------------------------------------------------------

/// Replays a log into a readable trace: "t<key>" per tuple, "W" per fire.
std::string TraceFrom(const ReplayLog& log, uint64_t from_seq) {
  std::string out;
  log.ReplayFrom(
      from_seq,
      [&](const Tuple& t) {
        out.push_back('t');
        out.append(std::to_string(t.key));
      },
      [&] { out.push_back('W'); });
  return out;
}

TEST(ReplayLogTest, SequencesTruncationAndReplayOrder) {
  ReplayLog log;
  EXPECT_EQ(log.next_seq(), 0u);
  EXPECT_TRUE(log.empty());
  Tuple t;
  t.key = 7;
  log.AppendChunk({t});    // seq 0
  log.AppendWindowFire();  // seq 1
  std::vector<Tuple> run(2);
  run[0].key = 8;
  run[1].key = 9;
  const Tuple* run_data = run.data();
  log.AppendChunk(std::move(run));  // seqs 2, 3: the log takes the vector
  log.AppendWindowFire();           // seq 4
  EXPECT_EQ(log.next_seq(), 5u);
  EXPECT_EQ(log.base_seq(), 0u);
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.tuple_count(), 3u);
  EXPECT_EQ(log.window_fire_count(), 2u);
  EXPECT_EQ(TraceFrom(log, 0), "t7Wt8t9W");
  EXPECT_EQ(TraceFrom(log, 1), "Wt8t9W");
  EXPECT_EQ(TraceFrom(log, 3), "t9W");

  // Truncation hands back exactly the chunk vectors it fully consumed.
  std::vector<std::vector<Tuple>> freed;
  log.TruncateBefore(2, &freed);
  EXPECT_EQ(log.base_seq(), 2u);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(TraceFrom(log, 0), "t8t9W");  // clamped to base_seq
  ASSERT_EQ(freed.size(), 1u);
  ASSERT_EQ(freed[0].size(), 1u);
  EXPECT_EQ(freed[0][0].key, 7u);
  // Truncating to an already-dropped point is a no-op.
  log.TruncateBefore(1, &freed);
  EXPECT_EQ(log.base_seq(), 2u);
  EXPECT_EQ(freed.size(), 1u);
  // Truncating inside a multi-tuple chunk skips its consumed front and
  // keeps the chunk.
  log.TruncateBefore(3, &freed);
  EXPECT_EQ(log.base_seq(), 3u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.tuple_count(), 1u);
  EXPECT_EQ(TraceFrom(log, 0), "t9W");
  EXPECT_EQ(TraceFrom(log, 4), "W");
  EXPECT_EQ(freed.size(), 1u);
  // Truncating past the end empties the log but keeps the counter, and
  // frees the partly skipped chunk whole: the very vector appended.
  log.TruncateBefore(100, &freed);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.next_seq(), 5u);
  EXPECT_EQ(log.base_seq(), 5u);
  EXPECT_EQ(TraceFrom(log, 0), "");
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(freed[1].data(), run_data);
  ASSERT_EQ(freed[1].size(), 2u);
  EXPECT_EQ(freed[1][0].key, 8u);
  EXPECT_EQ(freed[1][1].key, 9u);
}

// ---------------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------------

TEST(MemoryCheckpointStoreTest, VersionsAndRetention) {
  MemoryCheckpointStore store(/*retain_versions=*/2);
  auto v1 = store.Put(3, /*seq=*/10, "one");
  auto v2 = store.Put(3, /*seq=*/20, "two");
  auto v3 = store.Put(3, /*seq=*/30, "three");
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  EXPECT_EQ(v1->version, 1u);
  EXPECT_EQ(v3->version, 3u);

  CheckpointInfo info;
  std::string state;
  ASSERT_TRUE(store.Latest(3, &info, &state));
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.seq, 30u);
  EXPECT_EQ(state, "three");
  // Version 2 is retained, version 1 was evicted.
  EXPECT_TRUE(store.Get(3, 2, &info, &state));
  EXPECT_EQ(state, "two");
  EXPECT_FALSE(store.Get(3, 1, nullptr, nullptr));
  EXPECT_FALSE(store.Latest(4, nullptr, nullptr));
  EXPECT_EQ(store.puts(), 3);
  EXPECT_EQ(store.stored_bytes(),
            static_cast<int64_t>(std::string("two").size() +
                                 std::string("three").size()));

  CheckpointManifest manifest;
  manifest.epoch = 9;
  manifest.shard_offsets = {100, 200};
  ASSERT_TRUE(store.PutManifest(manifest).ok());
  CheckpointManifest read;
  ASSERT_TRUE(store.LatestManifest(&read));
  EXPECT_EQ(read.epoch, 9u);
  EXPECT_EQ(read.shard_offsets, (std::vector<int64_t>{100, 200}));
}

TEST(MemoryCheckpointStoreTest, DeltaChainsAndChainUnitRetention) {
  MemoryCheckpointStore store(/*retain_versions=*/2);
  // A delta needs a base to chain onto.
  EXPECT_FALSE(store.PutDelta(1, 0, "d").ok());

  ASSERT_TRUE(store.Put(1, /*seq=*/0, "base1").ok());
  ASSERT_TRUE(store.PutDelta(1, /*seq=*/5, "d1").ok());
  ASSERT_TRUE(store.PutDelta(1, /*seq=*/9, "d2").ok());
  EXPECT_EQ(store.delta_puts(), 2);
  EXPECT_EQ(store.ChainDeltaBytes(1), 4u);  // "d1" + "d2"

  // Latest is the raw newest record; LatestChain materializes the chain.
  CheckpointInfo info;
  std::string state;
  ASSERT_TRUE(store.Latest(1, &info, &state));
  EXPECT_TRUE(info.is_delta);
  EXPECT_EQ(state, "d2");
  std::string base;
  std::vector<std::string> deltas;
  ASSERT_TRUE(store.LatestChain(1, &info, &base, &deltas));
  EXPECT_EQ(info.seq, 9u);
  EXPECT_TRUE(info.is_delta);
  EXPECT_EQ(base, "base1");
  EXPECT_EQ(deltas, (std::vector<std::string>{"d1", "d2"}));

  // A fresh base starts a new chain; ChainDeltaBytes resets with it.
  ASSERT_TRUE(store.Put(1, /*seq=*/12, "base2").ok());
  EXPECT_EQ(store.ChainDeltaBytes(1), 0u);
  ASSERT_TRUE(store.PutDelta(1, /*seq=*/14, "d3").ok());

  // Retention counts chains: the third base evicts the whole first chain
  // (base1 AND its deltas — evicting only part would orphan the rest).
  ASSERT_TRUE(store.Put(1, /*seq=*/20, "base3").ok());
  EXPECT_FALSE(store.Get(1, 1, nullptr, nullptr));  // base1 gone
  EXPECT_FALSE(store.Get(1, 2, nullptr, nullptr));  // d1 gone
  EXPECT_FALSE(store.Get(1, 3, nullptr, nullptr));  // d2 gone
  ASSERT_TRUE(store.Get(1, 4, nullptr, &state));    // base2 retained
  EXPECT_EQ(state, "base2");
  ASSERT_TRUE(store.LatestChain(1, &info, &base, &deltas));
  EXPECT_EQ(base, "base3");
  EXPECT_TRUE(deltas.empty());
  EXPECT_FALSE(info.is_delta);
}

TEST(FileCheckpointStoreTest, RoundTripAndReopen) {
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_store_test";
  std::filesystem::remove_all(dir);
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put(1, 5, "alpha").ok());
    ASSERT_TRUE((*store)->Put(1, 9, "beta").ok());
    ASSERT_TRUE((*store)->Put(2, 4, "gamma").ok());
    ASSERT_TRUE((*store)->Put(1, 12, "delta").ok());  // evicts "alpha"
    CheckpointManifest manifest;
    manifest.epoch = 3;
    manifest.shard_offsets = {42, 7};
    ASSERT_TRUE((*store)->PutManifest(manifest).ok());
  }
  // Reopen: the on-disk snapshots are re-indexed (restart recovery).
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CheckpointInfo info;
  std::string state;
  ASSERT_TRUE((*store)->Latest(1, &info, &state));
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.seq, 12u);
  EXPECT_EQ(state, "delta");
  ASSERT_TRUE((*store)->Get(1, 2, &info, &state));
  EXPECT_EQ(state, "beta");
  EXPECT_FALSE((*store)->Get(1, 1, nullptr, nullptr));  // evicted from disk
  ASSERT_TRUE((*store)->Latest(2, &info, &state));
  EXPECT_EQ(state, "gamma");
  CheckpointManifest read;
  ASSERT_TRUE((*store)->LatestManifest(&read));
  EXPECT_EQ(read.epoch, 3u);
  EXPECT_EQ(read.shard_offsets, (std::vector<int64_t>{42, 7}));
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, DeltaChainSurvivesReopenBitIdentical) {
  // Kill-mid-chain restart: a base + two deltas written through a real
  // operator, the process "dies" (store closed), the directory is reopened
  // and the chain replayed onto a fresh operator — the restored state must
  // be bit-identical to the live one.
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_delta_chain_test";
  std::filesystem::remove_all(dir);

  ops::StoreSinkOperator live(1);
  ReplayLog log;  // what the engine logs for the group
  auto feed = [&](uint64_t key, double num) {
    Tuple t;
    t.key = key;
    t.num = num;
    live.Process(t, 0, nullptr);
    log.AppendChunk({t});
  };
  // A record covers the log up to here: truncate, as a checkpoint round does.
  auto covered = [&] { log.TruncateBefore(log.next_seq()); };

  std::string base, d1, d2;
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (uint64_t k = 1; k <= 50; ++k) feed(k, 0.5 * static_cast<double>(k));
    base = live.SerializeGroupState(0);
    ASSERT_TRUE((*store)->Put(7, /*seq=*/50, base).ok());
    covered();

    feed(3, 99.0);    // overwrite
    feed(60, 1.25);   // new key
    ASSERT_TRUE(live.SerializeGroupDelta(0, log, &d1));
    ASSERT_TRUE((*store)->PutDelta(7, /*seq=*/52, d1).ok());
    covered();

    feed(60, 2.5);
    feed(61, -4.0);
    ASSERT_TRUE(live.SerializeGroupDelta(0, log, &d2));
    ASSERT_TRUE((*store)->PutDelta(7, /*seq=*/54, d2).ok());
    covered();
    // Deltas are far smaller than the table they describe.
    EXPECT_LT(d1.size(), base.size() / 4);
  }

  // Reopen: base and delta records are re-indexed with their kinds intact.
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CheckpointInfo info;
  std::string got_base;
  std::vector<std::string> deltas;
  ASSERT_TRUE((*store)->LatestChain(7, &info, &got_base, &deltas));
  EXPECT_EQ(info.seq, 54u);
  EXPECT_TRUE(info.is_delta);
  EXPECT_EQ(got_base, base);
  EXPECT_EQ(deltas, (std::vector<std::string>{d1, d2}));
  EXPECT_EQ((*store)->ChainDeltaBytes(7), d1.size() + d2.size());

  ops::StoreSinkOperator recovered(1);
  ASSERT_TRUE(recovered.DeserializeGroupState(0, got_base).ok());
  for (const std::string& d : deltas) {
    ASSERT_TRUE(recovered.ApplyGroupDelta(0, d).ok());
  }
  EXPECT_EQ(recovered.SerializeGroupState(0), live.SerializeGroupState(0));
  std::filesystem::remove_all(dir);
}

/// Overwrites the u64 at \p offset of \p path. Record and manifest headers
/// are three u64s (magic, seq or epoch, length), so the length is at 16.
void PatchU64(const std::string& path, std::streamoff offset, uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
  ASSERT_TRUE(f.good()) << path;
}

TEST(FileCheckpointStoreTest, OversizedRecordLengthIsRejected) {
  // A record header whose length field claims far more than the file
  // holds must read as a missing record, not size a 4 TiB buffer.
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_oversized_record_test";
  std::filesystem::remove_all(dir);
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put(1, 5, "alpha").ok());
  }
  PatchU64(dir + "/g1_v1.ckpt", 16, uint64_t{1} << 42);
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CheckpointInfo info;
  std::string state;
  std::vector<std::string> deltas;
  EXPECT_FALSE((*store)->Latest(1, &info, &state));
  EXPECT_FALSE((*store)->LatestChain(1, &info, &state, &deltas));
  // One byte short of the payload is a mismatch too.
  PatchU64(dir + "/g1_v1.ckpt", 16, 4);
  EXPECT_FALSE((*store)->Get(1, 1, &info, &state));
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, OversizedManifestCountIsRejected) {
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_oversized_manifest_test";
  std::filesystem::remove_all(dir);
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  CheckpointManifest manifest;
  manifest.epoch = 3;
  manifest.shard_offsets = {42, 7};
  ASSERT_TRUE((*store)->PutManifest(manifest).ok());
  CheckpointManifest read;
  ASSERT_TRUE((*store)->LatestManifest(&read));
  // A shard count of 2^42 asks for 32 TiB of offsets; 2^61 makes n * 8
  // wrap to zero. Neither may allocate, and neither is a manifest.
  PatchU64(dir + "/MANIFEST", 16, uint64_t{1} << 42);
  EXPECT_FALSE((*store)->LatestManifest(&read));
  PatchU64(dir + "/MANIFEST", 16, uint64_t{1} << 61);
  EXPECT_FALSE((*store)->LatestManifest(&read));
  EXPECT_EQ(read.shard_offsets, (std::vector<int64_t>{42, 7}));
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, ReopenFallsBackPastDeltasThatLostTheirBase) {
  // Delta v4 was written against base v3. With v3 unreadable, v4 belongs
  // to no chain: chaining it onto v1 + [v2] would restore a state that
  // never existed. The group falls back to its previous intact chain.
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_orphan_delta_test";
  std::filesystem::remove_all(dir);
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put(1, /*seq=*/10, "base1").ok());
    ASSERT_TRUE((*store)->PutDelta(1, /*seq=*/20, "d2").ok());
    ASSERT_TRUE((*store)->Put(1, /*seq=*/30, "base3").ok());
    ASSERT_TRUE((*store)->PutDelta(1, /*seq=*/40, "d4").ok());
  }
  PatchU64(dir + "/g1_v3.ckpt", 0, 0);  // v3's magic no longer matches
  CheckpointInfo info;
  std::string base;
  std::vector<std::string> deltas;
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->LatestChain(1, &info, &base, &deltas));
    EXPECT_EQ(info.version, 2u);
    EXPECT_EQ(info.seq, 20u);
    EXPECT_EQ(base, "base1");
    EXPECT_EQ(deltas, (std::vector<std::string>{"d2"}));
    EXPECT_EQ((*store)->ChainDeltaBytes(1), 2u);
    EXPECT_EQ((*store)->stored_bytes(), 7);  // "base1" + "d2"
    // The next base reuses version 3.
    auto v3 = (*store)->Put(1, /*seq=*/50, "base5");
    ASSERT_TRUE(v3.ok());
    EXPECT_EQ(v3->version, 3u);
  }
  // Reopened once more, the stale v4 must not chain onto the new v3.
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->LatestChain(1, &info, &base, &deltas));
  EXPECT_EQ(info.version, 3u);
  EXPECT_EQ(info.seq, 50u);
  EXPECT_EQ(base, "base5");
  EXPECT_TRUE(deltas.empty());
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, ReopenSkipsTornRecords) {
  // A crash mid-write leaves a record shorter than its header's length.
  // Indexed, it would be the group's newest base, and every read of the
  // group would fail; skipped, the previous intact chain restores.
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_torn_record_test";
  std::filesystem::remove_all(dir);
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put(1, /*seq=*/10, "base1").ok());
    ASSERT_TRUE((*store)->Put(1, /*seq=*/20, "base2-long").ok());
  }
  constexpr uint64_t kHeaderBytes = 24;  // magic, seq, length
  std::filesystem::resize_file(dir + "/g1_v2.ckpt", kHeaderBytes + 4);
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->stored_bytes(), 5);  // "base1"
  CheckpointInfo info;
  std::string base;
  std::vector<std::string> deltas;
  ASSERT_TRUE((*store)->LatestChain(1, &info, &base, &deltas));
  EXPECT_EQ(info.version, 1u);
  EXPECT_EQ(info.seq, 10u);
  EXPECT_EQ(base, "base1");
  EXPECT_TRUE(deltas.empty());
  std::filesystem::remove_all(dir);
}

TEST(FileCheckpointStoreTest, ReopenIndexesExactRecordNamesOnly) {
  // sscanf ignores trailing text and leading zeros, so a backup copy or a
  // leftover temp file (g1_v2.ckpt.bak) or an alias (g01_v2.ckpt) parsed
  // as a record: a second v2, whose eviction deleted the real one.
  const std::string dir =
      ::testing::TempDir() + "/albic_file_ckpt_stray_name_test";
  std::filesystem::remove_all(dir);
  {
    auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Put(1, /*seq=*/10, "aaaaa").ok());
    ASSERT_TRUE((*store)->Put(1, /*seq=*/20, "bbbbb").ok());
  }
  for (const char* stray : {"g1_v2.ckpt.bak", "g1_v02.ckpt", "g01_v2.ckpt"}) {
    std::filesystem::copy_file(dir + "/g1_v2.ckpt", dir + "/" + stray);
  }
  auto store = engine::FileCheckpointStore::Open(dir, /*retain_versions=*/2);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->stored_bytes(), 10);
  // v3 evicts v1 alone; v2 stays retained, on disk and readable.
  ASSERT_TRUE((*store)->Put(1, /*seq=*/30, "ccccc").ok());
  EXPECT_EQ((*store)->stored_bytes(), 10);
  EXPECT_FALSE((*store)->Get(1, 1, nullptr, nullptr));
  std::string state;
  ASSERT_TRUE((*store)->Get(1, 2, nullptr, &state));
  EXPECT_EQ(state, "bbbbb");
  ASSERT_TRUE((*store)->Latest(1, nullptr, &state));
  EXPECT_EQ(state, "ccccc");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Coordinator + engine integration
// ---------------------------------------------------------------------------

TEST(CheckpointCoordinatorTest, IncrementalRoundsOnlySnapshotDirtyGroups) {
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 10LL * 1000 * 1000;
  p.EnableCheckpointing(copts);
  // The initial full round snapshots every operator group.
  EXPECT_EQ(p.coordinator->stats().rounds, 1);
  EXPECT_EQ(p.coordinator->stats().snapshots, 3 * kGroups);

  const std::vector<Tuple> stream = MakeStream(30000);
  for (const Tuple& t : stream) ASSERT_TRUE(p.engine->Inject(0, t).ok());
  p.engine->Flush();
  EXPECT_GT(p.coordinator->stats().rounds, 2);
  // Incremental: later rounds write fewer snapshots than rounds * groups
  // would (clean groups are skipped). With this stream all groups see
  // traffic every 10 s, so just check the mechanism produced more than the
  // initial round and the logs were truncated by the last round.
  EXPECT_GT(p.coordinator->stats().snapshots, 3 * kGroups);
  EXPECT_GT(p.store.puts(), 0);
}

TEST(CheckpointCoordinatorTest, LogOverflowForcesARound) {
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 1LL << 60;  // never due by time
  copts.max_log_entries = 64;
  p.EnableCheckpointing(copts);
  const std::vector<Tuple> stream = MakeStream(20000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  EXPECT_GT(p.coordinator->stats().forced_rounds, 0);
  // The soft bound keeps every log from growing unboundedly: after the
  // final drain + forced rounds, no log retains the whole stream.
  for (KeyGroupId g = 0; g < p.topo.num_key_groups(); ++g) {
    EXPECT_LT(p.engine->replay_log(g).size(), 20000u) << "group " << g;
  }
}

TEST(CheckpointCoordinatorTest, ManifestRecordsShardOffsets) {
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 5LL * 1000 * 1000;
  p.EnableCheckpointing(copts);
  const std::vector<Tuple> stream = MakeStream(20000);
  // Feed through the sharded entry point with two shards.
  for (size_t i = 0; i < stream.size(); ++i) {
    const int shard = static_cast<int>(i % 2);
    const int group = engine::LocalEngine::RouteKey(stream[i].key, kGroups);
    ASSERT_TRUE(
        p.engine->InjectRouted(0, shard, group, &stream[i], 1).ok());
  }
  p.engine->Flush();
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());
  CheckpointManifest manifest;
  ASSERT_TRUE(p.store.LatestManifest(&manifest));
  EXPECT_EQ(manifest.shard_offsets, p.engine->shard_offsets());
  ASSERT_EQ(manifest.shard_offsets.size(), 2u);
  EXPECT_EQ(manifest.shard_offsets[0] + manifest.shard_offsets[1],
            static_cast<int64_t>(stream.size()));
}

/// One StoreSink operator of 32 groups on two nodes, fed one upsert per
/// group per chunk (cycling through three keys each): every group is dirty
/// in every chunk it is fed, and its logged suffix is one tuple per chunk
/// since its newest record.
struct SinkJob {
  static constexpr int kGroups = 32;
  static constexpr int kKeysPerGroup = 3;
  engine::Topology topo;
  engine::Cluster cluster{2};
  ops::StoreSinkOperator sink{kGroups};
  std::unique_ptr<engine::CheckpointStore> store;
  std::unique_ptr<CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;
  std::vector<std::vector<uint64_t>> keys;  ///< keys[g] route to group g.
  int64_t chunks = 0;

  explicit SinkJob(int64_t interval_us,
                   std::unique_ptr<engine::CheckpointStore> backend =
                       std::make_unique<MemoryCheckpointStore>())
      : store(std::move(backend)), keys(kGroups) {
    topo.AddOperator("store", kGroups, 1 << 14);
    engine::Assignment assign(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 2);
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = 0;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&sink}, eopts);
    CheckpointCoordinatorOptions copts;
    copts.interval_us = interval_us;
    coordinator = std::make_unique<CheckpointCoordinator>(store.get(), copts);
    EXPECT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
    for (uint64_t key = 1, found = 0; found < kGroups * kKeysPerGroup;
         ++key) {
      std::vector<uint64_t>& mine =
          keys[engine::LocalEngine::RouteKey(key, kGroups)];
      if (mine.size() < kKeysPerGroup) {
        mine.push_back(key);
        ++found;
      }
    }
  }

  /// Upserts one key of every group except \p skip at event time \p ts and
  /// drains (one wave, one safe point); returns the first ingest error.
  Status Chunk(int64_t ts, KeyGroupId skip = -1) {
    Status status = Status::OK();
    for (KeyGroupId g = 0; g < kGroups; ++g) {
      if (g == skip) continue;
      Tuple t;
      t.key = keys[g][chunks % kKeysPerGroup];
      t.ts = ts;
      t.num = 0.25 * static_cast<double>(chunks * kGroups + g);
      const Status s = engine->Inject(0, t);
      if (status.ok()) status = s;
    }
    ++chunks;
    engine->Flush();
    return status;
  }

  uint64_t Version(KeyGroupId g) const {
    CheckpointInfo info;
    return store->Latest(g, &info, nullptr) ? info.version : 0;
  }

  uint64_t Epoch() const {
    CheckpointManifest manifest;
    return store->LatestManifest(&manifest) ? manifest.epoch : 0;
  }

  std::vector<std::string> Tables() const {
    std::vector<std::string> out;
    for (int g = 0; g < kGroups; ++g) {
      out.push_back(sink.SerializeGroupState(g));
    }
    return out;
  }
};

/// Event time of chunk \p j when 16 chunks span one interval: exactly the
/// phase point of tick 2j, so chunk j's safe point is due for two groups.
int64_t ChunkTime(int64_t interval_us, int64_t j) {
  return static_cast<int64_t>(static_cast<__int128>(interval_us) * j / 16);
}

TEST(CheckpointCoordinatorTest, StaggeredSlicesImageEachGroupOncePerInterval) {
  // Each group is imaged at its own phase point, once per interval, so no
  // safe point images more than ceil(G/16) + 1 of the 32 groups when 16
  // chunks span an interval. The two huge intervals run the phase
  // arithmetic near the int64 range (2 * (INT64_MAX / 2) still fits).
  constexpr int kGroups = SinkJob::kGroups;
  constexpr int64_t kMaxPerSafePoint = (kGroups + 15) / 16 + 1;
  constexpr KeyGroupId kLate = 5;  // clean at its phase point (chunk 3)
  for (const int64_t interval :
       {int64_t{16000}, int64_t{1} << 60,
        std::numeric_limits<int64_t>::max() / 2}) {
    SCOPED_TRACE(interval);
    SinkJob job(interval);
    ASSERT_EQ(job.coordinator->stats().snapshots, kGroups);
    ASSERT_EQ(job.Epoch(), 1u);
    const int chunks = interval == 16000 ? 64 : 31;
    std::vector<uint64_t> version(kGroups);
    for (KeyGroupId g = 0; g < kGroups; ++g) version[g] = job.Version(g);
    std::vector<int> images_in_interval(kGroups, 0);
    ASSERT_TRUE(job.Chunk(ChunkTime(interval, 0), kLate).ok());  // anchor
    for (int j = 1; j <= chunks; ++j) {
      const int64_t snapshots = job.coordinator->stats().snapshots;
      const int64_t puts = job.store->puts();
      ASSERT_TRUE(
          job.Chunk(ChunkTime(interval, j), j <= 6 ? kLate : -1).ok());
      const int64_t imaged = job.coordinator->stats().snapshots - snapshots;
      EXPECT_EQ(job.store->puts() - puts, imaged) << "chunk " << j;
      EXPECT_LE(imaged, kMaxPerSafePoint) << "chunk " << j;
      std::vector<KeyGroupId> taken;
      for (KeyGroupId g = 0; g < kGroups; ++g) {
        if (job.Version(g) == version[g]) continue;
        EXPECT_EQ(job.Version(g), version[g] + 1) << "group " << g;
        version[g] = job.Version(g);
        ++images_in_interval[g];
        taken.push_back(g);
      }
      // Chunk j is due for the groups owning ticks 2j - 1 and 2j; the late
      // group is taken at the first safe point after it is dirtied.
      std::vector<KeyGroupId> expect = {(2 * j - 2) % kGroups,
                                        (2 * j - 1) % kGroups};
      if (j <= 6) std::erase(expect, kLate);
      if (j == 7) expect.insert(expect.begin(), kLate);
      EXPECT_EQ(taken, expect) << "chunk " << j;
      // The manifest's epoch rises by one per interval, at the safe point
      // that closes it (the tick of the interval's last group).
      EXPECT_EQ(job.Epoch(), static_cast<uint64_t>(1 + j / 16))
          << "chunk " << j;
      if (j % 16 == 0) {
        // Every group was dirty in the interval: imaged exactly once.
        for (KeyGroupId g = 0; g < kGroups; ++g) {
          EXPECT_EQ(images_in_interval[g], 1)
              << "group " << g << ", interval ending at chunk " << j;
        }
        std::fill(images_in_interval.begin(), images_in_interval.end(), 0);
      }
    }
    EXPECT_EQ(job.coordinator->stats().rounds, 1 + chunks / 16);
    // CheckpointNow is still a full round: every dirty group, plus a
    // manifest.
    ASSERT_TRUE(job.Chunk(ChunkTime(interval, chunks)).ok());
    const uint64_t epoch = job.Epoch();
    const auto full = job.coordinator->CheckpointNow(job.engine.get());
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(*full, kGroups);
    EXPECT_EQ(job.Epoch(), epoch + 1);
  }
}

/// A store whose payload writes fail once `fail` is set, like a full disk
/// after the initial round.
class FailingStore final : public engine::CheckpointStore {
 public:
  FailingStore() : CheckpointStore(/*retain_versions=*/2) {}
  Status PutManifest(const CheckpointManifest&) override {
    return Status::OK();
  }
  bool LatestManifest(CheckpointManifest*) const override { return false; }
  bool fail = false;

 private:
  Status WritePayload(KeyGroupId group, const CheckpointInfo& info,
                      std::string payload) override {
    if (fail) return Status::Internal("disk full");
    payloads_[{group, info.version}] = std::move(payload);
    return Status::OK();
  }
  bool ReadPayload(KeyGroupId group, const CheckpointInfo& info,
                   std::string* payload) const override {
    const auto it = payloads_.find({group, info.version});
    if (it == payloads_.end()) return false;
    *payload = it->second;
    return true;
  }
  void DropPayload(KeyGroupId group, const CheckpointInfo& info) override {
    payloads_.erase({group, info.version});
  }
  std::map<std::pair<KeyGroupId, uint64_t>, std::string> payloads_;
};

TEST(CheckpointCoordinatorTest, FailedStoreWriteSurfacesAtIngest) {
  // A failed write stops checkpointing for good, so no log is truncated
  // again. Ingest used to return OK while the logs grew with every
  // delivery; it now returns the sticky error. The tuples are still
  // processed and logged, so recovery from the last good chain works.
  auto owned = std::make_unique<FailingStore>();
  FailingStore* store = owned.get();
  SinkJob job(/*interval_us=*/16000, std::move(owned));
  store->fail = true;
  ASSERT_TRUE(job.Chunk(0).ok());  // the anchor: nothing due yet
  // Chunk 1's safe point is due for groups 0 and 1 and its write fails
  // inside Flush; every ingest call after it reports the error.
  ASSERT_TRUE(job.Chunk(1000).ok());
  EXPECT_FALSE(job.coordinator->last_error().ok());
  for (int64_t j = 2; j < 40; ++j) {
    const Status s = job.Chunk(j * 1000);
    ASSERT_FALSE(s.ok()) << "chunk " << j;
    EXPECT_NE(s.ToString().find("disk full"), std::string::npos);
  }
  // Every delivery since the initial round is still in the logs.
  for (KeyGroupId g = 0; g < SinkJob::kGroups; ++g) {
    EXPECT_EQ(job.engine->replay_log(g).size(), 40u) << "group " << g;
  }
  const std::vector<std::string> live = job.Tables();
  ASSERT_TRUE(job.engine->FailNode(0).ok());
  for (KeyGroupId g = 0; g < SinkJob::kGroups; g += 2) {
    const auto rec = job.engine->RecoverGroup(g, 1);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->replayed, 40) << "group " << g;
  }
  EXPECT_EQ(job.Tables(), live);
}

// ---------------------------------------------------------------------------
// (a) checkpoint + replay reconstruction is bit-identical to live state
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, ReconstructionIsBitIdenticalToLiveState) {
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  // 50 s rounds against a 225 s stream: the last round lands at ~200 s, so
  // the final ~25 s of deliveries deterministically form a non-empty
  // suffix that recovery has to replay.
  copts.interval_us = 50LL * 1000 * 1000;
  p.EnableCheckpointing(copts);

  const std::vector<Tuple> stream = MakeStream(90000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();

  for (NodeId node = 0; node < kNodes; ++node) {
    // Live state of every group on this node, then kill it and recover.
    std::map<KeyGroupId, std::string> live;
    for (KeyGroupId g = 0; g < p.topo.num_key_groups(); ++g) {
      if (p.engine->assignment().node_of(g) == node) live[g] = p.StateOf(g);
    }
    ASSERT_FALSE(live.empty());
    ASSERT_TRUE(p.engine->FailNode(node).ok());
    EXPECT_EQ(p.engine->lost_groups().size(), live.size());
    for (const auto& [g, state] : live) {
      // The cleared state differs from the live capture (loss is real).
      EXPECT_NE(p.StateOf(g), state) << "group " << g << " was not cleared";
      auto rec = p.engine->RecoverGroup(g, (node + 1) % kNodes);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(p.StateOf(g), state)
          << "reconstruction diverged for group " << g;
      EXPECT_EQ(p.engine->assignment().node_of(g), (node + 1) % kNodes);
    }
    EXPECT_TRUE(p.engine->lost_groups().empty());
  }
  // The uncovered tail guaranteed log suffixes, so replay actually ran.
  engine::EnginePeriodStats stats = p.engine->HarvestPeriod();
  EXPECT_GT(stats.tuples_replayed, 0);
  // Recoveries compound: groups recovered onto node n+1 die again when
  // that node is killed next — 6 + 12 + 18 + 24 restores in total.
  EXPECT_EQ(stats.groups_recovered, 60);
}

TEST(CheckpointRecoveryTest, DeltaChainRecoveryIsBitIdentical) {
  // Same zero-loss pin as above, but with delta checkpoints on: recovery
  // now replays base + chained deltas + log suffix, and must still land on
  // exactly the live bytes.
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 15LL * 1000 * 1000;
  copts.max_delta_chain = 4;
  p.EnableCheckpointing(copts);

  const std::vector<Tuple> stream = MakeStream(90000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  // Delta rounds actually happened (the mechanism is live, not bypassed).
  EXPECT_GT(p.store.delta_puts(), 0);
  EXPECT_GT(p.coordinator->stats().delta_snapshots, 0);
  EXPECT_GT(p.coordinator->stats().delta_snapshot_bytes, 0);

  for (NodeId node = 0; node < kNodes; ++node) {
    std::map<KeyGroupId, std::string> live;
    for (KeyGroupId g = 0; g < p.topo.num_key_groups(); ++g) {
      if (p.engine->assignment().node_of(g) == node) live[g] = p.StateOf(g);
    }
    ASSERT_FALSE(live.empty());
    ASSERT_TRUE(p.engine->FailNode(node).ok());
    for (const auto& [g, state] : live) {
      auto rec = p.engine->RecoverGroup(g, (node + 1) % kNodes);
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();
      EXPECT_EQ(p.StateOf(g), state)
          << "delta-chain reconstruction diverged for group " << g;
    }
    EXPECT_TRUE(p.engine->lost_groups().empty());
  }
}

TEST(CheckpointRecoveryTest, ChainZeroNeverWritesDeltas) {
  // max_delta_chain = 0 (the default) is the bit-identical legacy mode:
  // every record is a base, nothing flows through the delta path.
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 15LL * 1000 * 1000;
  p.EnableCheckpointing(copts);
  const std::vector<Tuple> stream = MakeStream(60000);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  p.engine->Flush();
  EXPECT_GT(p.store.puts(), 0);
  EXPECT_EQ(p.store.delta_puts(), 0);
  EXPECT_EQ(p.coordinator->stats().delta_snapshots, 0);
  EXPECT_EQ(p.coordinator->stats().delta_snapshot_bytes, 0);
}

TEST(CheckpointRecoveryTest, ChainLengthBoundRollsIntoFreshBase) {
  // max_delta_chain is the one compaction rule: a group chains deltas onto
  // its base until the chain holds max_delta_chain of them, and the next
  // dirty round writes a fresh base. One StoreSink group, one new key per
  // manual round, chain bound 2.
  engine::Topology topo;
  topo.AddOperator("store", 1, 1 << 14);
  engine::Cluster cluster(1);
  engine::Assignment assign(1);
  assign.set_node(0, 0);
  ops::StoreSinkOperator sink(1);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&sink},
                             eopts);
  MemoryCheckpointStore store;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 1LL << 60;  // manual rounds only
  copts.max_delta_chain = 2;
  CheckpointCoordinator coordinator(&store, copts);
  ASSERT_TRUE(engine.EnableCheckpointing(&coordinator).ok());

  // Deltas chained onto the newest base after each round: two deltas, a
  // rollover into a base, two deltas, a rollover.
  const size_t expect_chain[] = {1, 2, 0, 1, 2, 0};
  for (int round = 0; round < 6; ++round) {
    Tuple t;
    t.key = static_cast<uint64_t>(round + 1);
    t.ts = round * 1000;
    t.num = 1.0 + round;
    ASSERT_TRUE(engine.Inject(0, t).ok());
    engine.Flush();
    const auto result = engine.CheckpointDirtyGroups();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->groups, 1) << "round " << round;
    EXPECT_EQ(result->delta_groups, expect_chain[round] > 0 ? 1 : 0)
        << "round " << round;

    // The newest chain materializes back to exactly the live table.
    CheckpointInfo info;
    std::string base;
    std::vector<std::string> deltas;
    ASSERT_TRUE(store.LatestChain(0, &info, &base, &deltas));
    EXPECT_EQ(deltas.size(), expect_chain[round]) << "round " << round;
    ops::StoreSinkOperator restored(1);
    ASSERT_TRUE(restored.DeserializeGroupState(0, base).ok());
    for (const std::string& d : deltas) {
      ASSERT_TRUE(restored.ApplyGroupDelta(0, d).ok());
    }
    EXPECT_EQ(restored.SerializeGroupState(0), sink.SerializeGroupState(0))
        << "round " << round;
  }
  EXPECT_EQ(store.delta_puts(), 4);
  // Bases (puts counts every record): the initial round's and the two
  // rollovers.
  EXPECT_EQ(store.puts() - store.delta_puts(), 3);
}

TEST(CheckpointRecoveryTest, RebuiltGroupsKeepChainingDeltas) {
  // A move or a recovery leaves a group's state at its newest record plus
  // the logged suffix (or as it was), so its next record may still be a
  // delta derived from the log. One StoreSink group with deltas on goes
  // through every kind of move and a node failure, with keys logged before
  // and after each; after each, the next round writes a delta and the
  // newest chain rebuilds the live bytes.
  engine::Topology topo;
  topo.AddOperator("store", 1, 1 << 14);
  engine::Cluster cluster(2);
  engine::Assignment assign(1);
  assign.set_node(0, 0);
  ops::StoreSinkOperator sink(1);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&sink},
                             eopts);
  MemoryCheckpointStore store;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 1LL << 60;  // manual rounds only
  copts.max_delta_chain = 16;
  CheckpointCoordinator coordinator(&store, copts);
  ASSERT_TRUE(engine.EnableCheckpointing(&coordinator).ok());

  uint64_t n = 0;
  // Three upserts: a new key, a key seen a few tuples ago and key 1.
  const auto upsert = [&] {
    for (const uint64_t key : {n + 10, n / 2 + 10, uint64_t{1}}) {
      Tuple t;
      t.key = key;
      t.ts = static_cast<int64_t>(++n) * 1000;
      t.num = 0.5 * static_cast<double>(n);
      ASSERT_TRUE(engine.Inject(0, t).ok());
    }
    engine.Flush();
  };
  const auto migrate = [&engine](engine::MigrationMode mode) {
    return [&engine, mode](NodeId to) {
      const Status s = engine.StartMigration(0, to, mode);
      return s.ok() ? engine.FinishMigration(0).status() : s;
    };
  };
  const std::vector<std::pair<const char*, std::function<Status(NodeId)>>>
      moves = {
          {"direct", migrate(engine::MigrationMode::kDirect)},
          {"indirect", migrate(engine::MigrationMode::kIndirect)},
          {"lease", migrate(engine::MigrationMode::kLease)},
          {"recovery",
           [&engine](NodeId to) {
             const Status s = engine.FailNode(engine.assignment().node_of(0));
             return s.ok() ? engine.RecoverGroup(0, to).status() : s;
           }},
      };
  for (const auto& [name, move] : moves) {
    upsert();  // logged past the newest record: the rebuild replays it
    const NodeId to = 1 - engine.assignment().node_of(0);
    ASSERT_TRUE(move(to).ok()) << name;
    ASSERT_EQ(engine.assignment().node_of(0), to) << name;
    upsert();
    const auto result = engine.CheckpointDirtyGroups();
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_EQ(result->groups, 1) << name;
    EXPECT_EQ(result->delta_groups, 1) << name;

    CheckpointInfo info;
    std::string base;
    std::vector<std::string> deltas;
    ASSERT_TRUE(store.LatestChain(0, &info, &base, &deltas)) << name;
    ops::StoreSinkOperator restored(1);
    ASSERT_TRUE(restored.DeserializeGroupState(0, base).ok()) << name;
    for (const std::string& d : deltas) {
      ASSERT_TRUE(restored.ApplyGroupDelta(0, d).ok()) << name;
    }
    EXPECT_EQ(restored.SerializeGroupState(0), sink.SerializeGroupState(0))
        << name;
  }
  // The initial round's base carries every later record.
  EXPECT_EQ(store.delta_puts(), static_cast<int64_t>(moves.size()));
  EXPECT_EQ(store.puts() - store.delta_puts(), 1);
}

TEST(CheckpointRecoveryTest, IndirectMigrationWithDeltaChainsMatchesDirect) {
  // Indirect migration restores from base + chained deltas + replay; its
  // outputs must still be indistinguishable from a direct state move.
  Pipeline direct;
  Pipeline indirect;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 15LL * 1000 * 1000;
  copts.max_delta_chain = 4;
  direct.EnableCheckpointing(copts);
  indirect.EnableCheckpointing(copts);

  const std::vector<Tuple> stream = MakeStream(60000);
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(direct.engine->Inject(0, stream[i]).ok());
    ASSERT_TRUE(indirect.engine->Inject(0, stream[i]).ok());
    if (i % 5000 == 4999) {
      const KeyGroupId g = static_cast<KeyGroupId>(
          (i / 5000) % direct.topo.num_key_groups());
      const NodeId to =
          (direct.engine->assignment().node_of(g) + 1) % kNodes;
      ASSERT_TRUE(direct.engine
                      ->StartMigration(g, to, engine::MigrationMode::kDirect)
                      .ok());
      ASSERT_TRUE(direct.engine->FinishMigration(g).ok());
      ASSERT_TRUE(
          indirect.engine
              ->StartMigration(g, to, engine::MigrationMode::kIndirect)
              .ok());
      auto ip = indirect.engine->FinishMigration(g);
      ASSERT_TRUE(ip.ok()) << ip.status().ToString();
    }
  }
  direct.engine->Flush();
  indirect.engine->Flush();

  EXPECT_GT(indirect.store.delta_puts(), 0);
  for (KeyGroupId g = 0; g < direct.topo.num_key_groups(); ++g) {
    EXPECT_EQ(direct.StateOf(g), indirect.StateOf(g)) << "group " << g;
  }
  EXPECT_EQ(direct.GlobalCounts(), indirect.GlobalCounts());
}

TEST(CheckpointRecoveryTest, MidIntervalRecoveryReplaysEachGroupsOwnSuffix) {
  // A node dies half-way through an interval: its groups whose phase point
  // passed already hold this interval's record and replay a short suffix,
  // the others replay from last interval's record. Both rebuild the live
  // tables, and the run ends bit-identical to a no-failure run.
  SinkJob baseline(/*interval_us=*/16000);
  SinkJob failed(/*interval_us=*/16000);
  const auto feed = [&](int from, int to) {
    for (int j = from; j < to; ++j) {
      ASSERT_TRUE(baseline.Chunk(j * 1000).ok());
      ASSERT_TRUE(failed.Chunk(j * 1000).ok());
    }
  };
  feed(0, 25);  // chunk 24: groups 0-15 hold interval 2's record
  const std::vector<std::string> live = failed.Tables();
  std::map<bool, std::vector<int64_t>> replayed;  // by "holds it"
  ASSERT_TRUE(failed.engine->FailNode(0).ok());
  for (KeyGroupId g = 0; g < SinkJob::kGroups; g += 2) {
    const bool current = failed.Version(g) == 3;  // initial, 1st, 2nd
    const auto rec = failed.engine->RecoverGroup(g, 1);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    replayed[current].push_back(rec->replayed);
  }
  EXPECT_EQ(failed.Tables(), live);
  ASSERT_EQ(replayed[true].size(), 8u);
  ASSERT_EQ(replayed[false].size(), 8u);
  EXPECT_LT(*std::max_element(replayed[true].begin(), replayed[true].end()),
            *std::min_element(replayed[false].begin(),
                              replayed[false].end()));
  feed(25, 40);
  EXPECT_EQ(failed.Tables(), baseline.Tables());
}

TEST(CheckpointRecoveryTest, MidIntervalIndirectMovesMatchUnmovedRun) {
  // The same for indirect moves: group 4's phase point (chunk 19) passed,
  // group 20's (chunk 27) did not, so their replayed suffixes differ, and
  // the moved run still ends bit-identical to an unmoved one.
  SinkJob baseline(/*interval_us=*/16000);
  SinkJob moved(/*interval_us=*/16000);
  const auto feed = [&](int from, int to) {
    for (int j = from; j < to; ++j) {
      ASSERT_TRUE(baseline.Chunk(j * 1000).ok());
      ASSERT_TRUE(moved.Chunk(j * 1000).ok());
    }
  };
  feed(0, 25);
  (void)moved.engine->HarvestPeriod();
  std::vector<int64_t> replayed;
  for (const KeyGroupId g : {4, 20}) {
    EXPECT_EQ(moved.Version(g), g == 4 ? 3u : 2u) << "group " << g;
    ASSERT_TRUE(moved.engine->StartMigration(g, 1,
                                             engine::MigrationMode::kIndirect)
                    .ok());
    const auto pause = moved.engine->FinishMigration(g);
    ASSERT_TRUE(pause.ok()) << pause.status().ToString();
    replayed.push_back(moved.engine->HarvestPeriod().tuples_replayed);
  }
  EXPECT_GT(replayed[0], 0);
  EXPECT_LT(replayed[0], replayed[1]);
  feed(25, 40);
  EXPECT_EQ(moved.Tables(), baseline.Tables());
  EXPECT_EQ(moved.engine->assignment().node_of(4), 1);
  EXPECT_EQ(moved.engine->assignment().node_of(20), 1);
}

TEST(CheckpointRecoveryTest, FailNodeRequiresCheckpointing) {
  Pipeline p;
  EXPECT_FALSE(p.engine->FailNode(0).ok());
  EXPECT_FALSE(p.engine
                   ->StartMigration(0, 1, engine::MigrationMode::kIndirect)
                   .ok());
}

// ---------------------------------------------------------------------------
// (b) indirect migration produces outputs identical to direct migration
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, IndirectMigrationMatchesDirect) {
  Pipeline direct;
  Pipeline indirect;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 15LL * 1000 * 1000;
  direct.EnableCheckpointing(copts);
  indirect.EnableCheckpointing(copts);

  const std::vector<Tuple> stream = MakeStream(60000);
  double direct_pause = 0.0;
  double indirect_pause = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(direct.engine->Inject(0, stream[i]).ok());
    ASSERT_TRUE(indirect.engine->Inject(0, stream[i]).ok());
    if (i % 5000 == 4999) {
      const KeyGroupId g = static_cast<KeyGroupId>(
          (i / 5000) % direct.topo.num_key_groups());
      const NodeId to =
          (direct.engine->assignment().node_of(g) + 1) % kNodes;
      ASSERT_TRUE(direct.engine
                      ->StartMigration(g, to, engine::MigrationMode::kDirect)
                      .ok());
      auto dp = direct.engine->FinishMigration(g);
      ASSERT_TRUE(dp.ok());
      direct_pause += *dp;
      ASSERT_TRUE(
          indirect.engine
              ->StartMigration(g, to, engine::MigrationMode::kIndirect)
              .ok());
      auto ip = indirect.engine->FinishMigration(g);
      ASSERT_TRUE(ip.ok()) << ip.status().ToString();
      indirect_pause += *ip;
    }
  }
  direct.engine->Flush();
  indirect.engine->Flush();

  // Identical outputs: every group's canonical state and the merged global
  // top-k answer agree between the two migration modes.
  for (KeyGroupId g = 0; g < direct.topo.num_key_groups(); ++g) {
    EXPECT_EQ(direct.StateOf(g), indirect.StateOf(g)) << "group " << g;
    EXPECT_EQ(direct.engine->assignment().node_of(g),
              indirect.engine->assignment().node_of(g));
  }
  EXPECT_EQ(direct.GlobalCounts(), indirect.GlobalCounts());

  // The indirect runs actually exercised checkpoint + replay.
  engine::EnginePeriodStats istats = indirect.engine->HarvestPeriod();
  EXPECT_GT(istats.tuples_replayed, 0);
  engine::EnginePeriodStats dstats = direct.engine->HarvestPeriod();
  EXPECT_EQ(dstats.tuples_replayed, 0);
  EXPECT_GT(direct_pause, 0.0);
  EXPECT_GT(indirect_pause, 0.0);
  // With deltas off, the engine's accounted indirect pause is the replayed
  // suffix at the shared pause rate.
  const double predicted_us =
      engine::kEnginePauseUsPerByte *
      static_cast<double>(istats.tuples_replayed) * sizeof(Tuple);
  EXPECT_NEAR(indirect_pause, predicted_us, 1e-6 * predicted_us + 1e-9);
}

// ---------------------------------------------------------------------------
// (c) KillNode mid-stream: zero loss, outputs match the no-failure run
// ---------------------------------------------------------------------------

/// Controller-driven run of the wiki pipeline; optionally kills a node
/// mid-stream. Returns (final global counts, per-group states, history).
struct ControlledRun {
  std::map<uint64_t, int64_t> counts;
  std::vector<std::string> states;
  std::vector<core::ControllerRound> history;
  int64_t ingested = 0;
};

ControlledRun RunControlled(const std::vector<Tuple>& stream, bool kill,
                            int64_t period_us = kWindowUs) {
  Pipeline p;
  CheckpointCoordinatorOptions copts;
  copts.interval_us = 20LL * 1000 * 1000;
  p.EnableCheckpointing(copts);

  balance::MilpRebalancerOptions mopts;
  mopts.time_budget_ms = 10;
  balance::MilpRebalancer milp(mopts);
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  core::AdaptationFramework framework(&milp, /*policy=*/nullptr, aopts);
  engine::LoadModel load_model{engine::CostModel{}};

  core::ControllerLoopOptions lopts;
  lopts.period_every_us = period_us;
  lopts.node_capacity_work_units = 1000.0;
  lopts.use_indirect_migration = true;
  core::ControllerLoop controller(p.engine.get(), &framework, &load_model,
                                  &p.topo, &p.cluster, lopts);

  const size_t kill_at = stream.size() / 2;
  const size_t chunk = 1000;
  for (size_t i = 0; i < stream.size(); i += chunk) {
    const size_t n = std::min(chunk, stream.size() - i);
    EXPECT_TRUE(controller.IngestBatch(0, stream.data() + i, n).ok());
    if (kill && i <= kill_at && kill_at < i + chunk) {
      EXPECT_TRUE(controller.KillNode(1).ok());
      // Recovery is eager: KillNode itself ran the round that restored
      // every lost group — nothing is left for a later boundary round.
      EXPECT_TRUE(p.engine->lost_groups().empty());
    }
  }
  auto last = controller.RunRoundNow();
  EXPECT_TRUE(last.ok());

  ControlledRun out;
  out.counts = p.GlobalCounts();
  for (KeyGroupId g = 0; g < p.topo.num_key_groups(); ++g) {
    out.states.push_back(p.StateOf(g));
  }
  out.history = controller.history();
  for (const core::ControllerRound& r : out.history) {
    out.ingested += r.tuples_ingested;
  }
  return out;
}

TEST(CheckpointRecoveryTest, KillNodeMidStreamLosesNothing) {
  const std::vector<Tuple> stream =
      MakeStream(120000, /*articles=*/300, /*seed=*/17, /*rate=*/500.0);
  const ControlledRun baseline =
      RunControlled(stream, /*kill=*/false);
  const ControlledRun failed =
      RunControlled(stream, /*kill=*/true);

  // Zero tuples lost: the failure run offered and processed the whole
  // stream, and every operator group ends in exactly the state of the
  // no-failure run — including the last closed window's top-k answer.
  EXPECT_EQ(baseline.ingested, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(failed.ingested, static_cast<int64_t>(stream.size()));
  ASSERT_FALSE(baseline.counts.empty());
  EXPECT_EQ(baseline.counts, failed.counts);
  ASSERT_EQ(baseline.states.size(), failed.states.size());
  for (size_t g = 0; g < baseline.states.size(); ++g) {
    EXPECT_EQ(baseline.states[g], failed.states[g]) << "group " << g;
  }

  // The failure was detected and recovered by a control round.
  int recovered = 0;
  int failed_nodes = 0;
  double recovery_wall_us = 0.0;
  for (const core::ControllerRound& r : failed.history) {
    recovered += r.groups_recovered;
    failed_nodes += r.nodes_failed;
    recovery_wall_us += r.recovery_wall_us;
  }
  EXPECT_EQ(failed_nodes, 1);
  EXPECT_GT(recovered, 0);
  EXPECT_GT(recovery_wall_us, 0.0);
  for (const core::ControllerRound& r : baseline.history) {
    EXPECT_EQ(r.groups_recovered, 0);
  }
}

TEST(CheckpointRecoveryTest, EagerRecoveryAllowsWindowsDuringFormerOutage) {
  // Statistics period of 13 s against a 60 s window cadence: the period
  // does NOT divide the window cadence, so under boundary-paced recovery a
  // window could have fired while groups were lost (KillNode used to
  // reject this configuration outright). Eager recovery runs the recovery
  // round inside KillNode, so windows that fire after the kill see fully
  // restored state — the run must match the no-failure run exactly.
  const std::vector<Tuple> stream =
      MakeStream(120000, /*articles=*/300, /*seed=*/23, /*rate=*/500.0);
  constexpr int64_t kOddPeriodUs = 13LL * 1000 * 1000;
  static_assert(kWindowUs % kOddPeriodUs != 0,
                "the period must not divide the window cadence");
  const ControlledRun baseline =
      RunControlled(stream, /*kill=*/false, kOddPeriodUs);
  const ControlledRun failed =
      RunControlled(stream, /*kill=*/true, kOddPeriodUs);

  EXPECT_EQ(failed.ingested, static_cast<int64_t>(stream.size()));
  ASSERT_FALSE(baseline.counts.empty());
  EXPECT_EQ(baseline.counts, failed.counts);
  ASSERT_EQ(baseline.states.size(), failed.states.size());
  for (size_t g = 0; g < baseline.states.size(); ++g) {
    EXPECT_EQ(baseline.states[g], failed.states[g]) << "group " << g;
  }
  // The kill was recovered in the round KillNode ran, not a later one:
  // exactly one round reports both the failure and the restorations.
  int eager_rounds = 0;
  for (const core::ControllerRound& r : failed.history) {
    if (r.nodes_failed > 0) {
      ++eager_rounds;
      EXPECT_GT(r.groups_recovered, 0);
      EXPECT_GT(r.recovery_wall_us, 0.0);
    } else {
      EXPECT_EQ(r.groups_recovered, 0);
    }
  }
  EXPECT_EQ(eager_rounds, 1);
}

TEST(CheckpointRecoveryTest, KillNodeRequiresControllerCheckpointing) {
  Pipeline p;  // checkpointing not enabled
  balance::MilpRebalancerOptions mopts;
  balance::MilpRebalancer milp(mopts);
  core::AdaptationFramework framework(&milp, nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};
  core::ControllerLoop controller(p.engine.get(), &framework, &load_model,
                                  &p.topo, &p.cluster, {});
  EXPECT_FALSE(controller.KillNode(1).ok());
  // The rejected kill left the cluster untouched.
  EXPECT_TRUE(p.cluster.is_active(1));
}

}  // namespace
}  // namespace albic
