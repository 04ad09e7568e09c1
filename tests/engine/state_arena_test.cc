// StateArena / LeaseTable unit contracts plus the engine-level invariant
// they exist to enforce: EVERY reconfiguration — byte-moving migration,
// zero-copy lease flip, failure recovery — lands in LeaseTable::Flip, so
// lease epochs and the flip count are a complete audit of ownership
// changes. A reconfiguration path that mutated the assignment without
// going through the arena would break the counts here.

#include <gtest/gtest.h>

#include <vector>

#include "engine/assignment.h"
#include "engine/local_engine.h"
#include "engine/state_arena.h"
#include "engine/topology.h"
#include "tests/engine/reconfig_harness.h"

namespace albic {
namespace {

using engine::Assignment;
using engine::KeyGroupId;
using engine::LeaseTable;
using engine::MigrationMode;
using engine::NodeId;
using engine::StateArena;
using engine::Tuple;
using testing::MakeWikiStream;
using testing::ReconfigOptions;
using testing::ReconfigPipeline;

TEST(LeaseTableTest, FlipReassignsAndAdvancesEpochs) {
  Assignment initial(4);
  for (KeyGroupId g = 0; g < 4; ++g) initial.set_node(g, g % 2);
  LeaseTable table(initial);

  EXPECT_EQ(table.flips(), 0);
  for (KeyGroupId g = 0; g < 4; ++g) {
    EXPECT_EQ(table.owner_of(g), g % 2);
    EXPECT_EQ(table.lease_epoch(g), 0u);
  }

  table.Flip(2, 3);
  EXPECT_EQ(table.owner_of(2), 3);
  EXPECT_EQ(table.lease_epoch(2), 1u);
  EXPECT_EQ(table.flips(), 1);
  // Other groups' epochs are untouched.
  EXPECT_EQ(table.lease_epoch(0), 0u);
  EXPECT_EQ(table.lease_epoch(1), 0u);
  EXPECT_EQ(table.lease_epoch(3), 0u);

  // A second flip of the same group advances its epoch again, even when it
  // flips back to the original owner — epochs count hand-offs, not homes.
  table.Flip(2, 0);
  EXPECT_EQ(table.owner_of(2), 0);
  EXPECT_EQ(table.lease_epoch(2), 2u);
  EXPECT_EQ(table.flips(), 2);

  // The assignment view is the same map the owner_of accessor reads.
  EXPECT_EQ(table.assignment().node_of(2), 0);
  EXPECT_EQ(table.assignment().num_groups(), 4);
}

TEST(StateArenaTest, OwnsSlotTableAndDelegatesLeases) {
  engine::Topology topo;
  topo.AddOperator("source", 3, 1 << 10);
  topo.AddOperator("sink", 3, 1 << 10);
  ASSERT_TRUE(
      topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
          .ok());
  Assignment initial(topo.num_key_groups());
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    initial.set_node(g, 0);
  }
  // Slot entries may be null (stateless sources own no state).
  StateArena arena(&topo, {nullptr, nullptr}, initial);

  EXPECT_EQ(arena.operators().size(), 2u);
  EXPECT_EQ(arena.slot(0), nullptr);
  EXPECT_EQ(arena.slot(1), nullptr);
  EXPECT_EQ(arena.owner_of(4), 0);

  arena.Flip(4, 2);
  EXPECT_EQ(arena.owner_of(4), 2);
  EXPECT_EQ(arena.assignment().node_of(4), 2);
  EXPECT_EQ(arena.leases().lease_epoch(4), 1u);
  EXPECT_EQ(arena.leases().flips(), 1);
}

// Engine-level invariant: migrations of every mode and failure recovery
// all go through the arena, so the lease audit matches the
// reconfiguration schedule exactly.
TEST(StateArenaTest, EngineReconfigurationsAllLandInLeaseTable) {
  ReconfigOptions opts;
  opts.nodes = 3;
  ReconfigPipeline p(opts);
  p.EnableCheckpointing();
  ASSERT_TRUE(p.coordinator != nullptr);

  const std::vector<Tuple> stream = MakeWikiStream(600);
  ASSERT_TRUE(p.engine->InjectBatch(0, stream.data(), stream.size()).ok());
  ASSERT_TRUE(p.coordinator->CheckpointNow(p.engine.get()).ok());

  // Construction and ingestion alone flip nothing.
  EXPECT_EQ(p.engine->arena().leases().flips(), 0);

  // One migration per mode; each is exactly one flip of its group.
  const MigrationMode modes[] = {MigrationMode::kDirect,
                                 MigrationMode::kIndirect,
                                 MigrationMode::kLease};
  int64_t expected_flips = 0;
  KeyGroupId g = 0;
  for (const MigrationMode mode : modes) {
    const NodeId from = p.engine->assignment().node_of(g);
    const NodeId to = (from + 1) % opts.nodes;
    ASSERT_TRUE(p.engine->MigrateGroup(g, to, mode).ok());
    ++expected_flips;
    EXPECT_EQ(p.engine->arena().owner_of(g), to);
    EXPECT_EQ(p.engine->arena().leases().lease_epoch(g), 1u);
    EXPECT_EQ(p.engine->arena().leases().flips(), expected_flips);
    ++g;
  }

  // Failure recovery flips each lost group once (onto the survivor).
  ASSERT_TRUE(p.engine->FailNode(2).ok());
  const std::vector<KeyGroupId> lost = p.engine->lost_groups();
  ASSERT_FALSE(lost.empty());
  for (const KeyGroupId lg : lost) {
    ASSERT_TRUE(p.engine->RecoverGroup(lg, 0).ok());
    ++expected_flips;
    EXPECT_EQ(p.engine->arena().owner_of(lg), 0);
  }
  EXPECT_EQ(p.engine->arena().leases().flips(), expected_flips);

  // The engine's public assignment() is the arena's lease map — one source
  // of truth, not a shadow copy.
  EXPECT_EQ(&p.engine->assignment(), &p.engine->arena().assignment());
}

}  // namespace
}  // namespace albic
