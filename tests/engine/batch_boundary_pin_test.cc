// Pins where the batched runtime cuts its batches on an all-to-all job:
// per-period waves, mailbox high-water marks and comm rows (rates and row
// order), per-group replay-log chunk counts, and every group's state and
// windowed output must equal the values the route-bucket router recorded
// (commit 2fb787b), the router that staged each batch's output per
// destination group before appending it. A run of tuples bound for one
// group must open a batch only at its first tuple, and never split, for
// these to hold. The batch cap sits below the length of the window fire's
// runs and of a migration drain's, so a run cut anywhere else would move
// the chunk counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/aggregate.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

using engine::KeyGroupId;
using engine::Tuple;

/// FNV-1a, to pin long sequences of values in one number.
class Digest {
 public:
  void Add(const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void AddU64(uint64_t v) { Add(&v, sizeof v); }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    AddU64(bits);
  }
  void AddString(const std::string& s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

/// Every routing path on two nodes, so most groups share a mailbox: a null
/// source staged at ingress fans out by key into geohash; geohash splits by
/// key into the windowed top-k and one-to-one into a running sum, so its
/// output is staged and routed edge by edge; the top-k's window fires and
/// the sum's updates both partition into the global top-k.
struct FanOutJob {
  static constexpr int kNodes = 2;
  engine::Topology topo;
  engine::Cluster cluster{kNodes};
  ops::GeoHashOperator geohash{5, 64};
  ops::WindowedTopKOperator topk{7, 40};
  ops::SumByKeyOperator sum{5, ops::GroupField::kKey};
  ops::WindowedTopKOperator global{3, 40, ops::TopKCountMode::kSumNum};
  std::vector<engine::StreamOperator*> ops = {nullptr, &geohash, &topk, &sum,
                                              &global};
  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;

  FanOutJob() {
    using engine::PartitioningPattern;
    topo.AddOperator("source", 3, 0.0, /*is_source=*/true);
    topo.AddOperator("geohash", 5, 1 << 10);
    topo.AddOperator("topk", 7, 1 << 12);
    topo.AddOperator("sum", 5, 1 << 12);
    topo.AddOperator("global", 3, 1 << 12);
    EXPECT_TRUE(
        topo.AddStream(0, 1, PartitioningPattern::kFullPartitioning).ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, PartitioningPattern::kFullPartitioning).ok());
    EXPECT_TRUE(topo.AddStream(1, 3, PartitioningPattern::kOneToOne).ok());
    EXPECT_TRUE(
        topo.AddStream(2, 4, PartitioningPattern::kFullPartitioning).ok());
    EXPECT_TRUE(
        topo.AddStream(3, 4, PartitioningPattern::kPartialPartitioning).ok());
    engine::Assignment assign(topo.num_key_groups());
    for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % kNodes);
    }
    engine::LocalEngineOptions opts;
    // Below a fire's runs (40 tuples over 3 global groups) and a
    // migration drain's (about 100 geohash tuples over 7 top-k groups).
    opts.max_batch_tuples = 8;
    opts.window_every_us = 500LL * 1000;
    engine = std::make_unique<engine::LocalEngine>(&topo, &cluster, assign,
                                                   ops, opts);
    // Only the initial round runs, so each log keeps every delivered
    // batch as one chunk.
    engine::CheckpointCoordinatorOptions copts;
    copts.interval_us = 1000LL * 1000 * 1000 * 1000;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&store, copts);
    EXPECT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
  }
};

/// What one harvested period pins.
struct PeriodPin {
  int64_t waves = 0;
  int64_t mailbox_highwater = 0;
  int64_t tuples_processed = 0;
  size_t comm_entries = 0;
  uint64_t comm = 0;  ///< Every row's (to, rate) entries, in row order.
  uint64_t work = 0;  ///< group_work, then node_work.
};

PeriodPin Pin(const engine::EnginePeriodStats& stats) {
  PeriodPin pin;
  pin.waves = stats.waves;
  pin.mailbox_highwater = stats.mailbox_highwater;
  pin.tuples_processed = stats.tuples_processed;
  Digest comm;
  for (KeyGroupId from = 0; from < stats.comm.num_groups(); ++from) {
    comm.AddU64(static_cast<uint64_t>(from));
    for (const engine::CommMatrix::Entry& e : stats.comm.row(from)) {
      comm.AddU64(static_cast<uint64_t>(e.to));
      comm.AddDouble(e.rate);
      ++pin.comm_entries;
    }
  }
  pin.comm = comm.value();
  Digest work;
  for (const double w : stats.group_work) work.AddDouble(w);
  for (const double w : stats.node_work) work.AddDouble(w);
  pin.work = work.value();
  return pin;
}

void ExpectPin(const PeriodPin& got, const PeriodPin& want, int period) {
  EXPECT_EQ(got.waves, want.waves) << "period " << period;
  EXPECT_EQ(got.mailbox_highwater, want.mailbox_highwater)
      << "period " << period;
  EXPECT_EQ(got.tuples_processed, want.tuples_processed)
      << "period " << period;
  EXPECT_EQ(got.comm_entries, want.comm_entries) << "period " << period;
  EXPECT_EQ(got.comm, want.comm) << "period " << period;
  EXPECT_EQ(got.work, want.work) << "period " << period;
}

TEST(BatchBoundaryPinTest, AllToAllJobKeepsItsBatchesAndOutputs) {
  FanOutJob job;
  if (::testing::Test::HasFailure()) return;
  workload::WikipediaEditStream edits(200, 29, /*rate_per_second=*/2000.0);
  std::vector<Tuple> stream(3600);
  for (Tuple& t : stream) t = edits.Next();

  // Geohash group 1 moves directly while the 500-tuple chunk arrives, so
  // its buffer drains as one batch of about 100 tuples.
  const KeyGroupId moved = job.topo.first_group(1) + 1;
  const engine::NodeId to = (job.engine->assignment().node_of(moved) + 1) %
                            FanOutJob::kNodes;
  const size_t chunks[] = {1, 37, 500, 8, 3, 130};
  std::vector<PeriodPin> periods;
  size_t offset = 0;
  for (int c = 0; offset < stream.size(); ++c) {
    if (c == 8) {
      job.engine->Flush();
      ASSERT_TRUE(
          job.engine->StartMigration(moved, to, engine::MigrationMode::kDirect)
              .ok());
    }
    const size_t n = std::min(chunks[c % 6], stream.size() - offset);
    ASSERT_TRUE(job.engine->InjectBatch(0, stream.data() + offset, n).ok());
    offset += n;
    if (c == 8) {
      ASSERT_TRUE(job.engine->FinishMigration(moved).ok());
    }
    if (c == 20) periods.push_back(Pin(job.engine->HarvestPeriod()));
  }
  periods.push_back(Pin(job.engine->HarvestPeriod()));

  const std::vector<PeriodPin> want = {
      {1003, 9, 10651, 82, 2862419564069353084ULL, 7738694610361729266ULL},
      {403, 8, 4279, 82, 7634023012062920722ULL, 2079865253631513231ULL},
  };
  ASSERT_EQ(periods.size(), want.size());
  for (size_t p = 0; p < want.size(); ++p) {
    ExpectPin(periods[p], want[p], static_cast<int>(p));
  }

  std::vector<size_t> chunk_counts;
  for (KeyGroupId g = 0; g < job.topo.num_key_groups(); ++g) {
    chunk_counts.push_back(job.engine->replay_log(g).chunk_count());
  }
  // Null-source groups deliver nothing and log nothing.
  EXPECT_EQ(chunk_counts,
            (std::vector<size_t>{0,   0,   0,   337, 336, 372, 385, 398,
                                 202, 186, 228, 328, 227, 379, 426, 337,
                                 336, 372, 385, 398, 325, 436, 477}));

  Digest states;
  for (KeyGroupId g = 0; g < job.topo.num_key_groups(); ++g) {
    const engine::StreamOperator* op = job.ops[job.topo.group_operator(g)];
    if (op != nullptr) {
      states.AddString(
          op->SerializeGroupState(job.topo.group_index_in_operator(g)));
    }
  }
  EXPECT_EQ(states.value(), 10543472447185118949ULL);

  Digest output;
  size_t reported = 0;
  for (int g = 0; g < 3; ++g) {
    for (const auto& [article, count] : job.global.last_window_top(g)) {
      output.AddU64(article);
      output.AddU64(static_cast<uint64_t>(count));
      ++reported;
    }
  }
  EXPECT_EQ(reported, 120u);
  EXPECT_EQ(output.value(), 18392640516701283719ULL);
}

}  // namespace
}  // namespace albic
