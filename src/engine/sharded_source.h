#pragma once

/// \file
/// \brief Sharded source ingestion: runs source shards in parallel, each
/// pre-routing its tuples to source key groups and handing routed batches to
/// the coordinator over a bounded SPSC queue (backpressure), which feeds
/// them into the engine's mailboxes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metrics_registry.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/source.h"
#include "engine/tuple.h"
#include "engine/types.h"

namespace albic::engine {

class LocalEngine;

/// \brief Destination of an ingestion run — implemented over a bare
/// LocalEngine (EngineShardSink) and over the online controller
/// (core::ControllerShardSink). Two entry points because the two shard
/// counts take different paths; see ShardedSourceRunner::Run.
class ShardSink {
 public:
  virtual ~ShardSink() = default;

  /// \brief An unrouted chunk in source order — the single-shard
  /// pass-through, equivalent to InjectBatch (which keeps num_shards = 1
  /// bit-identical to unsharded ingestion).
  virtual Status IngestChunk(OperatorId source_op, const Tuple* tuples,
                             size_t count) = 0;

  /// \brief A pre-routed run of tuples, all belonging to source key group
  /// \p group, produced by ingestion shard \p shard. Per (shard, group)
  /// calls arrive in shard order. \p ingest_wall_ns is the wall-clock
  /// instant the run's chunk left its Source, stamped on the shard thread —
  /// latency telemetry derives end-to-end latency from it, so shard-queue
  /// wait is included; 0 means unstamped (the sink stamps at ingestion).
  virtual Status IngestRouted(OperatorId source_op, int shard, int group,
                              const Tuple* tuples, size_t count,
                              int64_t ingest_wall_ns) = 0;
};

/// \brief ShardSink over a bare LocalEngine (no controller in the loop).
class EngineShardSink final : public ShardSink {
 public:
  explicit EngineShardSink(LocalEngine* engine) : engine_(engine) {}

  Status IngestChunk(OperatorId source_op, const Tuple* tuples,
                     size_t count) override;
  Status IngestRouted(OperatorId source_op, int shard, int group,
                      const Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns) override;

 private:
  LocalEngine* engine_;
};

/// \brief Knobs of one sharded ingestion run.
struct ShardedSourceOptions {
  /// Tuples a shard pulls from its Source per FillChunk call; also bounds
  /// the size of one routed batch.
  int chunk_tuples = 4096;
  /// Staged routed batches per shard SPSC queue — the backpressure bound: a
  /// shard blocks once it is this many batches ahead of the coordinator, so
  /// ingestion memory stays O(num_shards * queue_capacity * chunk_tuples).
  int queue_capacity = 4;
  /// Registry the runner publishes per-shard ingestion counters into after
  /// each Run (source_shard_* series, labelled by shard). nullptr = off.
  MetricsRegistry* metrics = nullptr;
};

/// \brief Per-shard counters of one Run (offered load and backpressure).
struct ShardIngestStats {
  int64_t tuples = 0;          ///< Tuples pulled from the shard's source.
  int64_t chunks = 0;          ///< Non-empty FillChunk calls.
  int64_t blocked_pushes = 0;  ///< Queue-full backpressure stalls.
  int64_t blocked_wait_ns = 0; ///< Wall time spent in those stalls.
  int64_t queue_highwater = 0; ///< Peak SPSC queue occupancy (batches).
};

/// \brief Result of one Run over all shards.
struct ShardedIngestReport {
  std::vector<ShardIngestStats> shards;
  int64_t total_tuples = 0;
};

/// \brief Drives a set of source shards to exhaustion into a sink.
///
/// One Source per shard — shards are independent partitions of the input
/// (in broker terms: one consumer per topic partition), so each can be
/// generated, routed and backpressured on its own.
///
///  - num_shards == 1: the shard runs inline on the calling thread and
///    hands unrouted chunks to ShardSink::IngestChunk — byte-for-byte the
///    chunked-InjectBatch ingestion the engine had before sharding existed.
///  - num_shards  > 1: every shard gets a producer thread that pulls
///    chunks from its Source, routes each tuple to its source key group
///    (LocalEngine::RouteKey), and pushes per-group routed batches into its
///    bounded SPSC queue, blocking when the queue is full (backpressure).
///    The calling thread is the coordinator: it round-robins over the
///    queues and feeds each popped batch to ShardSink::IngestRouted, so all
///    engine mutation stays on one thread while generation + routing — the
///    ingestion hot path — runs on the shards. Per-(shard, key-group)
///    tuple order is preserved end to end; cross-shard interleaving is
///    unspecified (shards are independent partitions).
///
/// A sink error aborts the run: every queue is closed, which unblocks and
/// stops the producers, and the error is returned after all threads join.
class ShardedSourceRunner {
 public:
  explicit ShardedSourceRunner(ShardedSourceOptions options = {});

  /// \brief Runs every shard to exhaustion. \p num_source_groups is the
  /// source operator's key-group count (topology.op(source_op)
  /// .num_key_groups), used by the shard-side router.
  Result<ShardedIngestReport> Run(const std::vector<Source*>& sources,
                                  OperatorId source_op, int num_source_groups,
                                  ShardSink* sink);

 private:
  /// Publishes \p report into options_.metrics (no-op when unset).
  void PublishShardStats(const ShardedIngestReport& report) const;

  ShardedSourceOptions options_;
};

}  // namespace albic::engine
