#pragma once

/// \file
/// \brief LocalEngine, the single-process PSPE runtime: executes
/// operator code over simulated nodes in batches drained in waves, and
/// implements direct, indirect (checkpoint + replay) and lease (zero-copy
/// ownership flip: the state slot never moves) state migration plus
/// checkpoint-based failure recovery — all four as one rebuild step plus
/// one cutover step.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/profiler.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/assignment.h"
#include "engine/batch.h"
#include "engine/cluster.h"
#include "engine/comm_matrix.h"
#include "engine/journey.h"
#include "engine/metrics.h"
#include "engine/migration.h"
#include "engine/operator.h"
#include "engine/replay_log.h"
#include "engine/topology.h"
#include "engine/tuple.h"

namespace albic::engine {

class CheckpointCoordinator;
struct CheckpointInfo;

/// \brief How the runtime executes operator code. The batched runtime is
/// the only one; the enum remains for callers that still name it.
enum class ExecutionMode {
  /// Routed tuples are staged into per-(simulated-)node mailboxes and
  /// drained in TupleBatch units, wave by wave, on the calling thread.
  kBatched,
};

/// \brief Options of the local runtime.
struct LocalEngineOptions {
  /// Extra work units charged to BOTH endpoint nodes for every tuple that
  /// crosses nodes (serialization at the sender, deserialization at the
  /// receiver) — the overhead collocation eliminates (§1).
  double serde_cost = 0.5;
  /// Window cadence in event-time microseconds (0 disables windows).
  int64_t window_every_us = 60LL * 1000 * 1000;
  /// Unread: kBatched is the only execution mode.
  ExecutionMode mode = ExecutionMode::kBatched;
  /// Unread: the driving thread drains every wave.
  int num_workers = 1;
  /// Injected tuples buffered before the pipeline is drained; also caps the
  /// size of one TupleBatch. Larger batches amortize routing and statistics
  /// work further at the cost of staging memory (32 bytes/tuple) and
  /// coarser drain granularity.
  int max_batch_tuples = 4096;
  /// Latency telemetry: sample one ingestion timestamp (event time + wall
  /// clock) every this many ingested tuples and derive queueing delay,
  /// per-operator service time and end-to-end latency from them
  /// (EnginePeriodStats::latency). 0 disables telemetry entirely — no
  /// clock reads, no histograms, no change to any hot path. Telemetry never
  /// touches tuple flow, so outputs are bit-identical either way.
  int latency_sample_every = 0;
  /// Wave-phase profiling: decompose the driving thread's wall time into
  /// phases — ingest routing, per-(operator, key-group) service,
  /// wave-barrier coordination, window fires, checkpoint rounds, migration
  /// stalls, recovery, idle — harvested as EnginePeriodStats::phases. Like
  /// latency telemetry, profiling observes and never steers: outputs are
  /// bit-identical on or off, and off costs one predictable branch per
  /// instrumented site (no clock reads).
  bool profile_wave_phases = false;
  /// Sampled per-tuple journeys (requires latency_sample_every > 0, whose
  /// ingest stamps the journeys extend): start one causal journey record
  /// every this many ingested tuples and surface the worst few per period
  /// in EnginePeriodStats::journeys, with per-hop queue/service breakdown.
  /// 0 disables journeys. Journeys observe, never steer — outputs
  /// bit-identical either way.
  int journey_sample_every = 0;
  /// Metrics registry the engine publishes into: per-period counters at
  /// HarvestPeriod (tuples, waves, checkpoint/replay/recovery totals,
  /// mailbox high-water marks, latency histograms when telemetry is on)
  /// plus per-mode migration counts as they complete. nullptr (the
  /// default) disables publishing entirely — no registry lookups, no
  /// atomics, outputs bit-identical either way (publishing, like latency
  /// telemetry, observes and never steers).
  MetricsRegistry* metrics = nullptr;
};

/// \brief Per-period measurements produced by the runtime; feeds the same
/// statistics pipeline as the flow simulator.
struct EnginePeriodStats {
  std::vector<double> group_work;   ///< Work units per key group.
  std::vector<double> node_work;    ///< Work units per node (incl. serde).
  CommMatrix comm;                  ///< Tuples sent between key groups.
  int64_t tuples_processed = 0;
  int64_t tuples_buffered = 0;      ///< Held during migrations this period.
  double migration_pause_us = 0.0;  ///< Summed migration pause time.
  int64_t checkpoints_taken = 0;    ///< Group snapshots written this period.
  int64_t checkpoint_bytes = 0;     ///< Serialized snapshot bytes written.
  int64_t tuples_replayed = 0;      ///< Log entries reapplied (indirect
                                    ///< migration + recovery).
  int64_t groups_recovered = 0;     ///< Lost groups restored this period.
  /// Source tuples entering the engine per ingestion shard this period
  /// (index = shard id; Inject/InjectBatch count as shard 0, InjectRouted
  /// as its shard). Grown on demand; the sum is the true offered load, as
  /// opposed to tuples_processed which also counts downstream hops.
  std::vector<int64_t> shard_ingested;
  /// Drain waves executed this period (a wave = one pass over the node
  /// mailboxes, the engine's unit of quiescence).
  int64_t waves = 0;
  /// Largest number of batches pending in any single node mailbox when a
  /// wave collected it — the formerly invisible staging depth between
  /// ingestion and service (the in-engine analogue of the SPSC occupancy
  /// high-water mark).
  int64_t mailbox_highwater = 0;
  /// Latency telemetry of the period (empty unless the engine runs with
  /// latency_sample_every > 0): end-to-end, queueing-delay and per-operator
  /// service-time histograms.
  LatencyPeriodStats latency;
  /// Wave-phase wall-time decomposition of the period (empty unless the
  /// engine runs with profile_wave_phases): per-phase nanoseconds, the
  /// measured wall time they are checked against, and per-group service
  /// attribution.
  PhaseBreakdown phases;
  /// Worst-N sampled journeys completed this period (empty unless the
  /// engine runs with journey_sample_every > 0): per-hop queue/service
  /// breakdown of tail-latency exemplars.
  std::vector<CompletedJourney> journeys;
};

/// \brief What one checkpoint slice wrote (see CheckpointDirtyGroups).
struct CheckpointRoundResult {
  int groups = 0;          ///< Dirty groups snapshotted (bases and deltas).
  int64_t bytes = 0;       ///< Serialized bytes written to the store.
  int delta_groups = 0;    ///< Of the groups, ones written as delta records.
  int64_t delta_bytes = 0; ///< Of the bytes, ones in delta records.
};

/// \brief Outcome of restoring one lost key group (see RecoverGroup).
struct GroupRecovery {
  double pause_us = 0.0;       ///< Modeled restore + replay latency.
  int64_t replayed = 0;        ///< Replay-log entries reapplied.
  uint64_t restored_bytes = 0; ///< Checkpoint bytes deserialized.
};

/// \brief Predicted pause of migrating one key group in each mode (see
/// EstimateMigrationPause). The controller compares the modes to pick the
/// cheapest per migrated group, and reports predicted vs. actual.
struct MigrationPauseEstimate {
  /// Direct O(state) pause, from the topology's modeled state bytes (the
  /// actual pause uses the real serialized size, so the delta measures the
  /// state model's error).
  double direct_us = 0.0;
  /// Indirect O(suffix) pause: the replay-log events past the group's
  /// latest checkpoint. Exact at a quiescent point — FinishMigration will
  /// replay precisely these events. Meaningless unless indirect_available.
  double indirect_us = 0.0;
  /// The group has a usable checkpoint (one whose covered prefix the
  /// replay log still reaches); without one an indirect migration would
  /// fall back to the direct round-trip.
  bool indirect_available = false;
  /// Lease flip: reassign the group's owner while its state slot stays
  /// put — zero bytes serialized, zero background transfer, nothing
  /// buffered. Modeled as zero. Meaningless unless lease_available.
  double lease_us = 0.0;
  /// A lease flip is possible: the group's state sits live in its slot.
  /// False only for groups lost across a FailNode boundary, where the
  /// slot's state is gone and checkpoint + replay is the recovery path.
  bool lease_available = false;
};

/// \brief A deterministic single-process PSPE runtime over simulated nodes.
///
/// Executes real operator code, routes across the topology per the edges'
/// partitioning patterns, accounts processing and serialization work per
/// (simulated) node, and implements direct state migration (§3): upstreams
/// redirect, new tuples buffer at the target, the state is
/// serialized/deserialized, then buffered tuples drain.
///
/// Injected tuples stage into per-(operator, key-group) TupleBatches; a
/// drain processes them in waves — each wave takes the current node
/// mailboxes, delivers their batches (ProcessBatch), and routes the emitted
/// tuples into next-wave mailboxes. The driving thread runs every wave, so
/// execution is deterministic. Tuple order is preserved per (source group
/// -> destination group) stream, the guarantee key-group parallelism gives
/// (§3). Statistics and operator state match a synchronous depth-first
/// cascade of the same input bit for bit (tests/engine/reference_cascade.h
/// is that oracle).
///
/// Migrations and cluster changes must be performed from the driving thread
/// between injections; a migration started while batches are in flight
/// simply buffers every tuple later delivered to the group, preserving
/// arrival order, and FinishMigration drains the buffer before new input.
class LocalEngine {
 public:
  /// \brief Operator implementations are supplied per OperatorId; entries
  /// may be null for source operators (they only inject).
  LocalEngine(const Topology* topology, const Cluster* cluster,
              Assignment initial, std::vector<StreamOperator*> operators,
              LocalEngineOptions options = LocalEngineOptions());

  /// \brief Injects one source tuple into \p source_op. Advances event time
  /// and fires windows as needed. The tuple is staged; the pipeline drains
  /// once max_batch_tuples accumulated (or on Flush / window boundaries /
  /// HarvestPeriod), so read operator state only after one of those.
  Status Inject(OperatorId source_op, const Tuple& tuple);

  /// \brief Bulk injection: semantically identical to calling Inject for
  /// every tuple in order, but the whole chunk scatters to its source
  /// groups in one pass (sources hand the engine chunks, so per-call
  /// overhead buys nothing).
  Status InjectBatch(OperatorId source_op, const Tuple* tuples, size_t count);

  /// \brief Sharded ingestion entry point: a run of tuples that an
  /// ingestion shard already routed to source key group \p group_index of
  /// \p source_op (see engine/sharded_source.h). Semantically the tuples
  /// enter like Inject — event time advances, windows fire, migrations
  /// buffer — but the RouteKey hash is trusted rather than recomputed, and
  /// the whole run is appended to the owning mailbox in one step when no
  /// window boundary falls inside it. Must be called from the driving
  /// thread (the shard runner's coordinator). \p shard indexes the
  /// per-shard ingestion counter in EnginePeriodStats. \p ingest_wall_ns is
  /// the wall-clock instant the run left its source (stamped on the shard
  /// thread, so end-to-end latency includes shard-queue wait); 0 means
  /// "stamp here" — used when telemetry samples an ingestion timestamp.
  Status InjectRouted(OperatorId source_op, int shard, int group_index,
                      const Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns = 0);

  /// \brief Drains all staged and in-flight batches: afterwards every
  /// injected tuple has been processed (or buffered by a migration).
  void Flush();

  /// \brief Begins moving a key group to \p to. Each mode is one row of
  /// the reconfiguration pipeline, a state source plus a cutover (see
  /// docs/ARCHITECTURE.md, "Reconfiguration pipeline"). kDirect/kIndirect
  /// cut over by buffering: subsequent tuples for the group buffer at the
  /// target until FinishMigration. kLease records the target only: nothing
  /// buffers — the group keeps processing live at its source until
  /// FinishMigration flips ownership. kIndirect requires checkpointing
  /// (EnableCheckpointing); kLease needs none — the state slot never moves.
  Status StartMigration(KeyGroupId group, NodeId to,
                        MigrationMode mode = MigrationMode::kDirect);

  /// \brief Completes the migration and returns the modeled pause (us).
  /// Buffered cutover: direct round-trips the live state (pause O(state));
  /// indirect restores the newest checkpoint chain and replays the logged
  /// suffix (the base travels in the background, so the pause is
  /// O(deltas + suffix)), falling back to the direct round-trip without a
  /// usable chain; then ownership flips and the buffer drains. Lease:
  /// nothing is rebuilt or buffered; ownership flips here, and the
  /// returned pause is zero. Every mode changes owner here (or in
  /// RecoverGroup) and nowhere else. A failed rebuild is returned here and
  /// by this group's call only; the group is then lost exactly as after
  /// FailNode (listed in lost_groups(), input buffered until RecoverGroup).
  Result<double> FinishMigration(KeyGroupId group);

  /// \brief Convenience: start + finish in one step.
  Status MigrateGroup(KeyGroupId group, NodeId to,
                      MigrationMode mode = MigrationMode::kDirect);

  /// \brief Predicted pause of migrating \p group directly (O(state),
  /// modeled bytes) vs. indirectly (O(suffix), exact replay-log suffix
  /// past the latest checkpoint). The controller uses this to choose the
  /// cheaper mode per migrated group.
  MigrationPauseEstimate EstimateMigrationPause(KeyGroupId group) const;

  /// \brief Per-group lease availability: 1 when the group's slot holds
  /// live state (ownership can flip by lease, zero bytes),
  /// 0 for groups lost to a node failure and awaiting checkpoint recovery.
  /// Feeds MeasuredSignals::lease_available, which zeroes the planner's
  /// migration-cost budget terms for lease-eligible groups.
  std::vector<uint8_t> LeaseAvailability() const;

  /// \brief Accounts a modeled overload stall as latency: \p tuples tuples
  /// experienced \p pause_us of modeled queueing the single-process runtime
  /// cannot produce for real (a node whose measured service demand exceeds
  /// its capacity falls behind; the excess is its backlog delay). Recorded
  /// in the stall histogram like migration pauses, so modeled pause stays
  /// apart from measured latency; reported percentiles fold it in.
  void RecordOverloadStall(double pause_us, int64_t tuples) {
    RecordBufferedPause(pause_us,
                        tuples > 0 ? static_cast<size_t>(tuples) : 0);
  }

  // --- checkpointing & failure recovery --------------------------------

  /// \brief Attaches the checkpoint subsystem: every delivery (and window
  /// firing) is recorded in per-group replay logs, dirty groups are
  /// tracked, and \p coordinator is invoked at safe points (between
  /// waves) to take periodic incremental checkpoints. An initial full
  /// checkpoint of all operator groups is taken immediately so "latest
  /// checkpoint + logged suffix = live state" holds from the start.
  /// \p coordinator is not owned and must outlive the engine's use of it.
  Status EnableCheckpointing(CheckpointCoordinator* coordinator);

  bool checkpointing_enabled() const { return checkpointer_ != nullptr; }

  /// \brief Serializes every dirty operator group due by the coordinator's
  /// phase tick \p due_by (default: all, a full round) into the attached
  /// store, truncates the covered log prefixes and moves each imaged group
  /// to its next phase tick. Called by the coordinator, which writes the
  /// manifest; also callable directly for a forced round.
  Result<CheckpointRoundResult> CheckpointDirtyGroups(
      int64_t due_by = INT64_MAX);

  /// \brief True when some group's replay log outgrew the coordinator's
  /// soft bound since the last full round (forces the next one).
  bool replay_log_overflowed() const { return log_overflow_; }

  /// \brief Drops a node abruptly: the cluster keeps the node id but the
  /// state of every key group on it is lost (cleared), and the groups
  /// buffer new input until RecoverGroup — the path a group whose rebuild
  /// failed takes too. Requires checkpointing (there is nothing to recover
  /// from otherwise). Moves *to* the failed node are cancelled: the group
  /// stays at its source and drains its buffer there. The caller is
  /// responsible for Cluster::Fail on the same node.
  Status FailNode(NodeId node);

  /// \brief Key groups lost to failures and not yet recovered.
  const std::vector<KeyGroupId>& lost_groups() const { return lost_groups_; }

  /// \brief Restores a lost group onto \p to: the pipeline's chain rebuild
  /// (newest checkpoint chain + logged suffix; emissions are discarded —
  /// downstream groups already received them) with a buffered cutover —
  /// ownership flips to \p to and the tuples buffered during the outage
  /// drain. Zero tuples are lost: everything delivered before the failure
  /// is covered by checkpoint + log, everything after it sits in the
  /// buffer. A failed rebuild is returned and the group stays lost.
  /// Requires checkpointing (there is nothing to restore from otherwise).
  Result<GroupRecovery> RecoverGroup(KeyGroupId group, NodeId to);

  /// \brief Cumulative tuples ingested per source shard over the engine's
  /// lifetime (the replayable sources' rewind offsets; recorded in each
  /// checkpoint manifest).
  const std::vector<int64_t>& shard_offsets() const { return shard_offsets_; }

  /// \brief Read access to a group's replay log (tests, cost accounting).
  const ReplayLog& replay_log(KeyGroupId group) const {
    return group_logs_[group];
  }

  /// \brief Harvests and resets the current period's statistics. Flushes
  /// in-flight batches first so the period is complete.
  EnginePeriodStats HarvestPeriod();

  /// \brief Latency telemetry active (latency_sample_every > 0)?
  bool latency_telemetry_enabled() const { return telemetry_; }

  /// \brief Wave-phase profiling active (profile_wave_phases)?
  bool phase_profiling_enabled() const { return prof_ != nullptr; }

  /// \brief Journey sampling active (journey_sample_every > 0, telemetry
  /// on)?
  bool journey_sampling_enabled() const { return journeys_.enabled(); }

  const Assignment& assignment() const { return assignment_; }
  const Topology& topology() const { return *topology_; }

  int64_t event_time() const { return event_time_us_; }
  const LocalEngineOptions& options() const { return options_; }

  /// \brief Routes a key to an operator-local group index (hash routing).
  static int RouteKey(uint64_t key, int num_groups);

 private:
  class RouteEmitter;

  struct MigrationState {
    bool active = false;
    /// Group's state is gone (its node died, or its rebuild failed);
    /// awaiting RecoverGroup.
    bool lost = false;
    MigrationMode mode = MigrationMode::kDirect;
    NodeId target = kInvalidNode;
    std::deque<Tuple> buffer;
  };

  /// Where a rebuild takes a group's state from (the cutover is
  /// MigrationBuffers). A lease rebuilds nothing: the slot never moves.
  enum class StateSource {
    kLive,   ///< Direct: round-trip the live state.
    kChain,  ///< Indirect, recovery: newest chain + logged suffix.
  };

  /// What one RebuildGroup call deserialized and replayed.
  struct Rebuild {
    int64_t bytes = 0;        ///< Deserialized: live image or base + deltas.
    int64_t delta_bytes = 0;  ///< Of bytes, the chained delta records.
    int64_t replayed = 0;     ///< Log entries reapplied on top of the chain.
    /// Bytes the rebuild carried: the image plus the replayed suffix.
    int64_t shipped() const {
      return bytes + replayed * static_cast<int64_t>(sizeof(Tuple));
    }
  };

  /// A run: the tuples one operator call, or one RouteBatch edge, sends to
  /// one destination group. They append in place to the batch OpenBatch
  /// picked at the run's first tuple, and CloseRuns accounts them.
  struct Run {
    int target = 0;  ///< Destination group index, run_dst_'s slot.
    KeyGroupId dst_global = 0;
    NodeId dst_node = kInvalidNode;
    size_t start = 0;  ///< The batch's size when the run opened.
  };

  /// One staged unit of work: a batch bound for (op, group).
  struct PendingBatch {
    OperatorId op = 0;
    int group_index = 0;
    TupleBatch batch;
    /// Wall-clock enqueue instant (telemetry only; 0 = unstamped), so
    /// queueing delay spans enqueue to dequeue.
    int64_t enqueue_ns = 0;
  };

  // --- checkpointing helpers ---
  /// Marks a group dirty after a log append and raises the overflow flag
  /// when its log outgrew the coordinator's soft bound.
  void MarkLogged(KeyGroupId g) {
    group_dirty_[g] = 1;
    if (group_logs_[g].size() > max_log_entries_) log_overflow_ = true;
  }
  /// Zero-copy append of a delivered batch: the log takes the batch's
  /// vector (the unit of delivery), so logging adds no second copy of the
  /// tuple stream. The caller's batch is left empty.
  void LogDeliveredBatch(KeyGroupId g, TupleBatch* batch) {
    group_logs_[g].AppendChunk(std::move(batch->mutable_tuples()));
    MarkLogged(g);
  }
  void LogWindowFire(KeyGroupId g);
  /// Reapplies logged entries with seq >= \p from_seq to the group's
  /// operator state, discarding emissions; returns the entry count.
  int64_t ReplayLogSuffix(KeyGroupId g, uint64_t from_seq);
  // --- the reconfiguration pipeline (table in local_engine.cc) ---
  /// True when \p g has a checkpoint chain the replay log still reaches,
  /// so chain + logged suffix rebuilds its live state exactly. Fills
  /// \p info, and the chain's payloads when \p base / \p deltas are set.
  bool UsableChain(KeyGroupId g, CheckpointInfo* info,
                   std::string* base = nullptr,
                   std::vector<std::string>* deltas = nullptr) const;
  /// The source a buffered move of \p g in \p mode rebuilds from: the
  /// mode's row, with a chain falling back to the live round-trip when
  /// none is usable.
  StateSource MoveSource(KeyGroupId g, MigrationMode mode) const;
  /// The rebuild step of every mode and of recovery. A lost group without
  /// a chain whose log still starts at seq 0 rebuilds from empty state plus
  /// its whole log. On failure the group is lost (LoseGroup) and the error
  /// returned.
  Status RebuildGroup(KeyGroupId g, StateSource source, Rebuild* out);
  /// The cutover of every mode and of recovery, and the only code that
  /// writes a group's owner: ownership flips to \p to (kInvalidNode: a
  /// cancelled move, no flip), the record resets and the buffer drains.
  /// The drain also delivers every batch staged for the old owner before
  /// any batch routed to the new one can run.
  void Cutover(KeyGroupId g, NodeId to);
  /// Marks \p g lost (FailNode, failed rebuilds): its state is cleared and
  /// new input buffers until RecoverGroup.
  void LoseGroup(KeyGroupId g);
  /// Drains the tuples buffered for a group while it migrated/recovered.
  void DrainMigrationBuffer(KeyGroupId g);

  // --- latency telemetry helpers ---
  static int64_t NowNs();
  /// Counts \p count ingested tuples against the sampling interval and,
  /// when it elapses, records an ingestion sample {\p ts, wall}. \p wall_ns
  /// is the shard-thread stamp (0 = stamp here). Samples stay monotone in
  /// event time (late tuples never roll the frontier back).
  void MaybeSampleIngest(int64_t ts, size_t count, int64_t wall_ns);
  /// Newest ingestion sample with event_ts <= \p ts; false when none.
  bool LookupIngestSample(int64_t ts, IngestSample* out) const;
  /// Records service time (and, for sink operators, end-to-end latency)
  /// of a batch that started processing at \p t0_ns. Returns the service
  /// end wall stamp, so journey hops reuse the clock read.
  int64_t RecordBatchLatency(OperatorId op, KeyGroupId g, size_t tuples,
                             int64_t last_ts, int64_t t0_ns);
  /// Tuples held in a migration/recovery buffer sat out the modeled pause;
  /// account it as their end-to-end latency (the single-process runtime
  /// cannot make the inter-node transfer take real wall time).
  void RecordBufferedPause(double pause_us, size_t buffered);

  // --- staging, waves and routing ---
  void CountIngested(int shard, size_t count);
  /// What an ingest call returns once its tuples are in: OK, or the
  /// coordinator's sticky error after a checkpoint write failed.
  Status IngestStatus() const;
  void StageIngress(OperatorId op, int group_index, const Tuple& tuple);
  void FlushInjectScatter(OperatorId source_op);
  void DrainAll();
  void RunWave(std::vector<std::vector<PendingBatch>>* wave);
  /// Delivers one batch to (op, group_index). With checkpointing enabled
  /// the batch's vector may be moved into the group's replay log, leaving
  /// \p batch empty on return. \p enqueue_ns is the mailbox enqueue stamp
  /// (telemetry; 0 when the batch never sat in a mailbox).
  void DeliverBatch(OperatorId op, int group_index, TupleBatch* batch,
                    int64_t enqueue_ns = 0);
  /// Calls \p call (operator code taking an Emitter*) with the emitter
  /// \p op's output needs: a RouteEmitter when \p op has a direct edge,
  /// else one staging into emitted_. \p input_tuples sizes fresh batches.
  template <typename Call>
  void CallOperator(OperatorId op, size_t input_tuples, Call call);
  /// Sends what the last CallOperator on (\p op, \p group_index) emitted:
  /// closes its runs, or routes emitted_ edge by edge.
  void RouteOutput(OperatorId op, int group_index);
  void RouteBatch(OperatorId from_op, int from_group, const TupleBatch& batch);
  /// Appends \p t to the run of its destination group among \p to_op's
  /// \p down_groups, opening the run at the group's first tuple.
  void RouteTuple(OperatorId to_op, int down_groups, size_t first_run,
                  const Tuple& t) {
    const int target = RouteKey(t.key, down_groups);
    std::vector<Tuple>* dst = run_dst_[target];
    if (dst == nullptr) dst = OpenRun(to_op, target, first_run);
    dst->push_back(t);
  }
  std::vector<Tuple>* OpenRun(OperatorId to_op, int target, size_t first_run);
  /// Accounts every open run as sent from \p src_global, in the order the
  /// runs opened, and closes them.
  void CloseRuns(KeyGroupId src_global, NodeId src_node);
  /// Charges one run of \p count tuples: its comm entry and, across
  /// nodes, the serde cost at both ends.
  void AccountRun(KeyGroupId src_global, NodeId src_node,
                  KeyGroupId dst_global, NodeId dst_node, size_t count);
  /// A one-to-one or partial-merge edge's run: accounted, then appended.
  void SendRouted(OperatorId to_op, int target_group, KeyGroupId src_global,
                  NodeId src_node, const Tuple* data, size_t count);
  void AppendRouted(NodeId node, OperatorId op, int group_index,
                    KeyGroupId dst_global, const Tuple* data, size_t count);
  /// The batch in \p node's mailbox that a run bound for (op,
  /// group_index) appends to: the group's open batch, or a new one when
  /// there is none or it already holds max_batch_tuples. Re-aims the open
  /// runs when opening one moves the mailbox's batches.
  PendingBatch& OpenBatch(NodeId node, OperatorId op, int group_index,
                          KeyGroupId dst_global, size_t first_run);
  std::vector<Tuple> AcquireVec();
  /// AcquireVec for a batch whose first run is expected to hold about
  /// \p first_run tuples: pre-reserves capacity when checkpointing has
  /// drained the pool.
  std::vector<Tuple> AcquireVecFor(size_t first_run);
  void ReleaseVec(std::vector<Tuple>&& vec);
  /// Closes every window boundary up to \p new_time: drains, then fires
  /// each operator's groups in topological order, draining the emissions
  /// before the next operator fires.
  void MaybeFireWindows(int64_t new_time);
  /// True when \p ts requires the out-of-line window machinery (boundary
  /// crossed, or origin not yet initialized).
  bool WindowBoundaryCrossed(int64_t ts) const {
    return options_.window_every_us > 0 &&
           (!time_initialized_ ||
            ts - last_window_us_ >= options_.window_every_us);
  }

  // --- metrics publishing (inert when options_.metrics is null) ---
  /// Registry series the engine publishes, resolved once at construction so
  /// the periodic publish path does no name lookups.
  struct EngineMetricSet {
    CounterMetric* tuples_processed = nullptr;
    CounterMetric* tuples_buffered = nullptr;
    CounterMetric* waves = nullptr;
    CounterMetric* migration_pause_us = nullptr;
    CounterMetric* checkpoints = nullptr;
    CounterMetric* checkpoint_bytes = nullptr;
    CounterMetric* checkpoint_delta_groups = nullptr;
    CounterMetric* checkpoint_delta_bytes = nullptr;
    CounterMetric* tuples_replayed = nullptr;
    CounterMetric* groups_recovered = nullptr;
    /// Completed moves per mode (`engine_migrations_total{mode=...}`),
    /// indexed by MigrationMode.
    CounterMetric* migrations[kNumMigrationModes] = {};
    /// Bytes each migration mode moved or replayed
    /// (`engine_migration_bytes_total{mode=...}`): direct = serialized
    /// state round-trips, indirect = chained deltas + replayed suffix,
    /// lease = always zero (the series exists so dashboards and benches
    /// can assert the zero).
    CounterMetric* migration_bytes[kNumMigrationModes] = {};
    GaugeMetric* mailbox_highwater = nullptr;
    GaugeMetric* chain_len_highwater = nullptr;
    HistogramMetric* e2e_latency_us = nullptr;
    HistogramMetric* queue_delay_us = nullptr;
    HistogramMetric* stall_e2e_us = nullptr;
    /// Per-phase wall-time counters (`engine_phase_ns_total{phase=...}`);
    /// wired only when profile_wave_phases is on.
    CounterMetric* phase_ns[kNumWavePhases] = {};
  };
  /// Resolves metrics_ from options_.metrics (constructor).
  void WireMetrics();
  /// Publishes one harvested period into the registry (HarvestPeriod).
  void PublishPeriodMetrics(const EnginePeriodStats& stats);

  const Topology* topology_;
  const Cluster* cluster_;
  /// Group -> owner node (the paper's q matrix); written by Cutover only.
  Assignment assignment_;
  /// Per-operator state slots, indexed by OperatorId (null for stateless
  /// sources). Every operator instance keys its state by group, so a slot
  /// never moves between nodes: only its owner in assignment_ changes.
  std::vector<StreamOperator*> operators_;
  LocalEngineOptions options_;

  std::vector<MigrationState> migrating_;  // per key group
  EnginePeriodStats period_;

  // Checkpointing state (unused until EnableCheckpointing).
  CheckpointCoordinator* checkpointer_ = nullptr;
  std::vector<ReplayLog> group_logs_;   ///< Per key group.
  std::vector<uint8_t> group_dirty_;    ///< Changed since last snapshot.
  std::vector<int64_t> checkpoint_due_;  ///< Next due phase tick.
  size_t max_log_entries_ = 0;          ///< Cached coordinator soft bound.
  /// Delta checkpoints: chain_len_[g] is the number of deltas chained onto
  /// g's newest base in the store, -1 before the group has any base.
  std::vector<int> chain_len_;
  int max_delta_chain_ = 0;             ///< Cached coordinator option.
  /// Set when a log overflows; cleared by the next round.
  bool log_overflow_ = false;
  std::vector<int64_t> shard_offsets_;  ///< Lifetime ingested per shard.
  std::vector<KeyGroupId> lost_groups_;
  /// Scratch for log truncation (chunk vectors en route back to the pool).
  std::vector<std::vector<Tuple>> freed_chunks_;
  int64_t event_time_us_ = 0;
  int64_t last_window_us_ = 0;
  bool time_initialized_ = false;

  // Latency telemetry state (inert when telemetry_ is false).
  bool telemetry_ = false;
  std::vector<uint8_t> is_sink_;     ///< Per operator: no downstream edges.
  /// Ingestion samples, ascending in event time; compacted in place once it
  /// outgrows 2 * kMaxIngestSamples.
  std::vector<IngestSample> ingest_samples_;
  static constexpr size_t kMaxIngestSamples = 256;
  int64_t sample_countdown_ = 1;     ///< Tuples until the next sample.
  int64_t last_sample_ts_us_ = INT64_MIN;

  // Wave-phase profiling state (inert when prof_ is null).
  /// The driving thread's exclusive phase clock.
  PhaseAccumulator prof_acc_;
  /// &prof_acc_ when profiling, else null (PhaseScope is inert on null).
  PhaseAccumulator* prof_ = nullptr;
  int64_t period_start_wall_ns_ = 0;  ///< Wall stamp of the period start.
  /// Sampled journey tracking (inert unless journey_sample_every > 0).
  JourneyTracker journeys_;

  // Staging and mailbox state.
  std::vector<std::vector<StreamEdge>> downstream_;  ///< Edges per operator.
  std::vector<PendingBatch> ingress_;        ///< Staged injected tuples.
  std::vector<int32_t> ingress_slot_;        ///< Global group -> ingress_ idx.
  std::vector<KeyGroupId> ingress_used_;     ///< Groups with a live slot.
  /// InjectBatch scatter scratch for real sources: one bucket per source
  /// group, delivered inline by FlushInjectScatter.
  std::vector<std::vector<Tuple>> inject_buckets_;
  std::vector<int> inject_touched_;
  std::vector<std::vector<PendingBatch>> mailboxes_;  ///< Per node.
  int64_t staged_tuples_ = 0;  ///< Injected since the last drain.
  /// Per operator: the destination of its only downstream edge when that
  /// edge partitions by key, so its output routes as it is emitted; -1
  /// otherwise (no edge, several, or one-to-one / partial merge).
  std::vector<OperatorId> direct_to_;
  /// Output of an operator without a direct edge, staged for RouteBatch.
  TupleBatch emitted_;
  /// Open runs, in the order their first tuples came.
  std::vector<Run> runs_;
  /// Per destination group index: the batch vector its open run appends
  /// to, or null. Sized to the widest operator.
  std::vector<std::vector<Tuple>*> run_dst_;
  /// Free-list of tuple vectors: consumed batches return here and their
  /// capacity is reused, keeping the hot path allocation free once warm.
  std::vector<std::vector<Tuple>> vec_pool_;
  /// Global group -> index of the batch open for appends in its owner's
  /// mailbox. Validated before use, so stale entries self-heal; lets routed
  /// tuples coalesce across all source batches of a wave.
  std::vector<int32_t> open_slot_;
  /// Telemetry: cached wall clock used to stamp batches at enqueue.
  /// Refreshed at every batch delivery and ingest entry point, so stamps
  /// are at most one delivery stale — far below the queueing delays they
  /// measure — at a third of the clock reads.
  int64_t wall_cache_ns_ = 0;
  EngineMetricSet metrics_;  ///< All null unless options_.metrics is set.
};

}  // namespace albic::engine
