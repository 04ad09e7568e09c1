#pragma once

/// \file
/// \brief ControllerLoop, the online measure -> decide -> act
/// cycle: harvests measured engine statistics every period, runs one
/// adaptation round and lands the planned migrations on the live engine one
/// at a time, spread over the following period.
/// Node failures (KillNode) run their recovery round eagerly — the
/// assignment is re-planned over the surviving nodes and every lost group
/// restored from checkpoint + replay-log suffix before KillNode returns.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/adaptation_framework.h"
#include "engine/cost_model.h"
#include "engine/local_engine.h"
#include "engine/sharded_source.h"

namespace albic::core {

class RoundJournal;

/// \brief Configuration of the online control loop.
struct ControllerLoopOptions {
  /// Statistics-period length (SPL) in event-time microseconds; every
  /// boundary crossing triggers one adaptation round. 0 disables automatic
  /// rounds — the driver paces them explicitly via RunRoundNow (experiment
  /// harnesses that inject per period).
  int64_t period_every_us = 60LL * 1000 * 1000;
  /// Work units a capacity-1.0 node can execute per period at 100% load;
  /// converts the engine's measured work units into the
  /// percent-of-reference-node loads the rebalancers expect.
  double node_capacity_work_units = 1000.0;
  /// Feed the measured communication matrix into the snapshot (enables
  /// collocation-aware planning); disable for pure load-balancing jobs.
  bool use_comm = true;
  /// Measured-cost planning: feed the planners loads derived from the
  /// measured per-group wall service time (engine/cost_model.h) instead of
  /// tuple counts alone, plus the per-group service-time shares. With
  /// telemetry off (latency_sample_every == 0) this falls back
  /// bit-identically to the modeled tuple-count loads, so it is safe to
  /// leave on.
  bool use_measured_costs = true;
  /// Force every planned migration to the indirect mode (checkpoint +
  /// replay, pause O(log suffix) instead of O(state)); requires the engine
  /// to have checkpointing enabled — ignored (direct migration) otherwise.
  /// When false and checkpointing is on, the controller instead picks the
  /// cheaper predicted mode PER MIGRATED GROUP: indirect for groups whose
  /// replay-log suffix undercuts their state size, direct for the rest
  /// (reported per migration in ControllerRound::migration_decisions).
  bool use_indirect_migration = false;
  /// Opt into lease migration (engine::MigrationMode::kLease) for planned
  /// moves: reassign groups by flipping their owner while the state slot
  /// stays put — zero bytes serialized, zero background transfer, zero
  /// pause. It needs no checkpointing, and with it on lease wins for
  /// every group whose state is live in its slot
  /// (journal reason "lease-zero-cost"); only groups lost across a
  /// FailNode boundary fall back to the byte-moving modes and checkpoint
  /// recovery.
  /// Also zeroes the planner's per-group migration-cost budget terms for
  /// lease-eligible groups (MeasuredSignals::lease_available), so a
  /// constrained migration budget no longer throttles zero-cost moves.
  /// use_indirect_migration still takes precedence when both are set.
  /// Off by default so existing deployments, their pause accounting and
  /// their planner budgets stay byte-identical.
  bool use_lease_migration = false;
  /// Registry the loop publishes per-round controller counters into
  /// (controller_* series: rounds, migrations planned/applied, scaling
  /// actions, recovery, load view). nullptr (default) = off. Observability
  /// only — never steers a decision.
  MetricsRegistry* metrics = nullptr;
  /// Decision journal appended to after every round (core/round_journal.h).
  /// Not owned; must outlive the loop's use. nullptr (default) = off. A
  /// failed append never fails the round (the journal counts its errors).
  RoundJournal* journal = nullptr;
};

/// \brief One applied migration with the mode the controller chose for it
/// and the pause the cost model predicted vs. the pause the engine
/// modeled from the bytes it actually rebuilt (kEnginePauseUsPerByte ×
/// those bytes; neither pause is timed).
struct MigrationDecision {
  engine::KeyGroupId group = -1;
  engine::NodeId from = engine::kInvalidNode;
  engine::NodeId to = engine::kInvalidNode;
  engine::MigrationMode mode = engine::MigrationMode::kDirect;
  /// Pause the chosen mode was predicted to cost (direct: modeled state
  /// bytes; indirect: exact replay-log suffix).
  double predicted_pause_us = 0.0;
  /// Pause the engine reported: kEnginePauseUsPerByte × the bytes it
  /// rebuilt (the real serialized image or chain + suffix), a model, not
  /// a timing.
  double actual_pause_us = 0.0;
  /// The full prediction the choice was made from: every mode's estimated
  /// pause (-1 when the mode was unavailable for this group), journaled so
  /// the rejected alternatives are auditable alongside the winner.
  double est_direct_us = 0.0;
  double est_indirect_us = -1.0;
  double est_lease_us = -1.0;
  /// Why this mode won: "no-checkpointing" (direct is all there is),
  /// "forced-indirect" (use_indirect_migration), "indirect-cheaper",
  /// "lease-zero-cost", or "direct-cheapest".
  const char* reason = "direct-cheapest";
};

/// \brief Compact record of one adaptation round driven by the controller.
struct ControllerRound {
  int period = 0;
  int64_t tuples_processed = 0;
  /// Source tuples offered this period (sum over ingestion shards) — the
  /// true offered load, as opposed to tuples_processed which also counts
  /// downstream hops.
  int64_t tuples_ingested = 0;
  int64_t tuples_buffered = 0;
  // Every migrations_* field, migration_decisions and migration_pause_us
  // count the moves landed since the previous record: the previous round's
  // plan, plus this round's own when it landed them at once (see
  // ControllerLoop).
  /// Modeled pause of the landed moves (sum of actual_pause_us).
  double migration_pause_us = 0.0;
  /// Measured planning time of the round (AdaptationRound::plan_ms).
  double plan_ms = 0.0;
  /// A wall-clock cap cut the round's planning short, so its plan depends
  /// on host speed (AdaptationRound::plan_capped).
  bool plan_capped = false;
  /// Planned moves that came due, landed or dropped by the engine (a
  /// failure made them invalid, or the group already sat at the target).
  int migrations_planned = 0;
  int migrations_applied = 0;   ///< Of those, the moves the engine made.
  int migrations_direct = 0;    ///< Applied with direct O(state) moves.
  int migrations_indirect = 0;  ///< Applied via checkpoint + replay.
  /// Applied via lease flips (zero bytes, zero pause).
  int migrations_lease = 0;
  /// Per-migration record: chosen mode, predicted vs. actual pause.
  std::vector<MigrationDecision> migration_decisions;
  /// True when this round's planning loads came from measured service-time
  /// shares (telemetry produced data); false = tuple-count modeled loads.
  bool measured_costs = false;
  /// Measured wall service of the harvested period per node id, summed
  /// over the groups the engine's assignment placed on the node at
  /// harvest. Empty without latency telemetry.
  std::vector<double> node_service_us;
  int nodes_added = 0;
  int nodes_terminated = 0;
  int nodes_marked = 0;
  int active_nodes = 0;        ///< Cluster state after the round.
  int marked_nodes = 0;        ///< Ditto (drain still in progress).
  /// The period's measured loads on the assignment this round planned.
  double mean_load = 0.0;
  double load_distance = 0.0;  ///< Ditto.
  // Fault tolerance (0 on failure-free rounds).
  int nodes_failed = 0;         ///< Nodes killed since the previous round.
  /// Lost groups restored since the previous record: the round's node
  /// failures, and moves whose rebuild failed, restored where they landed.
  int groups_recovered = 0;
  int64_t tuples_replayed = 0;  ///< Log entries reapplied during recovery.
  double recovery_pause_us = 0.0;  ///< Modeled restore + replay latency.
  /// Measured wall-clock time of the whole recovery: detection, re-planning
  /// over the survivors, restore + replay, buffered-tuple drain.
  double recovery_wall_us = 0.0;
  int64_t checkpoints_taken = 0;   ///< Group snapshots in this period.
  int64_t checkpoint_bytes = 0;    ///< Snapshot bytes in this period.
  /// Measured latency of the harvested period (all zeros unless the engine
  /// runs with latency telemetry): p50/p99/max end-to-end, p99 queueing.
  engine::LatencySummary latency;
  // Causal attribution (engine profile_wave_phases; "off"/empty without).
  /// Stable name of the phase that dominated the period's measured wall
  /// time ("service", "wave_barrier", "checkpoint", ...).
  const char* dominant_phase = "off";
  double dominant_phase_share = 0.0;  ///< Dominant phase's time share.
  /// Per-phase nanoseconds of the period (indexed by albic::WavePhase).
  int64_t phase_ns[albic::kNumWavePhases] = {};
  /// Measured wall time the phase sums are checked against.
  int64_t phase_wall_ns = 0;
  /// Top-k (operator, key group) pairs by measured wall service time.
  std::vector<engine::AttributedCost> top_costs;
};

/// \brief The online control loop (§3, "Controller"): turns Algorithm 1
/// from a library function into a running system.
///
/// Tuples stream in through Ingest; at every statistics-period boundary the
/// loop harvests the engine's measured EnginePeriodStats, converts them
/// into the controller's SystemSnapshot inputs (group loads in percent of a
/// reference node, plus the measured communication matrix) and runs one
/// integrative adaptation round (scaling + rebalancing + collocation).
///
/// The plan's n moves land one at a time: the i-th is due at event time
/// t + i * gap / (n + 1), t being the round's event time and gap the event
/// time since the previous round, and lands, after a flush, at the start of
/// the first ingest call whose first tuple has reached that time (no run is
/// split for a move). A round with no earlier round, or with gap 0, lands
/// its moves at once. Every round first lands the previous plan's
/// leftovers, so it plans from that plan fully applied; the engine drops a
/// leftover that a failure made invalid. Each move's mode is chosen per
/// group (see ControllerLoopOptions): a direct or indirect move buffers the
/// group's in-flight tuples and drains them at the target, a lease keeps
/// processing at the source until its finish flips ownership, so
/// adaptation never loses or reorders data. A move whose rebuild failed is
/// restored from checkpoint + replay where it landed, groups lost to a node
/// failure in the round that detects it. Each ControllerRound reports the
/// moves landed since the previous one.
///
/// No caller-supplied load vectors anywhere: the loop closes the
/// measure -> decide -> act cycle on real measurements.
class ControllerLoop {
 public:
  /// \brief None of the pointers are owned. \p cluster must be the cluster
  /// the engine runs on (scaling decisions mutate it).
  ControllerLoop(engine::LocalEngine* engine, AdaptationFramework* framework,
                 const engine::LoadModel* load_model,
                 const engine::Topology* topology, engine::Cluster* cluster,
                 ControllerLoopOptions options = ControllerLoopOptions());

  /// \brief Injects one source tuple, first running adaptation rounds for
  /// any period boundaries the tuple's event time has passed.
  Status Ingest(engine::OperatorId source_op, const engine::Tuple& tuple);

  /// \brief Bulk Ingest (chunked sources); boundaries are honoured inside
  /// the chunk.
  Status IngestBatch(engine::OperatorId source_op,
                     const engine::Tuple* tuples, size_t count);

  /// \brief Sharded ingestion: a pre-routed run for one source key group,
  /// produced by ingestion shard \p shard (engine/sharded_source.h).
  /// Period boundaries are honoured inside the run. With several shards a
  /// boundary fires when the first shard's tuples cross it; slower shards'
  /// tuples for the old period then count toward the next one — the
  /// measured-statistics analogue of watermark skew. \p ingest_wall_ns is
  /// the shard-thread wall stamp for latency telemetry (0 = unstamped).
  Status IngestRouted(engine::OperatorId source_op, int shard, int group,
                      const engine::Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns = 0);

  /// \brief Failure injection: drops node \p node abruptly. The state of
  /// every key group on it is lost, and the recovery round runs EAGERLY,
  /// before KillNode returns: the assignment is re-planned over the
  /// surviving nodes and each lost group restored from checkpoint +
  /// replay — no tuple is lost, and no window can fire during the outage
  /// (so the statistics period need not divide the window cadence).
  /// Requires the engine to have checkpointing enabled.
  Status KillNode(engine::NodeId node);

  /// \brief Runs one adaptation round immediately (e.g. at end of stream).
  /// If nodes failed since the last round, this round performs recovery.
  /// The returned record reports the moves landed since the previous one;
  /// this round's own moves are pending_moves() unless it landed them at
  /// once.
  Result<ControllerRound> RunRoundNow();

  /// \brief A planned move waiting for its due event time.
  struct PendingMove {
    engine::Migration move;
    int64_t due_us = 0;
  };
  /// \brief The latest plan's moves that have not landed yet, in plan
  /// order (due times ascending).
  const std::deque<PendingMove>& pending_moves() const { return pending_; }

  int rounds_run() const { return static_cast<int>(history_.size()); }
  const std::vector<ControllerRound>& history() const { return history_; }
  const ControllerLoopOptions& options() const { return options_; }

 private:
  /// Lands, after a flush, every pending move due by event time \p ts.
  Status LandDue(int64_t ts);
  /// Lands one planned move and reports it into \p round: the mode
  /// choice, the engine's cutover and rebuild, and the in-place recovery
  /// of a move whose rebuild failed.
  Status Land(const engine::Migration& m, ControllerRound* round);
  Status MaybeRunRounds(int64_t ts);
  /// Shared splitter of the bulk-ingest paths: hands each maximal sub-run
  /// of [tuples, tuples + count) that crosses no period boundary to
  /// \p inject, running adaptation rounds at every boundary in between.
  Status IngestSplitting(
      const engine::Tuple* tuples, size_t count,
      const std::function<Status(const engine::Tuple*, size_t)>& inject);

  engine::LocalEngine* engine_;
  AdaptationFramework* framework_;
  const engine::LoadModel* load_model_;
  const engine::Topology* topology_;
  engine::Cluster* cluster_;
  ControllerLoopOptions options_;
  engine::MeasuredCostModel cost_model_;

  std::vector<ControllerRound> history_;
  std::deque<PendingMove> pending_;
  /// The moves landed since the previous record; the next round reports
  /// them.
  ControllerRound landed_;
  /// Event time of the previous round (INT64_MIN before the first): spaces
  /// the moves.
  int64_t last_round_us_ = INT64_MIN;
  int64_t period_start_us_ = 0;
  bool period_initialized_ = false;
  int nodes_failed_pending_ = 0;  ///< KillNode calls since the last round.
};

/// \brief ShardSink over the online controller: sharded sources stream
/// through the control loop, so adaptation rounds run at period boundaries
/// during ingestion.
class ControllerShardSink final : public engine::ShardSink {
 public:
  explicit ControllerShardSink(ControllerLoop* loop) : loop_(loop) {}

  Status IngestChunk(engine::OperatorId source_op,
                     const engine::Tuple* tuples, size_t count) override {
    return loop_->IngestBatch(source_op, tuples, count);
  }
  Status IngestRouted(engine::OperatorId source_op, int shard, int group,
                      const engine::Tuple* tuples, size_t count,
                      int64_t ingest_wall_ns) override {
    return loop_->IngestRouted(source_op, shard, group, tuples, count,
                               ingest_wall_ns);
  }

 private:
  ControllerLoop* loop_;
};

}  // namespace albic::core
