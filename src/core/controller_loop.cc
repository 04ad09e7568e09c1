#include "core/controller_loop.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/trace.h"
#include "core/round_journal.h"
#include "engine/load_model.h"

namespace albic::core {

ControllerLoop::ControllerLoop(engine::LocalEngine* engine,
                               AdaptationFramework* framework,
                               const engine::LoadModel* load_model,
                               const engine::Topology* topology,
                               engine::Cluster* cluster,
                               ControllerLoopOptions options)
    : engine_(engine),
      framework_(framework),
      load_model_(load_model),
      topology_(topology),
      cluster_(cluster),
      options_(options) {}

Status ControllerLoop::MaybeRunRounds(int64_t ts) {
  if (options_.period_every_us <= 0) return Status::OK();
  if (!period_initialized_) {
    // Anchor the period origin at the first event, like the engine's
    // windows, so replayed real timestamps do not trigger catch-up rounds.
    period_start_us_ = ts;
    period_initialized_ = true;
    return Status::OK();
  }
  while (ts - period_start_us_ >= options_.period_every_us) {
    period_start_us_ += options_.period_every_us;
    ALBIC_RETURN_NOT_OK(RunRoundNow().status());
  }
  return Status::OK();
}

Status ControllerLoop::LandDue(int64_t ts) {
  if (pending_.empty() || pending_.front().due_us > ts) return Status::OK();
  engine_->Flush();
  while (!pending_.empty() && pending_.front().due_us <= ts) {
    const engine::Migration move = pending_.front().move;
    pending_.pop_front();
    ALBIC_RETURN_NOT_OK(Land(move, &landed_));
  }
  return Status::OK();
}

Status ControllerLoop::Ingest(engine::OperatorId source_op,
                              const engine::Tuple& tuple) {
  ALBIC_RETURN_NOT_OK(LandDue(tuple.ts));
  ALBIC_RETURN_NOT_OK(MaybeRunRounds(tuple.ts));
  return engine_->Inject(source_op, tuple);
}

Status ControllerLoop::IngestSplitting(
    const engine::Tuple* tuples, size_t count,
    const std::function<Status(const engine::Tuple*, size_t)>& inject) {
  size_t start = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t ts = tuples[i].ts;
    const bool boundary =
        !period_initialized_ ||
        (ts - period_start_us_ >= options_.period_every_us);
    if (boundary) {
      if (i > start) {
        ALBIC_RETURN_NOT_OK(inject(tuples + start, i - start));
        start = i;
      }
      ALBIC_RETURN_NOT_OK(MaybeRunRounds(ts));
    }
  }
  if (count > start) {
    ALBIC_RETURN_NOT_OK(inject(tuples + start, count - start));
  }
  return Status::OK();
}

Status ControllerLoop::IngestBatch(engine::OperatorId source_op,
                                   const engine::Tuple* tuples, size_t count) {
  if (count > 0) ALBIC_RETURN_NOT_OK(LandDue(tuples[0].ts));
  if (options_.period_every_us <= 0) {
    return engine_->InjectBatch(source_op, tuples, count);
  }
  return IngestSplitting(tuples, count,
                         [&](const engine::Tuple* run, size_t n) {
                           return engine_->InjectBatch(source_op, run, n);
                         });
}

Status ControllerLoop::IngestRouted(engine::OperatorId source_op, int shard,
                                    int group, const engine::Tuple* tuples,
                                    size_t count, int64_t ingest_wall_ns) {
  if (count > 0) ALBIC_RETURN_NOT_OK(LandDue(tuples[0].ts));
  if (options_.period_every_us <= 0) {
    return engine_->InjectRouted(source_op, shard, group, tuples, count,
                                 ingest_wall_ns);
  }
  return IngestSplitting(
      tuples, count, [&](const engine::Tuple* run, size_t n) {
        return engine_->InjectRouted(source_op, shard, group, run, n,
                                     ingest_wall_ns);
      });
}

Status ControllerLoop::KillNode(engine::NodeId node) {
  // Engine first (it validates that checkpointing makes the loss
  // recoverable), then the cluster, so a rejected kill leaves both intact.
  ALBIC_RETURN_NOT_OK(engine_->FailNode(node));
  ALBIC_RETURN_NOT_OK(cluster_->Fail(node));
  ++nodes_failed_pending_;
  // Recover eagerly: run the recovery round before returning, so no window
  // can fire while groups are lost. (Recovery used to wait for the next
  // statistics boundary, which forced the statistics period to divide the
  // window cadence — a windowed emission would otherwise be skipped during
  // the outage. Eager recovery lifts that constraint.)
  ALBIC_RETURN_NOT_OK(RunRoundNow().status());
  // The eager round harvested a partial period; restart the cadence so the
  // next boundary round measures a full one — otherwise its halved loads
  // would read as phantom underload right after a failure. Only when a
  // period is actually running: before the first tuple the origin must
  // stay unanchored, or a stream carrying absolute epoch timestamps would
  // enter a catch-up-round storm.
  if (period_initialized_) {
    period_start_us_ = engine_->event_time();
  }
  return Status::OK();
}

Status ControllerLoop::Land(const engine::Migration& m,
                            ControllerRound* round) {
  ++round->migrations_planned;
  // The mode is chosen PER GROUP from the predicted pauses — indirect when
  // the replay-log suffix undercuts the state size, lease when opted in —
  // unless use_indirect_migration forces indirect everywhere (the
  // pre-measured-cost behaviour, kept as an override).
  const bool checkpointed = engine_->checkpointing_enabled();
  const engine::MigrationPauseEstimate est =
      engine_->EstimateMigrationPause(m.group);
  engine::MigrationMode mode = engine::MigrationMode::kDirect;
  double predicted = est.direct_us;
  const char* reason = checkpointed ? "direct-cheapest" : "no-checkpointing";
  if (checkpointed) {
    if (options_.use_indirect_migration ||
        (est.indirect_available && est.indirect_us < est.direct_us)) {
      mode = engine::MigrationMode::kIndirect;
      predicted = est.indirect_available ? est.indirect_us : est.direct_us;
      reason = options_.use_indirect_migration ? "forced-indirect"
                                               : "indirect-cheaper";
    }
  }
  // Lease flips sit OUTSIDE the checkpointed gate: an owner flip needs
  // no checkpoint subsystem at all. `<=` (not `<`) so a lease's zero
  // prediction beats an indirect move whose chain leaves no suffix to
  // replay — when both cost nothing, the mode that also moves zero bytes
  // wins. The forced-indirect override still takes precedence via the
  // use_indirect_migration guard.
  if (!options_.use_indirect_migration && options_.use_lease_migration &&
      est.lease_available && est.lease_us <= predicted) {
    mode = engine::MigrationMode::kLease;
    predicted = est.lease_us;
    reason = "lease-zero-cost";
  }
  // The engine rejects a move that is no longer valid: its group is lost
  // (restored by the recovery pass) or already at the target, or a failure
  // took its target. Such a move is dropped.
  if (!engine_->StartMigration(m.group, m.to, mode).ok()) return Status::OK();
  ALBIC_TRACE_SPAN2("controller", "controller.land", "group", m.group, "mode",
                    static_cast<int>(mode));
  Result<double> pause = engine_->FinishMigration(m.group);
  if (!pause.ok()) {
    // The rebuild failed and left the group lost, exactly as a node failure
    // does: restore it from checkpoint + replay at its planned node now
    // instead of buffering its input until the next round.
    const auto start = std::chrono::steady_clock::now();
    ALBIC_ASSIGN_OR_RETURN(const engine::GroupRecovery rec,
                           engine_->RecoverGroup(m.group, m.to));
    ++round->groups_recovered;
    round->tuples_replayed += rec.replayed;
    round->recovery_pause_us += rec.pause_us;
    round->recovery_wall_us +=
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    return Status::OK();
  }
  ++round->migrations_applied;
  // Modeled: kEnginePauseUsPerByte × the bytes the engine rebuilt.
  round->migration_pause_us += *pause;
  MigrationDecision decision;
  decision.group = m.group;
  decision.from = m.from;
  decision.to = m.to;
  decision.mode = mode;
  decision.predicted_pause_us = predicted;
  decision.actual_pause_us = *pause;
  decision.est_direct_us = est.direct_us;
  decision.est_indirect_us = est.indirect_available ? est.indirect_us : -1;
  // Without the opt-in the lease estimate never entered the choice, so it
  // is journaled as unavailable — an est of 0 beside a non-lease winner
  // would read as the controller ignoring the cheapest mode.
  decision.est_lease_us =
      options_.use_lease_migration && est.lease_available ? est.lease_us : -1;
  decision.reason = reason;
  round->migration_decisions.push_back(decision);
  if (mode == engine::MigrationMode::kLease) {
    ++round->migrations_lease;
  } else if (mode == engine::MigrationMode::kIndirect) {
    ++round->migrations_indirect;
  } else {
    ++round->migrations_direct;
  }
  return Status::OK();
}

Result<ControllerRound> ControllerLoop::RunRoundNow() {
  ALBIC_TRACE_SPAN1("controller", "controller.round", "round",
                    static_cast<int64_t>(history_.size()));
  // Land what is left of the previous plan, so this round measures and
  // plans from it fully applied; then harvest the period (which completes
  // in-flight work first).
  ALBIC_RETURN_NOT_OK(LandDue(INT64_MAX));
  const engine::EnginePeriodStats stats = [this] {
    ALBIC_TRACE_SPAN("controller", "controller.harvest");
    return engine_->HarvestPeriod();
  }();
  const int64_t now_us = engine_->event_time();
  const int64_t prev_round_us = std::exchange(last_round_us_, now_us);

  // Convert measured work units into percent-of-reference-node loads.
  std::vector<double> modeled_loads(stats.group_work.size(), 0.0);
  const double scale = 100.0 / options_.node_capacity_work_units;
  for (size_t g = 0; g < stats.group_work.size(); ++g) {
    modeled_loads[g] = stats.group_work[g] * scale;
  }
  const engine::CommMatrix* comm = options_.use_comm ? &stats.comm : nullptr;

  // The record reports the moves landed since the previous one.
  ControllerRound round = std::exchange(landed_, ControllerRound());

  // Measured-cost planning: redistribute the period's load by measured
  // service-time shares (EWMA across periods). With telemetry off
  // UpdateAndBlend returns the modeled loads bit-identically and the
  // shares stay empty.
  std::vector<double> group_loads;
  engine::MeasuredSignals signals;  // this round's snapshot inputs
  if (options_.use_measured_costs) {
    group_loads = cost_model_.UpdateAndBlend(modeled_loads, stats.latency);
    round.measured_costs = cost_model_.measured();
    if (cost_model_.measured()) signals = cost_model_.signals();
  } else {
    group_loads = modeled_loads;
  }
  // Lease availability is engine state, not telemetry-derived, and only
  // meaningful when the controller may actually choose leases: with the
  // opt-in off the vector stays empty and the snapshot's migration-cost
  // terms are untouched, keeping legacy planning bit-identical.
  if (options_.use_lease_migration) {
    signals.lease_available = engine_->LeaseAvailability();
  }

  // Causal attribution: with wave-phase profiling on, name the phase that
  // dominated the period's wall time and rank the (operator, key group)
  // pairs by measured service time — the data every journal `reason` can
  // be explained from. Carried on the round and its journal line.
  if (stats.phases.enabled) {
    round.dominant_phase = albic::WavePhaseName(stats.phases.DominantPhase());
    round.dominant_phase_share = stats.phases.DominantShare();
    for (int p = 0; p < albic::kNumWavePhases; ++p) {
      round.phase_ns[p] = stats.phases.ns[p];
    }
    round.phase_wall_ns = stats.phases.wall_ns;
    const std::vector<int64_t>& per_group = stats.phases.group_service_ns;
    int64_t total_service = 0;
    for (const int64_t ns : per_group) total_service += ns;
    constexpr int kTopK = 3;
    std::vector<size_t> order(per_group.size());
    for (size_t g = 0; g < order.size(); ++g) order[g] = g;
    std::partial_sort(order.begin(),
                      order.begin() +
                          std::min<size_t>(kTopK, order.size()),
                      order.end(), [&per_group](size_t a, size_t b) {
                        return per_group[a] > per_group[b];
                      });
    for (size_t i = 0; i < order.size() && i < kTopK; ++i) {
      const size_t g = order[i];
      if (per_group[g] <= 0) break;
      engine::AttributedCost cost;
      cost.group = static_cast<engine::KeyGroupId>(g);
      cost.op = topology_->group_operator(static_cast<int>(g));
      cost.service_ns = per_group[g];
      cost.share = total_service > 0
                       ? static_cast<double>(per_group[g]) /
                             static_cast<double>(total_service)
                       : 0.0;
      round.top_costs.push_back(cost);
    }
  }

  // Measured service per node: each group counts on the node the
  // engine's assignment gives it at harvest.
  if (stats.latency.enabled) {
    round.node_service_us.assign(
        static_cast<size_t>(cluster_->num_nodes_total()), 0.0);
    const engine::Assignment& assign = engine_->assignment();
    for (size_t g = 0; g < stats.latency.group_service.size(); ++g) {
      const engine::NodeId n = assign.node_of(static_cast<int>(g));
      if (n < 0 || n >= cluster_->num_nodes_total()) continue;
      round.node_service_us[n] += stats.latency.group_service[g].service_sum_us;
    }
  }

  // Detect failures: groups lost since the last round. Recovery is just
  // another reconfiguration — the lost groups are pre-placed on the least
  // loaded survivors so the framework plans over a valid assignment, and
  // the plan may move them further.
  const std::vector<engine::KeyGroupId> lost = engine_->lost_groups();
  const auto recovery_start = std::chrono::steady_clock::now();
  engine::Assignment planned = engine_->assignment();
  if (!lost.empty()) {
    std::vector<double> node_load(
        static_cast<size_t>(cluster_->num_nodes_total()), 0.0);
    for (engine::KeyGroupId g = 0; g < planned.num_groups(); ++g) {
      const engine::NodeId n = planned.node_of(g);
      if (n >= 0 && cluster_->is_active(n)) node_load[n] += group_loads[g];
    }
    for (const engine::KeyGroupId g : lost) {
      engine::NodeId best = engine::kInvalidNode;
      double best_load = std::numeric_limits<double>::infinity();
      for (engine::NodeId n = 0; n < cluster_->num_nodes_total(); ++n) {
        if (!cluster_->is_active(n)) continue;
        const double l = node_load[n] / cluster_->capacity(n);
        if (l < best_load) {
          best_load = l;
          best = n;
        }
      }
      if (best == engine::kInvalidNode) {
        return Status::Internal("no active nodes left to recover onto");
      }
      planned.set_node(g, best);
      node_load[best] += group_loads[g];
    }
  }

  // Decide: one integrative adaptation round (Algorithm 1).
  ALBIC_ASSIGN_OR_RETURN(
      AdaptationRound adaptation,
      framework_->RunRound(*topology_, *load_model_, group_loads, comm,
                           cluster_, &planned, &signals));

  // Act: spread the moves over the event time the previous period took,
  // the i-th of n due at now + i * gap / (n + 1); with no earlier round, or
  // no event time since it, land them now. A lost group's move is dropped
  // at landing (StartMigration rejects it); the group is restored below.
  const std::vector<engine::Migration>& moves = adaptation.plan.migrations;
  const int64_t gap = prev_round_us == INT64_MIN ? 0 : now_us - prev_round_us;
  const auto slots = static_cast<int64_t>(moves.size() + 1);
  for (size_t i = 0; i < moves.size(); ++i) {
    if (gap <= 0) {
      ALBIC_RETURN_NOT_OK(Land(moves[i], &round));
    } else {
      pending_.push_back(
          {moves[i], now_us + static_cast<int64_t>(i + 1) * gap / slots});
    }
  }

  // Recover: restore every group lost to a node failure (checkpoint +
  // replay) at its planned node and drain the tuples buffered during the
  // outage. (A move whose rebuild failed was restored where it landed.)
  const std::vector<engine::KeyGroupId> to_recover = engine_->lost_groups();
  for (const engine::KeyGroupId g : to_recover) {
    engine::NodeId to = planned.node_of(g);
    if (to < 0 || !cluster_->is_active(to)) {
      const std::vector<engine::NodeId> active = cluster_->active_nodes();
      if (active.empty()) {
        return Status::Internal("no active nodes left to recover onto");
      }
      to = active.front();
    }
    ALBIC_ASSIGN_OR_RETURN(const engine::GroupRecovery rec,
                           engine_->RecoverGroup(g, to));
    ++round.groups_recovered;
    round.tuples_replayed += rec.replayed;
    round.recovery_pause_us += rec.pause_us;
  }
  if (!to_recover.empty()) {
    round.recovery_wall_us +=
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
            std::chrono::steady_clock::now() - recovery_start)
            .count();
  }
  round.nodes_failed = nodes_failed_pending_;
  nodes_failed_pending_ = 0;

  round.period = static_cast<int>(history_.size());
  round.latency = engine::LatencySummary::FromPeriod(stats.latency);
  round.tuples_processed = stats.tuples_processed;
  for (const int64_t n : stats.shard_ingested) round.tuples_ingested += n;
  round.tuples_buffered = stats.tuples_buffered;
  round.checkpoints_taken = stats.checkpoints_taken;
  round.checkpoint_bytes = stats.checkpoint_bytes;
  round.plan_ms = adaptation.plan_ms;
  round.plan_capped = adaptation.plan_capped;
  round.nodes_added = adaptation.nodes_added;
  round.nodes_terminated = adaptation.nodes_terminated;
  round.nodes_marked = adaptation.nodes_marked;
  round.active_nodes = cluster_->num_active();
  round.marked_nodes = static_cast<int>(cluster_->marked_nodes().size());

  // Post-round measured view: same period loads under the planned
  // allocation (the moves land during the next period).
  const engine::NodeLoads loads = load_model_->ComputeNodeLoads(
      *topology_, group_loads, comm, planned, *cluster_);
  round.mean_load = engine::MeanLoad(loads.bottleneck_loads(), *cluster_);
  round.load_distance =
      engine::LoadDistance(loads.bottleneck_loads(), *cluster_);

  // Observe: publish the round into the decision journal and the registry.
  // Both are attached sinks — neither can fail the round or steer the next
  // one (a journal write error is counted by the journal itself).
  if (options_.journal != nullptr) {
    (void)options_.journal->Append(round);
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry* reg = options_.metrics;
    reg->Counter("controller_rounds_total")->Increment();
    reg->Counter("controller_plans_capped_total")
        ->Add(round.plan_capped ? 1 : 0);
    reg->Counter("controller_migrations_planned_total")
        ->Add(round.migrations_planned);
    reg->Counter("controller_migrations_applied_total")
        ->Add(round.migrations_applied);
    reg->Counter("controller_nodes_added_total")->Add(round.nodes_added);
    reg->Counter("controller_nodes_terminated_total")
        ->Add(round.nodes_terminated);
    reg->Counter("controller_nodes_failed_total")->Add(round.nodes_failed);
    reg->Counter("controller_groups_recovered_total")
        ->Add(round.groups_recovered);
    reg->Gauge("controller_active_nodes")->Set(round.active_nodes);
    reg->Gauge("controller_marked_nodes")->Set(round.marked_nodes);
    if (options_.journal != nullptr) {
      reg->Gauge("controller_journal_records")
          ->Set(options_.journal->records());
      reg->Gauge("controller_journal_write_errors")
          ->Set(options_.journal->write_errors());
    }
  }

  history_.push_back(round);
  return round;
}

}  // namespace albic::core
