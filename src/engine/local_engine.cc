#include "engine/local_engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/flat_map64.h"
#include "common/hash.h"
#include "common/trace.h"
#include "engine/checkpoint.h"

namespace albic::engine {

namespace {

/// Grows a per-node stats vector when the cluster scaled out mid-period.
void EnsureNodeSlot(std::vector<double>* v, NodeId node) {
  if (node >= 0 && static_cast<size_t>(node) >= v->size()) {
    v->resize(static_cast<size_t>(node) + 1, 0.0);
  }
}

/// Emitter used by ProcessBatch: stages emitted tuples so the whole output
/// of a batch is routed in one pass.
class BatchEmitter : public Emitter {
 public:
  explicit BatchEmitter(TupleBatch* staged) : staged_(staged) {}
  void Emit(const Tuple& tuple) override { staged_->push_back(tuple); }

 private:
  TupleBatch* staged_;
};

/// Emitter used when replaying a group's log: the original emissions
/// already reached the downstream groups (each covers itself via its own
/// checkpoint + log), so replay rebuilds state only.
class NullEmitter : public Emitter {
 public:
  void Emit(const Tuple& tuple) override { (void)tuple; }
};

}  // namespace

/// Emitter of an operator with a direct edge: each emitted tuple lands
/// straight in the open mailbox batch of its destination group, with no
/// staging copy; RouteOutput accounts the runs once the call returns.
class LocalEngine::RouteEmitter : public Emitter {
 public:
  RouteEmitter(LocalEngine* engine, OperatorId to_op, size_t input_tuples)
      : engine_(engine),
        to_op_(to_op),
        down_groups_(engine->topology_->op(to_op).num_key_groups),
        first_run_(input_tuples / static_cast<size_t>(down_groups_) + 1) {}

  void Emit(const Tuple& tuple) override {
    engine_->RouteTuple(to_op_, down_groups_, first_run_, tuple);
  }

 private:
  LocalEngine* engine_;
  OperatorId to_op_;
  int down_groups_;
  size_t first_run_;  ///< Expected run length, to size fresh batches.
};

int LocalEngine::RouteKey(uint64_t key, int num_groups) {
  // Lemire multiply-shift reduction: maps the mixed hash uniformly onto
  // [0, num_groups) without the 64-bit division a modulo would cost on the
  // per-tuple hot path.
  return static_cast<int>((static_cast<unsigned __int128>(MixU64(key)) *
                           static_cast<uint64_t>(num_groups)) >>
                          64);
}

LocalEngine::LocalEngine(const Topology* topology, const Cluster* cluster,
                         Assignment initial,
                         std::vector<StreamOperator*> operators,
                         LocalEngineOptions options)
    : topology_(topology),
      cluster_(cluster),
      assignment_(std::move(initial)),
      operators_(std::move(operators)),
      options_(options),
      migrating_(static_cast<size_t>(topology->num_key_groups())) {
  assert(static_cast<int>(operators_.size()) == topology_->num_operators());
  assert(assignment_.num_groups() == topology_->num_key_groups());
  if (options_.max_batch_tuples < 1) options_.max_batch_tuples = 1;
  if (options_.latency_sample_every < 0) options_.latency_sample_every = 0;
  if (options_.journey_sample_every < 0) options_.journey_sample_every = 0;
  telemetry_ = options_.latency_sample_every > 0;
  period_.group_work.assign(
      static_cast<size_t>(topology_->num_key_groups()), 0.0);
  period_.node_work.assign(
      static_cast<size_t>(cluster_->num_nodes_total()), 0.0);
  period_.comm = CommMatrix(topology_->num_key_groups());
  if (telemetry_) {
    period_.latency.EnableFor(topology_->num_operators(),
                              topology_->num_key_groups());
    is_sink_.resize(static_cast<size_t>(topology_->num_operators()), 0);
    for (OperatorId op = 0; op < topology_->num_operators(); ++op) {
      is_sink_[op] = topology_->downstream(op).empty() ? 1 : 0;
    }
    ingest_samples_.reserve(2 * kMaxIngestSamples);
  }
  if (options_.profile_wave_phases) {
    period_.phases.EnableFor(
        static_cast<size_t>(topology_->num_key_groups()));
    period_start_wall_ns_ = ProfilerNowNs();
    prof_acc_.Reset(period_start_wall_ns_);
    prof_ = &prof_acc_;
  }
  if (options_.journey_sample_every > 0 && telemetry_) {
    journeys_.Enable(options_.journey_sample_every,
                     topology_->num_operators(), is_sink_);
  }
  downstream_.reserve(static_cast<size_t>(topology_->num_operators()));
  direct_to_.assign(static_cast<size_t>(topology_->num_operators()), -1);
  int widest = 0;
  for (OperatorId op = 0; op < topology_->num_operators(); ++op) {
    downstream_.push_back(topology_->downstream(op));
    const std::vector<StreamEdge>& down = downstream_.back();
    if (down.size() == 1 &&
        (down[0].pattern == PartitioningPattern::kPartialPartitioning ||
         down[0].pattern == PartitioningPattern::kFullPartitioning)) {
      direct_to_[op] = down[0].to;
    }
    widest = std::max(widest, topology_->op(op).num_key_groups);
  }
  run_dst_.assign(static_cast<size_t>(widest), nullptr);
  ingress_slot_.assign(static_cast<size_t>(topology_->num_key_groups()), -1);
  mailboxes_.resize(static_cast<size_t>(cluster_->num_nodes_total()));
  open_slot_.assign(static_cast<size_t>(topology_->num_key_groups()), -1);
  WireMetrics();
}

void LocalEngine::WireMetrics() {
  MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  metrics_.tuples_processed = reg->Counter("engine_tuples_processed_total");
  metrics_.tuples_buffered = reg->Counter("engine_tuples_buffered_total");
  metrics_.waves = reg->Counter("engine_waves_total");
  metrics_.migration_pause_us =
      reg->Counter("engine_migration_pause_us_total");
  metrics_.checkpoints = reg->Counter("engine_checkpoints_total");
  metrics_.checkpoint_bytes = reg->Counter("engine_checkpoint_bytes_total");
  metrics_.checkpoint_delta_groups =
      reg->Counter("engine_checkpoint_delta_groups_total");
  metrics_.checkpoint_delta_bytes =
      reg->Counter("engine_checkpoint_delta_bytes_total");
  metrics_.tuples_replayed = reg->Counter("engine_tuples_replayed_total");
  metrics_.groups_recovered = reg->Counter("engine_groups_recovered_total");
  // Both per-mode series are wired eagerly so the lease byte series exists
  // (at zero, forever — leases ship no bytes) for dashboards and the bench
  // self-checks to read.
  for (int m = 0; m < kNumMigrationModes; ++m) {
    const MetricLabels mode = {
        {"mode", MigrationModeName(static_cast<MigrationMode>(m))}};
    metrics_.migrations[m] = reg->Counter("engine_migrations_total", mode);
    metrics_.migration_bytes[m] =
        reg->Counter("engine_migration_bytes_total", mode);
  }
  metrics_.mailbox_highwater = reg->Gauge("engine_mailbox_highwater");
  metrics_.chain_len_highwater =
      reg->Gauge("engine_checkpoint_chain_len_highwater");
  if (telemetry_) {
    metrics_.e2e_latency_us = reg->Histogram("engine_e2e_latency_us");
    metrics_.queue_delay_us = reg->Histogram("engine_queue_delay_us");
    metrics_.stall_e2e_us = reg->Histogram("engine_stall_e2e_us");
  }
  if (prof_ != nullptr) {
    for (int p = 0; p < kNumWavePhases; ++p) {
      metrics_.phase_ns[p] =
          reg->Counter("engine_phase_ns_total",
                       {{"phase", WavePhaseName(static_cast<WavePhase>(p))}});
    }
  }
}

void LocalEngine::PublishPeriodMetrics(const EnginePeriodStats& stats) {
  if (options_.metrics == nullptr) return;
  metrics_.tuples_processed->Add(stats.tuples_processed);
  metrics_.tuples_buffered->Add(stats.tuples_buffered);
  metrics_.waves->Add(stats.waves);
  metrics_.migration_pause_us->Add(
      static_cast<int64_t>(stats.migration_pause_us));
  metrics_.checkpoints->Add(stats.checkpoints_taken);
  metrics_.checkpoint_bytes->Add(stats.checkpoint_bytes);
  metrics_.tuples_replayed->Add(stats.tuples_replayed);
  metrics_.groups_recovered->Add(stats.groups_recovered);
  metrics_.mailbox_highwater->SetMax(stats.mailbox_highwater);
  int64_t max_chain = 0;
  for (const int len : chain_len_) {
    if (len > max_chain) max_chain = len;
  }
  metrics_.chain_len_highwater->SetMax(max_chain);
  // Per-shard offered load, labelled by shard (resolved lazily: the shard
  // count is only known once ingestion ran; HarvestPeriod is cold).
  for (size_t s = 0; s < stats.shard_ingested.size(); ++s) {
    if (stats.shard_ingested[s] == 0) continue;
    options_.metrics
        ->Counter("engine_shard_ingested_total",
                  {{"shard", std::to_string(s)}})
        ->Add(stats.shard_ingested[s]);
  }
  if (telemetry_) {
    metrics_.e2e_latency_us->Merge(stats.latency.e2e_us);
    metrics_.queue_delay_us->Merge(stats.latency.queue_us);
    metrics_.stall_e2e_us->Merge(stats.latency.stall_e2e_us);
  }
  if (prof_ != nullptr && stats.phases.enabled) {
    for (int p = 0; p < kNumWavePhases; ++p) {
      metrics_.phase_ns[p]->Add(stats.phases.ns[p]);
    }
  }
  // Coordinator-level and hash-table counters are cumulative (not per
  // period); surfaced as gauges set to the live totals. Resolved by name —
  // the coordinator attaches after construction and the harvest is cold.
  MetricsRegistry* reg = options_.metrics;
  if (checkpointer_ != nullptr) {
    const CheckpointCoordinatorStats& cs = checkpointer_->stats();
    reg->Gauge("checkpoint_rounds")->Set(cs.rounds);
    reg->Gauge("checkpoint_forced_rounds")->Set(cs.forced_rounds);
    reg->Gauge("checkpoint_round_wall_us")
        ->Set(static_cast<int64_t>(cs.round_wall_us));
  }
  reg->Gauge("flatmap64_full_rehashes")
      ->Set(FlatMap64Telemetry::full_rehashes.load(std::memory_order_relaxed));
}

// ---------------------------------------------------------------------------
// Latency telemetry. All entry points no-op (a single predictable branch)
// when telemetry is disabled; none of them touch tuple flow, so outputs are
// bit-identical with telemetry on or off.
// ---------------------------------------------------------------------------

int64_t LocalEngine::NowNs() { return TelemetryNowNs(); }

void LocalEngine::MaybeSampleIngest(int64_t ts, size_t count,
                                    int64_t wall_ns) {
  sample_countdown_ -= static_cast<int64_t>(count);
  if (sample_countdown_ > 0) return;
  sample_countdown_ = options_.latency_sample_every;
  // Keep the sample sequence monotone in event time: a late run must not
  // roll the frontier back, or sink lookups would pair new wall stamps
  // with old event times.
  if (ts < last_sample_ts_us_) return;
  last_sample_ts_us_ = ts;
  if (ingest_samples_.size() >= 2 * kMaxIngestSamples) {
    // Compact in place: drop the older half. Only the driving thread runs
    // here, and never while a wave is in flight.
    ingest_samples_.erase(ingest_samples_.begin(),
                          ingest_samples_.begin() + kMaxIngestSamples);
  }
  int64_t wall = wall_ns;
  if (wall == 0) {
    wall = NowNs();
    // Piggyback on the clock read we just paid (shard stamps are from the
    // past — possibly a queue wait ago — so they never refresh the cache).
    wall_cache_ns_ = wall;
  }
  ingest_samples_.push_back(IngestSample{ts, wall});
}

bool LocalEngine::LookupIngestSample(int64_t ts, IngestSample* out) const {
  // Scan newest-to-oldest: sink batches almost always match one of the most
  // recent samples, so this is O(1) in practice.
  for (size_t i = ingest_samples_.size(); i > 0; --i) {
    const IngestSample& s = ingest_samples_[i - 1];
    if (s.event_ts_us <= ts) {
      *out = s;
      return true;
    }
  }
  return false;
}

int64_t LocalEngine::RecordBatchLatency(OperatorId op, KeyGroupId g,
                                        size_t tuples, int64_t last_ts,
                                        int64_t t0_ns) {
  LatencyPeriodStats& lat = period_.latency;
  const int64_t t1 = NowNs();
  const int64_t service_us = (t1 - t0_ns) / 1000;
  lat.op_service_us[op].Record(service_us);
  GroupLatency& gl = lat.group_service[g];
  // Accumulate fractional microseconds: the sums are load-bearing for
  // measured-cost planning, and whole-us truncation would zero out groups
  // whose batches complete in under a microsecond each.
  gl.service_sum_us += static_cast<double>(t1 - t0_ns) / 1000.0;
  gl.tuples += static_cast<int64_t>(tuples);
  if (is_sink_[op]) {
    // Window-fire aggregates carry ts = 0 (they summarize a whole window,
    // not one input tuple); fall back to the event-time frontier — the
    // newest data the aggregate can reflect.
    IngestSample sample;
    bool found = LookupIngestSample(last_ts, &sample);
    if (!found) found = LookupIngestSample(event_time_us_, &sample);
    if (found) {
      lat.e2e_us.RecordN((t1 - sample.wall_ns) / 1000,
                         static_cast<int64_t>(tuples));
    }
  }
  return t1;
}

void LocalEngine::RecordBufferedPause(double pause_us, size_t buffered) {
  if (!telemetry_ || buffered == 0) return;
  period_.latency.stall_e2e_us.RecordN(
      static_cast<int64_t>(std::llround(pause_us)),
      static_cast<int64_t>(buffered));
}

void LocalEngine::CountIngested(int shard, size_t count) {
  if (static_cast<size_t>(shard) >= period_.shard_ingested.size()) {
    period_.shard_ingested.resize(static_cast<size_t>(shard) + 1, 0);
  }
  period_.shard_ingested[shard] += static_cast<int64_t>(count);
  if (static_cast<size_t>(shard) >= shard_offsets_.size()) {
    shard_offsets_.resize(static_cast<size_t>(shard) + 1, 0);
  }
  shard_offsets_[shard] += static_cast<int64_t>(count);
}

Status LocalEngine::IngestStatus() const {
  // The tuples were processed and logged all the same (recovery from the
  // last good chain still works); the caller decides whether to stop.
  return checkpointer_ ? checkpointer_->last_error() : Status::OK();
}

Status LocalEngine::Inject(OperatorId source_op, const Tuple& tuple) {
  if (source_op < 0 || source_op >= topology_->num_operators()) {
    return Status::InvalidArgument("unknown source operator");
  }
  CountIngested(/*shard=*/0, 1);
  if (telemetry_) MaybeSampleIngest(tuple.ts, 1, 0);
  if (journeys_.enabled()) journeys_.MaybeStart(tuple.ts, 0, 1);
  PhaseScope prof_scope(prof_, WavePhase::kIngest);
  if (tuple.ts >= event_time_us_) {
    if (WindowBoundaryCrossed(tuple.ts)) MaybeFireWindows(tuple.ts);
    event_time_us_ = tuple.ts;
  }
  const int group =
      RouteKey(tuple.key, topology_->op(source_op).num_key_groups);
  if (operators_[source_op] == nullptr) {
    // Null source operators fan out uncharged; their tuples stage in
    // ingress_ and are routed in bulk at the next drain.
    StageIngress(source_op, group, tuple);
  } else {
    // Real source operators deliver like any other hop: append straight
    // into the open batch in the owning node's mailbox.
    const KeyGroupId g = topology_->first_group(source_op) + group;
    AppendRouted(assignment_.node_of(g), source_op, group, g, &tuple, 1);
    ++staged_tuples_;
  }
  if (staged_tuples_ >= options_.max_batch_tuples) DrainAll();
  return IngestStatus();
}

void LocalEngine::FlushInjectScatter(OperatorId source_op) {
  // Delivers the inject-side scatter buckets straight to the source
  // operator (work is charged at delivery, like any other hop) — a move,
  // not a copy; downstream emissions land in the mailboxes for DrainAll.
  // Only real source operators scatter here; null sources stage in
  // ingress_.
  for (const int group : inject_touched_) {
    std::vector<Tuple>& bucket = inject_buckets_[group];
    const size_t delivered = bucket.size();
    TupleBatch batch(std::move(bucket));
    DeliverBatch(source_op, group, &batch);
    bucket = std::move(batch.mutable_tuples());
    // The replay log may have taken the vector; replace it from the pool,
    // pre-sized to what this bucket just carried, so the bucket keeps
    // amortizing its growth.
    if (bucket.capacity() == 0) {
      bucket = AcquireVec();
      if (bucket.capacity() < delivered) bucket.reserve(delivered);
    }
    bucket.clear();
  }
  inject_touched_.clear();
}

Status LocalEngine::InjectBatch(OperatorId source_op, const Tuple* tuples,
                                size_t count) {
  if (source_op < 0 || source_op >= topology_->num_operators()) {
    return Status::InvalidArgument("unknown source operator");
  }
  CountIngested(/*shard=*/0, count);
  if (telemetry_ && count > 0) {
    const int64_t now = NowNs();  // one read per chunk, shared with samples
    wall_cache_ns_ = now;
    // Stamp the run's FIRST event time: the sample must not outrun the
    // event-time frontier, or window-fire aggregates emitted mid-run could
    // never find a covering sample.
    MaybeSampleIngest(tuples[0].ts, count, now);
    if (journeys_.enabled()) {
      journeys_.MaybeStart(tuples[0].ts, now, count);
    }
  }
  PhaseScope prof_scope(prof_, WavePhase::kIngest);
  const int src_groups = topology_->op(source_op).num_key_groups;
  const bool null_source = operators_[source_op] == nullptr;
  if (static_cast<int>(inject_buckets_.size()) < src_groups) {
    inject_buckets_.resize(static_cast<size_t>(src_groups));
  }
  // Single-tuple Injects may have staged batches in the mailboxes; drain
  // them first so mixing the two ingestion APIs keeps per-group order.
  if (staged_tuples_ > 0) DrainAll();
  for (size_t i = 0; i < count; ++i) {
    const Tuple& t = tuples[i];
    if (t.ts >= event_time_us_) {
      if (WindowBoundaryCrossed(t.ts)) {
        // The scattered prefix belongs to the closing window: deliver it
        // before the boundary fires.
        FlushInjectScatter(source_op);
        MaybeFireWindows(t.ts);
      }
      event_time_us_ = t.ts;
    }
    const int group = RouteKey(t.key, src_groups);
    if (null_source) {
      // Uncharged fan-out sources stage in ingress_, as in Inject.
      StageIngress(source_op, group, t);
    } else {
      std::vector<Tuple>& bucket = inject_buckets_[group];
      if (bucket.empty()) inject_touched_.push_back(group);
      bucket.push_back(t);
      ++staged_tuples_;
    }
    if (staged_tuples_ >= options_.max_batch_tuples) {
      FlushInjectScatter(source_op);
      DrainAll();
    }
  }
  FlushInjectScatter(source_op);
  return IngestStatus();
}

Status LocalEngine::InjectRouted(OperatorId source_op, int shard,
                                 int group_index, const Tuple* tuples,
                                 size_t count, int64_t ingest_wall_ns) {
  if (source_op < 0 || source_op >= topology_->num_operators()) {
    return Status::InvalidArgument("unknown source operator");
  }
  const int src_groups = topology_->op(source_op).num_key_groups;
  if (group_index < 0 || group_index >= src_groups) {
    return Status::InvalidArgument("source group out of range");
  }
  if (shard < 0) return Status::InvalidArgument("negative shard id");
  if (count == 0) return IngestStatus();
  CountIngested(shard, count);
  if (telemetry_) {
    const int64_t now = NowNs();  // one read per routed run
    wall_cache_ns_ = now;
    // Prefer the shard-thread stamp (it includes the queue wait) and fall
    // back to the read we just paid for.
    MaybeSampleIngest(tuples[0].ts, count,
                      ingest_wall_ns != 0 ? ingest_wall_ns : now);
    if (journeys_.enabled()) {
      journeys_.MaybeStart(tuples[0].ts,
                           ingest_wall_ns != 0 ? ingest_wall_ns : now, count);
    }
  }
  PhaseScope prof_scope(prof_, WavePhase::kIngest);
  const bool null_source = operators_[source_op] == nullptr;
  int64_t max_ts = tuples[0].ts;
  for (size_t i = 1; i < count; ++i) max_ts = std::max(max_ts, tuples[i].ts);
  if (max_ts >= event_time_us_ && WindowBoundaryCrossed(max_ts)) {
    // A window boundary falls inside the run: advance per tuple so each
    // closing window sees exactly the prefix that belongs to it.
    for (size_t i = 0; i < count; ++i) {
      const Tuple& t = tuples[i];
      if (t.ts >= event_time_us_) {
        if (WindowBoundaryCrossed(t.ts)) MaybeFireWindows(t.ts);
        event_time_us_ = t.ts;
      }
      if (null_source) {
        StageIngress(source_op, group_index, t);
      } else {
        const KeyGroupId g = topology_->first_group(source_op) + group_index;
        AppendRouted(assignment_.node_of(g), source_op, group_index, g, &t, 1);
        ++staged_tuples_;
      }
      if (staged_tuples_ >= options_.max_batch_tuples) DrainAll();
    }
    return IngestStatus();
  }

  // Fast path: no boundary inside the run — append it in one step.
  if (max_ts >= event_time_us_) event_time_us_ = max_ts;
  if (null_source) {
    for (size_t i = 0; i < count; ++i) {
      StageIngress(source_op, group_index, tuples[i]);
    }
  } else {
    const KeyGroupId g = topology_->first_group(source_op) + group_index;
    AppendRouted(assignment_.node_of(g), source_op, group_index, g, tuples,
                 count);
    staged_tuples_ += static_cast<int64_t>(count);
  }
  if (staged_tuples_ >= options_.max_batch_tuples) DrainAll();
  return IngestStatus();
}

// ---------------------------------------------------------------------------
// Staging, waves and routing.
// ---------------------------------------------------------------------------

void LocalEngine::StageIngress(OperatorId op, int group_index,
                               const Tuple& tuple) {
  const KeyGroupId g = topology_->first_group(op) + group_index;
  int32_t slot = ingress_slot_[g];
  if (slot < 0 ||
      static_cast<int>(ingress_[slot].batch.size()) >=
          options_.max_batch_tuples) {
    if (slot < 0) ingress_used_.push_back(g);
    slot = static_cast<int32_t>(ingress_.size());
    ingress_slot_[g] = slot;
    ingress_.push_back(
        PendingBatch{op, group_index, TupleBatch(AcquireVec())});
  }
  ingress_[slot].batch.push_back(tuple);
  ++staged_tuples_;
}

void LocalEngine::Flush() { DrainAll(); }

std::vector<Tuple> LocalEngine::AcquireVec() {
  if (vec_pool_.empty()) return {};
  std::vector<Tuple> v = std::move(vec_pool_.back());
  vec_pool_.pop_back();
  v.clear();
  return v;
}

std::vector<Tuple> LocalEngine::AcquireVecFor(size_t first_run) {
  std::vector<Tuple> v = AcquireVec();
  // With checkpointing on, the replay log keeps the delivered vectors, so
  // the pool often runs dry and fresh vectors would regrow by doubling on
  // every appended run — an extra pass over the whole stream. Reserving a
  // few runs up front caps that; without checkpointing pooled vectors
  // already carry their capacity and the reserve is a no-op.
  if (checkpointer_ != nullptr && v.capacity() < first_run * 8) {
    v.reserve(std::min(static_cast<size_t>(options_.max_batch_tuples),
                       first_run * 8));
  }
  return v;
}

void LocalEngine::ReleaseVec(std::vector<Tuple>&& vec) {
  if (vec.capacity() == 0) return;  // taken by a replay log; nothing to keep
  if (vec_pool_.size() < 256) vec_pool_.push_back(std::move(vec));
}

LocalEngine::PendingBatch& LocalEngine::OpenBatch(NodeId node,
                                                  OperatorId op,
                                                  int group_index,
                                                  KeyGroupId dst_global,
                                                  size_t first_run) {
  const int mailbox = std::max(node, 0);  // unassigned groups park on 0
  if (static_cast<size_t>(mailbox) >= mailboxes_.size()) {
    // Moves the mailbox vectors, not their batches: open runs stay aimed.
    mailboxes_.resize(static_cast<size_t>(mailbox) + 1);
  }
  // Look up the batch currently open for this destination group. Entries
  // are validated (bounds + op/group match), so a stale slot from a
  // previous wave simply misses and a fresh batch is opened.
  std::vector<PendingBatch>& box = mailboxes_[mailbox];
  int32_t& slot = open_slot_[dst_global];
  if (slot < 0 || static_cast<size_t>(slot) >= box.size() ||
      box[slot].op != op || box[slot].group_index != group_index ||
      static_cast<int>(box[slot].batch.size()) >= options_.max_batch_tuples) {
    slot = static_cast<int32_t>(box.size());
    const PendingBatch* before = box.data();
    box.push_back(PendingBatch{op, group_index,
                               TupleBatch(AcquireVecFor(first_run)),
                               wall_cache_ns_});
    if (box.data() != before) {
      // The mailbox grew and its batches moved: re-aim the open runs
      // appending to them (each still holds its group's open slot).
      for (const Run& r : runs_) {
        if (std::max(r.dst_node, 0) == mailbox) {
          run_dst_[r.target] =
              &box[open_slot_[r.dst_global]].batch.mutable_tuples();
        }
      }
    }
  }
  return box[slot];
}

void LocalEngine::AppendRouted(NodeId node, OperatorId op, int group_index,
                               KeyGroupId dst_global, const Tuple* data,
                               size_t count) {
  std::vector<Tuple>& dst =
      OpenBatch(node, op, group_index, dst_global, count)
          .batch.mutable_tuples();
  dst.insert(dst.end(), data, data + count);
}

std::vector<Tuple>* LocalEngine::OpenRun(OperatorId to_op, int target,
                                         size_t first_run) {
  const KeyGroupId dst_global = topology_->first_group(to_op) + target;
  const NodeId dst_node = assignment_.node_of(dst_global);
  std::vector<Tuple>* dst =
      &OpenBatch(dst_node, to_op, target, dst_global, first_run)
           .batch.mutable_tuples();
  runs_.push_back(Run{target, dst_global, dst_node, dst->size()});
  run_dst_[target] = dst;
  return dst;
}

void LocalEngine::CloseRuns(KeyGroupId src_global, NodeId src_node) {
  for (const Run& r : runs_) {
    AccountRun(src_global, src_node, r.dst_global, r.dst_node,
               run_dst_[r.target]->size() - r.start);
    run_dst_[r.target] = nullptr;
  }
  runs_.clear();
}

void LocalEngine::AccountRun(KeyGroupId src_global, NodeId src_node,
                             KeyGroupId dst_global, NodeId dst_node,
                             size_t count) {
  const double n = static_cast<double>(count);
  period_.comm.Add(src_global, dst_global, n);
  if (src_node != dst_node && src_node != kInvalidNode &&
      dst_node != kInvalidNode) {
    EnsureNodeSlot(&period_.node_work, src_node);
    EnsureNodeSlot(&period_.node_work, dst_node);
    period_.node_work[src_node] += options_.serde_cost * n;
    period_.node_work[dst_node] += options_.serde_cost * n;
  }
}

void LocalEngine::SendRouted(OperatorId to_op, int target_group,
                             KeyGroupId src_global, NodeId src_node,
                             const Tuple* data, size_t count) {
  const KeyGroupId dst_global = topology_->first_group(to_op) + target_group;
  const NodeId dst_node = assignment_.node_of(dst_global);
  AccountRun(src_global, src_node, dst_global, dst_node, count);
  AppendRouted(dst_node, to_op, target_group, dst_global, data, count);
}

void LocalEngine::RouteBatch(OperatorId from_op, int from_group,
                             const TupleBatch& batch) {
  if (batch.empty()) return;
  const KeyGroupId src_global = topology_->first_group(from_op) + from_group;
  const NodeId src_node = assignment_.node_of(src_global);
  for (const StreamEdge& e : downstream_[from_op]) {
    const int down_groups = topology_->op(e.to).num_key_groups;
    switch (e.pattern) {
      case PartitioningPattern::kOneToOne:
      case PartitioningPattern::kPartialMerge: {
        const int target = from_group % down_groups;
        SendRouted(e.to, target, src_global, src_node, batch.tuples().data(),
                   batch.size());
        break;
      }
      case PartitioningPattern::kPartialPartitioning:
      case PartitioningPattern::kFullPartitioning:
      default: {
        // Each tuple lands straight in its destination group's batch; the
        // runs are accounted once, after the last tuple.
        const size_t first_run =
            batch.size() / static_cast<size_t>(down_groups) + 1;
        for (const Tuple& t : batch) {
          RouteTuple(e.to, down_groups, first_run, t);
        }
        CloseRuns(src_global, src_node);
        break;
      }
    }
  }
}

template <typename Call>
void LocalEngine::CallOperator(OperatorId op, size_t input_tuples,
                               Call call) {
  const OperatorId to = direct_to_[op];
  if (to >= 0) {
    RouteEmitter out(this, to, input_tuples);
    call(&out);
  } else {
    emitted_.clear();
    BatchEmitter out(&emitted_);
    call(&out);
  }
}

void LocalEngine::RouteOutput(OperatorId op, int group_index) {
  if (direct_to_[op] < 0) {
    RouteBatch(op, group_index, emitted_);
    return;
  }
  const KeyGroupId g = topology_->first_group(op) + group_index;
  CloseRuns(g, assignment_.node_of(g));
}

void LocalEngine::DeliverBatch(OperatorId op, int group_index,
                               TupleBatch* batch_ptr, int64_t enqueue_ns) {
  const TupleBatch& batch = *batch_ptr;
  if (batch.empty()) return;
  const KeyGroupId g = topology_->first_group(op) + group_index;
  MigrationState& mig = migrating_[g];
  if (mig.active && MigrationBuffers(mig.mode)) {
    // Tuples that arrive while the group migrates buffer in order at the
    // target (§3, "State Migration"); FinishMigration drains them. A lease
    // skips the buffer entirely: the group processes live at its source
    // until FinishMigration flips its owner.
    for (const Tuple& t : batch) mig.buffer.push_back(t);
    period_.tuples_buffered += static_cast<int64_t>(batch.size());
    return;
  }
  ALBIC_TRACE_SPAN2("engine", "op.batch", "op", op, "tuples",
                    static_cast<int64_t>(batch.size()));
  // Profiling: open the service phase exclusively — elapsed time charges
  // here instead of the enclosing phase (wave barrier, ingest, ...), and
  // the per-group attribution gets the same window. Manual switch rather
  // than PhaseScope so the elapsed value feeds group_service_ns.
  const bool prof = prof_ != nullptr;
  int64_t p0_ns = 0;
  WavePhase prof_prev = WavePhase::kIdle;
  if (prof) {
    p0_ns = ProfilerNowNs();
    prof_prev = prof_->SwitchTo(WavePhase::kService, p0_ns);
  }
  // Telemetry: one clock read covers both the mailbox queueing delay
  // (enqueue stamp -> here) and the start of the service-time window.
  int64_t t0_ns = 0;
  size_t batch_tuples = 0;
  int64_t batch_last_ts = 0;
  if (telemetry_) {
    t0_ns = NowNs();
    wall_cache_ns_ = t0_ns;  // fresh stamp for batches routed from here
    if (enqueue_ns > 0) {
      period_.latency.queue_us.Record((t0_ns - enqueue_ns) / 1000);
    }
    batch_tuples = batch.size();
    batch_last_ts = batch.tuples().back().ts;
  }
  const NodeId node = assignment_.node_of(g);
  const double cost = topology_->op(op).cost_per_tuple;
  const double n = static_cast<double>(batch.size());
  period_.group_work[g] += cost * n;
  EnsureNodeSlot(&period_.node_work, node);
  if (node != kInvalidNode) period_.node_work[node] += cost * n;
  period_.tuples_processed += static_cast<int64_t>(batch.size());
  if (operators_[op] != nullptr) {
    CallOperator(op, batch.size(), [&](Emitter* out) {
      operators_[op]->ProcessBatch(batch, group_index, out);
    });
    if (telemetry_) {
      const int64_t t1_ns =
          RecordBatchLatency(op, g, batch_tuples, batch_last_ts, t0_ns);
      if (journeys_.enabled()) {
        // Window-fire aggregates carry ts = 0; claim against the
        // event-time frontier instead (same fallback RecordBatchLatency
        // uses for the e2e match — the aggregate reflects everything up
        // to the frontier).
        journeys_.OnBatchDelivered(
            op, g, batch_last_ts != 0 ? batch_last_ts : event_time_us_,
            enqueue_ns, t0_ns, t1_ns);
      }
    }
    // Steal the consumed batch into the replay log (zero-copy logging);
    // after this the batch is empty and must not be read again.
    if (checkpointer_ != nullptr) LogDeliveredBatch(g, batch_ptr);
    RouteOutput(op, group_index);
  } else {
    RouteBatch(op, group_index, batch);
  }
  if (prof) {
    const int64_t p1_ns = ProfilerNowNs();
    prof_->SwitchTo(prof_prev, p1_ns);
    period_.phases.group_service_ns[g] += p1_ns - p0_ns;
  }
}

void LocalEngine::RunWave(std::vector<std::vector<PendingBatch>>* wave) {
  ALBIC_TRACE_SPAN("engine", "wave");
  for (std::vector<PendingBatch>& box : *wave) {
    for (PendingBatch& pb : box) {
      DeliverBatch(pb.op, pb.group_index, &pb.batch, pb.enqueue_ns);
      ReleaseVec(std::move(pb.batch.mutable_tuples()));
    }
  }
}

void LocalEngine::DrainAll() {
  // Drain time that is not operator service (mailbox collection, the
  // null-source fan-out) charges to the wave-barrier phase; DeliverBatch
  // carves its service time out of it.
  PhaseScope prof_scope(prof_, WavePhase::kWaveBarrier);
  std::vector<std::vector<PendingBatch>> wave;
  for (;;) {
    staged_tuples_ = 0;
    if (!ingress_.empty()) {
      // Fan staged null-source batches out through the router (uncharged:
      // a null source does no work of its own).
      std::vector<PendingBatch> ingress;
      ingress.swap(ingress_);
      for (const KeyGroupId g : ingress_used_) ingress_slot_[g] = -1;
      ingress_used_.clear();
      for (PendingBatch& pb : ingress) {
        RouteBatch(pb.op, pb.group_index, pb.batch);
        ReleaseVec(std::move(pb.batch.mutable_tuples()));
      }
    }
    bool any = false;
    for (const std::vector<PendingBatch>& box : mailboxes_) {
      if (!box.empty()) {
        any = true;
        const int64_t depth = static_cast<int64_t>(box.size());
        if (depth > period_.mailbox_highwater) {
          period_.mailbox_highwater = depth;
        }
      }
    }
    if (!any) break;
    ++period_.waves;
    // Per-node swap so the mailbox vectors' capacity circulates between the
    // wave buffer and the live mailboxes instead of being reallocated.
    if (wave.size() < mailboxes_.size()) wave.resize(mailboxes_.size());
    for (size_t n = 0; n < mailboxes_.size(); ++n) {
      wave[n].clear();
      wave[n].swap(mailboxes_[n]);
    }
    RunWave(&wave);
    // Between waves every operator is quiescent and each group's log
    // matches its state — the safe point for asynchronous incremental
    // checkpoints (no global drain or alignment required).
    if (checkpointer_ != nullptr) checkpointer_->OnSafePoint(this);
  }
  // Sweep the journeys completed by this drain into the period's worst-N.
  if (journeys_.enabled()) journeys_.Sweep(&period_.journeys);
}

void LocalEngine::MaybeFireWindows(int64_t new_time) {
  if (options_.window_every_us <= 0) return;
  if (!time_initialized_) {
    // Align the window origin with the first event's time so jobs replaying
    // real timestamps do not fire a storm of catch-up windows.
    last_window_us_ = new_time;
    time_initialized_ = true;
    return;
  }
  if (new_time - last_window_us_ < options_.window_every_us) return;
  PhaseScope prof_scope(prof_, WavePhase::kWindow);
  // Complete all in-flight work before closing the window, so it closes
  // over every tuple that arrived before the boundary.
  DrainAll();
  while (new_time - last_window_us_ >= options_.window_every_us) {
    last_window_us_ += options_.window_every_us;
    for (OperatorId op : topology_->TopologicalOrder()) {
      if (operators_[op] == nullptr) continue;
      const int n = topology_->op(op).num_key_groups;
      for (int gi = 0; gi < n; ++gi) {
        const KeyGroupId g = topology_->first_group(op) + gi;
        if (migrating_[g].lost) continue;  // nothing to fire; see FailNode
        if (checkpointer_ != nullptr) LogWindowFire(g);
        CallOperator(op, 0, [&](Emitter* out) {
          operators_[op]->OnWindow(gi, out);
        });
        RouteOutput(op, gi);
      }
      // Cascade fully before the next operator's same-boundary window
      // closes (the topological-order guarantee the jobs rely on).
      DrainAll();
    }
  }
}

// ---------------------------------------------------------------------------
// The reconfiguration pipeline. Every ownership change is one rebuild step
// (RebuildGroup) plus one cutover step, and each migration mode is one row
// of the table:
//
//   mode       state source           cutover
//   kDirect    live round-trip        buffer; flip + drain at FinishMigration
//   kIndirect  chain + logged suffix  buffer; flip + drain at FinishMigration
//   kLease     none                   live at the source; flip + drain at
//                                     FinishMigration
//   recovery   chain + logged suffix  buffer; flip + drain at RecoverGroup
//
// So every owner change happens in one Cutover call, at FinishMigration or
// RecoverGroup. A move whose chain is unusable falls back to the live
// round-trip; a lost group has no live state, so its recovery fails
// instead.
// ---------------------------------------------------------------------------

Status LocalEngine::StartMigration(KeyGroupId group, NodeId to,
                                   MigrationMode mode) {
  if (group < 0 || group >= topology_->num_key_groups()) {
    return Status::InvalidArgument("unknown key group");
  }
  if (to < 0 || to >= cluster_->num_nodes_total() ||
      !cluster_->is_active(to)) {
    return Status::InvalidArgument("migration target node not active");
  }
  if (mode == MigrationMode::kIndirect && checkpointer_ == nullptr) {
    return Status::InvalidArgument(
        "indirect migration requires checkpointing (EnableCheckpointing)");
  }
  MigrationState& mig = migrating_[group];
  if (mig.active) {
    return Status::AlreadyExists("group is already migrating");
  }
  if (assignment_.node_of(group) == to) {
    return Status::InvalidArgument("group already on target node");
  }
  mig.active = true;
  mig.target = to;
  mig.mode = mode;
  return Status::OK();
}

bool LocalEngine::UsableChain(KeyGroupId g, CheckpointInfo* info,
                              std::string* base,
                              std::vector<std::string>* deltas) const {
  return checkpointer_->store()->LatestChain(g, info, base, deltas) &&
         group_logs_[g].base_seq() <= info->seq;
}

LocalEngine::StateSource LocalEngine::MoveSource(KeyGroupId g,
                                                 MigrationMode mode) const {
  CheckpointInfo info;
  return mode == MigrationMode::kIndirect && UsableChain(g, &info)
             ? StateSource::kChain
             : StateSource::kLive;
}

Status LocalEngine::RebuildGroup(KeyGroupId g, StateSource source,
                                 Rebuild* out) {
  StreamOperator* op = operators_[topology_->group_operator(g)];
  if (op == nullptr) return Status::OK();
  const int local = topology_->group_index_in_operator(g);
  Status s = Status::OK();
  if (source == StateSource::kLive) {
    // The live round-trip: serialize at the source, clear, deserialize at
    // the target. Real in this single-process runtime; only the inter-node
    // transfer is modeled.
    const std::string state = op->SerializeGroupState(local);
    op->ClearGroupState(local);
    s = op->DeserializeGroupState(local, state);
    out->bytes = static_cast<int64_t>(state.size());
  } else {
    // The chain restore: base, chained deltas, then the logged suffix past
    // the newest record (emissions discarded — downstream groups already
    // received them). At a quiescent instant the result is bit-identical
    // to the live state, the checkpoint subsystem's core invariant.
    CheckpointInfo info;
    std::string base;
    std::vector<std::string> deltas;
    const bool chain = UsableChain(g, &info, &base, &deltas);
    if (!chain && group_logs_[g].base_seq() > 0) {
      s = Status::Internal("replay log truncated past the latest checkpoint");
    } else {
      op->ClearGroupState(local);
      if (chain) {
        s = op->DeserializeGroupState(local, base);
        for (const std::string& d : deltas) {
          if (s.ok()) s = op->ApplyGroupDelta(local, d);
          out->delta_bytes += static_cast<int64_t>(d.size());
        }
        out->bytes = static_cast<int64_t>(base.size()) + out->delta_bytes;
      }
      if (s.ok()) {
        out->replayed = ReplayLogSuffix(g, chain ? info.seq : 0);
        period_.tuples_replayed += out->replayed;
      }
    }
  }
  // One rule for every mode: a group whose rebuild failed must never
  // process input on its partly rebuilt state, so it is lost exactly as if
  // its node had died — recovered by RecoverGroup, input buffered until
  // then.
  if (!s.ok()) LoseGroup(g);
  return s;
}

void LocalEngine::Cutover(KeyGroupId g, NodeId to) {
  MigrationState& mig = migrating_[g];
  if (to != kInvalidNode) assignment_.set_node(g, to);
  if (mig.lost) {
    lost_groups_.erase(
        std::remove(lost_groups_.begin(), lost_groups_.end(), g),
        lost_groups_.end());
  }
  mig.active = false;
  mig.lost = false;
  mig.target = kInvalidNode;
  mig.mode = MigrationMode::kDirect;
  DrainMigrationBuffer(g);
}

void LocalEngine::LoseGroup(KeyGroupId g) {
  StreamOperator* op = operators_[topology_->group_operator(g)];
  if (op != nullptr) op->ClearGroupState(topology_->group_index_in_operator(g));
  MigrationState& mig = migrating_[g];
  if (!mig.lost) lost_groups_.push_back(g);
  mig.active = true;
  mig.lost = true;
  mig.target = kInvalidNode;
  // A buffering mode, so input buffers until RecoverGroup restores the
  // group through checkpoint + replay — a lease move included.
  mig.mode = MigrationMode::kDirect;
}

void LocalEngine::DrainMigrationBuffer(KeyGroupId group) {
  MigrationState& mig = migrating_[group];
  std::deque<Tuple> buffered;
  buffered.swap(mig.buffer);
  ALBIC_TRACE_SPAN2("migration", "migration.drain", "group", group, "buffered",
                    static_cast<int64_t>(buffered.size()));
  const OperatorId op = topology_->group_operator(group);
  const int local = topology_->group_index_in_operator(group);
  if (!buffered.empty()) {
    TupleBatch batch;
    batch.reserve(buffered.size());
    for (const Tuple& t : buffered) batch.push_back(t);
    DeliverBatch(op, local, &batch);
  }
  DrainAll();
}

Result<double> LocalEngine::FinishMigration(KeyGroupId group) {
  if (group < 0 || group >= topology_->num_key_groups()) {
    return Status::InvalidArgument("unknown key group");
  }
  PhaseScope prof_scope(prof_, WavePhase::kMigration);
  MigrationState& mig = migrating_[group];
  if (!mig.active) {
    return Status::InvalidArgument("group is not migrating");
  }
  if (mig.lost) {
    return Status::InvalidArgument("group is lost; use RecoverGroup");
  }
  if (!MigrationBuffers(mig.mode)) {
    // A lease: the slot never moves and the replay log and chain stay as
    // they are, so nothing is rebuilt and nothing buffered — the pause is
    // zero in the engine's byte-proportional model.
    ALBIC_TRACE_SPAN2("migration", "migration.lease.finish", "group", group,
                      "to", mig.target);
    CounterMetric* moves =
        metrics_.migrations[static_cast<int>(MigrationMode::kLease)];
    if (moves != nullptr) moves->Increment();
    Cutover(group, mig.target);
    return 0.0;
  }
  // Buffered cutover: rebuild while new input buffers at the target. An
  // indirect move without a usable chain is a direct one — span, pause and
  // metrics all follow the source actually used.
  const StateSource source = MoveSource(group, mig.mode);
  const MigrationMode counted = source == StateSource::kChain
                                    ? MigrationMode::kIndirect
                                    : MigrationMode::kDirect;
  double pause_us = 0.0;
  {
    ALBIC_TRACE_SPAN2("migration",
                      source == StateSource::kChain ? "migration.indirect"
                                                    : "migration.direct",
                      "group", group, "to", mig.target);
    Rebuild rebuilt;
    ALBIC_RETURN_NOT_OK(RebuildGroup(group, source, &rebuilt));
    // Direct pauses on the whole image; indirect only on the chained
    // deltas and the replayed suffix (the base travelled in the
    // background, §3). The inter-node transfer the single process cannot
    // make is modeled as pause proportional to those bytes (2.5 s/MiB,
    // §5.2.2).
    const int64_t paused_bytes =
        source == StateSource::kChain
            ? rebuilt.delta_bytes +
                  rebuilt.replayed * static_cast<int64_t>(sizeof(Tuple))
            : rebuilt.bytes;
    pause_us = kEnginePauseUsPerByte * static_cast<double>(paused_bytes);
    CounterMetric* bytes = metrics_.migration_bytes[static_cast<int>(counted)];
    if (bytes != nullptr) bytes->Add(paused_bytes);
  }
  period_.migration_pause_us += pause_us;
  CounterMetric* moves = metrics_.migrations[static_cast<int>(counted)];
  if (moves != nullptr) moves->Increment();
  // Tuples that buffered while the group was unavailable experienced the
  // pause as latency; account it before the drain re-delivers them.
  RecordBufferedPause(pause_us, mig.buffer.size());
  Cutover(group, mig.target);
  return pause_us;
}

Status LocalEngine::MigrateGroup(KeyGroupId group, NodeId to,
                                 MigrationMode mode) {
  ALBIC_RETURN_NOT_OK(StartMigration(group, to, mode));
  return FinishMigration(group).status();
}

Status LocalEngine::FailNode(NodeId node) {
  if (node < 0 || node >= cluster_->num_nodes_total()) {
    return Status::InvalidArgument("unknown node");
  }
  if (checkpointer_ == nullptr) {
    return Status::InvalidArgument(
        "failure injection requires checkpointing: lost state would be "
        "unrecoverable");
  }
  ALBIC_TRACE_INSTANT("recovery", "node.failed");
  PhaseScope prof_scope(prof_, WavePhase::kRecovery);
  for (KeyGroupId g = 0; g < topology_->num_key_groups(); ++g) {
    const MigrationState& mig = migrating_[g];
    if (assignment_.node_of(g) == node) {
      // The group dies with its node: its live state is lost, and new
      // input buffers exactly as during a migration until RecoverGroup
      // restores it elsewhere — recovery is just another reconfiguration.
      LoseGroup(g);
    } else if (mig.active && mig.target == node) {
      // A move toward the dead node, of any mode: ownership has not
      // changed, so cancel it without a flip and release the buffered
      // tuples at the source.
      Cutover(g, kInvalidNode);
    }
  }
  return Status::OK();
}

Result<GroupRecovery> LocalEngine::RecoverGroup(KeyGroupId group, NodeId to) {
  if (group < 0 || group >= topology_->num_key_groups()) {
    return Status::InvalidArgument("unknown key group");
  }
  MigrationState& mig = migrating_[group];
  if (!mig.active || !mig.lost) {
    return Status::InvalidArgument("group is not lost");
  }
  if (checkpointer_ == nullptr) {
    // Without checkpointing only a failed rebuild loses a group, and then
    // nothing is left to restore it from.
    return Status::InvalidArgument("recovery requires checkpointing");
  }
  if (to < 0 || to >= cluster_->num_nodes_total() ||
      !cluster_->is_active(to)) {
    return Status::InvalidArgument("recovery target node not active");
  }
  ALBIC_TRACE_SPAN2("recovery", "recovery.group", "group", group, "to", to);
  PhaseScope prof_scope(prof_, WavePhase::kRecovery);
  // The state was cleared when the group was lost, so the chain is the
  // only source, and the whole rebuild is paused on: restore + replay.
  Rebuild rebuilt;
  ALBIC_RETURN_NOT_OK(RebuildGroup(group, StateSource::kChain, &rebuilt));
  GroupRecovery out;
  out.replayed = rebuilt.replayed;
  out.restored_bytes = static_cast<uint64_t>(rebuilt.bytes);
  out.pause_us =
      kEnginePauseUsPerByte * static_cast<double>(rebuilt.shipped());
  ++period_.groups_recovered;
  RecordBufferedPause(out.pause_us, mig.buffer.size());
  Cutover(group, to);
  return out;
}

MigrationPauseEstimate LocalEngine::EstimateMigrationPause(
    KeyGroupId group) const {
  MigrationPauseEstimate est;
  est.direct_us =
      kEnginePauseUsPerByte * topology_->group_state_bytes(group);
  // A lease flip needs nothing but the group's live slot — no checkpoint
  // chain, no suffix, no bytes. Only a group lost to a node
  // failure (its slot cleared) cannot be leased; checkpoint + replay
  // recovers it instead.
  est.lease_available = !migrating_[group].lost;
  est.lease_us = 0.0;
  if (checkpointer_ != nullptr) {
    CheckpointInfo info;
    if (UsableChain(group, &info)) {
      // FinishMigration replays exactly the events with seq >= info.seq
      // and applies exactly the chained delta records, so at a quiescent
      // point this prediction is exact.
      const uint64_t suffix_events =
          group_logs_[group].next_seq() - info.seq;
      est.indirect_us =
          kEnginePauseUsPerByte *
          (static_cast<double>(suffix_events) * sizeof(Tuple) +
           static_cast<double>(
               checkpointer_->store()->ChainDeltaBytes(group)));
      est.indirect_available = true;
    }
  }
  return est;
}

std::vector<uint8_t> LocalEngine::LeaseAvailability() const {
  std::vector<uint8_t> out(static_cast<size_t>(topology_->num_key_groups()),
                           1);
  for (KeyGroupId g = 0; g < topology_->num_key_groups(); ++g) {
    if (migrating_[g].lost) out[static_cast<size_t>(g)] = 0;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checkpointing.
// ---------------------------------------------------------------------------

Status LocalEngine::EnableCheckpointing(CheckpointCoordinator* coordinator) {
  if (coordinator == nullptr) {
    return Status::InvalidArgument("null checkpoint coordinator");
  }
  if (checkpointer_ != nullptr) {
    return Status::AlreadyExists("checkpointing already enabled");
  }
  checkpointer_ = coordinator;
  max_log_entries_ = coordinator->options().max_log_entries;
  max_delta_chain_ = coordinator->options().max_delta_chain;
  const size_t n = static_cast<size_t>(topology_->num_key_groups());
  group_logs_.assign(n, ReplayLog());
  chain_len_.assign(n, -1);  // no base snapshot exists yet
  // Everything is dirty at attach: the initial round takes a full snapshot
  // of every operator group, establishing "latest checkpoint + logged
  // suffix = live state" before any log entry exists.
  group_dirty_.assign(n, 1);
  checkpoint_due_.assign(n, 0);
  const Result<int> initial = coordinator->CheckpointNow(this);
  if (!initial.ok()) {
    checkpointer_ = nullptr;
    return initial.status();
  }
  return Status::OK();
}

Result<CheckpointRoundResult> LocalEngine::CheckpointDirtyGroups(
    int64_t due_by) {
  if (checkpointer_ == nullptr) {
    return Status::InvalidArgument("checkpointing not enabled");
  }
  CheckpointStore* store = checkpointer_->store();
  CheckpointRoundResult result;
  const KeyGroupId groups = topology_->num_key_groups();
  const auto due = [&](KeyGroupId g) {
    return group_dirty_[g] != 0 && checkpoint_due_[g] <= due_by;
  };
  KeyGroupId g = 0;
  while (g < groups && !due(g)) ++g;
  if (g == groups) return result;  // an empty slice leaves no span
  ALBIC_TRACE_SPAN("checkpoint", "checkpoint.round");
  PhaseScope prof_scope(prof_, WavePhase::kCheckpoint);
  for (; g < groups; ++g) {
    if (!due(g)) continue;
    const OperatorId op = topology_->group_operator(g);
    if (operators_[op] == nullptr) {
      group_dirty_[g] = 0;  // stateless fan-out groups have nothing to save
      continue;
    }
    // A lost group's live state is gone; overwriting its snapshot with the
    // cleared state would destroy the recovery source. It stays dirty and
    // is snapshotted on the first slice after recovery.
    if (migrating_[g].lost) continue;
    const int local = topology_->group_index_in_operator(g);
    // Delta or base? A delta needs a base to chain onto and room left in
    // the chain (compaction: a full chain rolls over into a fresh base).
    // Those cheap checks go first; then the operator derives the delta
    // from the group's log, which holds exactly the events since the
    // newest record (a move or a recovery rebuilds that record plus the
    // log, or leaves the state as it was), or declines.
    std::string state;
    const bool as_delta =
        chain_len_[g] >= 0 && chain_len_[g] < max_delta_chain_ &&
        operators_[op]->SerializeGroupDelta(local, group_logs_[g], &state);
    if (!as_delta) state = operators_[op]->SerializeGroupState(local);
    const uint64_t seq = group_logs_[g].next_seq();
    ALBIC_ASSIGN_OR_RETURN(const CheckpointInfo info,
                           as_delta ? store->PutDelta(g, seq, std::move(state))
                                    : store->Put(g, seq, std::move(state)));
    const int64_t bytes = static_cast<int64_t>(info.bytes);
    chain_len_[g] = as_delta ? chain_len_[g] + 1 : 0;
    if (as_delta) {
      ++result.delta_groups;
      result.delta_bytes += bytes;
    }
    // Truncate the covered prefix; fully consumed chunk vectors go back to
    // the vector pool, closing the zero-copy loop (mailbox batch -> log
    // chunk -> pool -> mailbox batch).
    freed_chunks_.clear();
    group_logs_[g].TruncateBefore(seq, &freed_chunks_);
    for (std::vector<Tuple>& vec : freed_chunks_) ReleaseVec(std::move(vec));
    group_dirty_[g] = 0;
    checkpoint_due_[g] = checkpointer_->NextDue(g, groups);
    ++result.groups;
    result.bytes += bytes;
  }
  log_overflow_ = false;  // partial slices run only while it is false
  period_.checkpoints_taken += result.groups;
  period_.checkpoint_bytes += result.bytes;
  // Delta-vs-base split is not in the period stats; publish it here (cold
  // path, a few non-empty slices per checkpoint interval).
  if (metrics_.checkpoint_delta_groups != nullptr) {
    metrics_.checkpoint_delta_groups->Add(result.delta_groups);
    metrics_.checkpoint_delta_bytes->Add(result.delta_bytes);
  }
  return result;
}

void LocalEngine::LogWindowFire(KeyGroupId g) {
  // Window firings mutate windowed state (counts reset, last-window output
  // replaced); without them in the log, replayed counts would accumulate
  // across window boundaries.
  group_logs_[g].AppendWindowFire();
  MarkLogged(g);
}

int64_t LocalEngine::ReplayLogSuffix(KeyGroupId g, uint64_t from_seq) {
  ALBIC_TRACE_SPAN1("checkpoint", "replay", "group", g);
  StreamOperator* op = operators_[topology_->group_operator(g)];
  const int local = topology_->group_index_in_operator(g);
  NullEmitter discard;
  return group_logs_[g].ReplayFrom(
      from_seq,
      [&](const Tuple& t) { op->Process(t, local, &discard); },
      [&] { op->OnWindow(local, &discard); });
}

EnginePeriodStats LocalEngine::HarvestPeriod() {
  DrainAll();
  if (prof_ != nullptr) {
    // Close the period's phase accounting: charge the driving thread's
    // open phase up to now and stamp the measured wall time the breakdown
    // is checked against.
    const int64_t now = ProfilerNowNs();
    prof_acc_.FlushInto(&period_.phases, now);
    period_.phases.wall_ns = now - period_start_wall_ns_;
    period_start_wall_ns_ = now;
  }
  // Journeys still in flight survive the harvest: a sampled tuple waiting
  // for its window to close legitimately spans controller periods, and its
  // completion lands in whichever period's worst-N sweep sees the sink
  // claim. Dropping here would kill every journey in a windowed job whose
  // window outlives a period.
  EnginePeriodStats out = std::move(period_);
  period_ = EnginePeriodStats();
  period_.group_work.assign(
      static_cast<size_t>(topology_->num_key_groups()), 0.0);
  period_.node_work.assign(
      static_cast<size_t>(cluster_->num_nodes_total()), 0.0);
  period_.comm = CommMatrix(topology_->num_key_groups());
  // Sized for this period's pairs, so the next period's first chunk does
  // not grow every row and the index.
  period_.comm.ReserveLike(out.comm);
  if (telemetry_) {
    period_.latency.EnableFor(topology_->num_operators(),
                              topology_->num_key_groups());
  }
  if (prof_ != nullptr) {
    period_.phases.EnableFor(
        static_cast<size_t>(topology_->num_key_groups()));
  }
  PublishPeriodMetrics(out);
  return out;
}

}  // namespace albic::engine
