#pragma once

/// \file
/// \brief Sampled per-tuple journeys: extends the engine's sampled
/// ingestion stamps into full causal journey records — ingest, mailbox
/// queueing, each operator hop, sink — linked by a journey id, so the
/// worst tail-latency exemplars of a period can be inspected hop by hop
/// (and, with the tracer on, rendered as nested spans in Perfetto).
///
/// Sampling model, mirroring the latency telemetry: one journey starts
/// every journey_sample_every ingested tuples (requires latency telemetry;
/// the journey's wall stamp is the same ingest stamp the latency samples
/// use). A journey is identified by its ingestion event time; at every
/// operator, the FIRST delivered batch whose newest event time has reached
/// the journey's stamp claims that operator's hop — the same
/// newest-sample-at-or-before approximation the e2e histogram uses, so a
/// journey traces a representative path of the sampled tuple's wavefront
/// rather than one physical tuple (tuples fan out; a single causal chain
/// does not exist once an operator emits more than one tuple).
///
/// Claims: the first claim of a (journey, operator) hop wins and records
/// its measurements; later deliveries to that operator — re-deliveries
/// after migrations and recovery included — leave them untouched. Every
/// call runs on the engine's driving thread, so a claim is a plain byte.
///
/// Cost contract: off by default. When off, one predictable branch per
/// ingest call and none per delivery (callers check enabled()). Journeys
/// observe and never steer — engine outputs are bit-identical either way.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/types.h"

namespace albic::engine {

/// \brief One operator hop of a completed journey.
struct JourneyHop {
  OperatorId op = 0;
  KeyGroupId group = 0;      ///< Global key group that served the hop.
  double queue_us = 0.0;     ///< Mailbox wait of the claiming batch.
  double service_us = 0.0;   ///< Service time of the claiming batch.
  int64_t start_ns = 0;      ///< Wall start (enqueue if stamped, else t0).
  int64_t end_ns = 0;        ///< Wall end of the hop's service.
};

/// \brief A finished journey: the per-hop breakdown of one sampled
/// tuple's path from ingestion to a sink. Surfaces in
/// EnginePeriodStats::journeys (worst-N by end-to-end latency).
struct CompletedJourney {
  int64_t id = 0;
  int64_t event_ts_us = 0;     ///< Ingestion event time of the sample.
  int64_t ingest_wall_ns = 0;  ///< Wall stamp at ingestion (shard-side).
  double e2e_us = 0.0;         ///< Ingest stamp to sink service end.
  std::vector<JourneyHop> hops;  ///< In operator-id order.
};

/// \brief Tracks the journeys currently in flight. Owned by LocalEngine;
/// inert until Enable.
class JourneyTracker {
 public:
  /// Journeys in flight at once; an elapsed sampling interval with every
  /// slot busy skips that sample (journeys are exemplars, not a census).
  static constexpr int kMaxActive = 4;
  /// Worst journeys kept per period.
  static constexpr int kWorstPerPeriod = 4;

  /// \brief Activates tracking: start a journey every \p sample_every
  /// ingested tuples. \p is_sink flags per operator whether it terminates
  /// the dataflow (a claimed sink hop completes the journey).
  void Enable(int sample_every, int num_operators,
              const std::vector<uint8_t>& is_sink);

  bool enabled() const { return enabled_; }

  /// \brief Counts \p count ingested tuples and starts a journey when the
  /// sampling interval elapses and a slot is free. \p wall_ns is the
  /// ingest stamp (0 = read the clock here).
  void MaybeStart(int64_t event_ts_us, int64_t wall_ns, size_t count);

  /// \brief Offers a delivered batch as a hop claim: the first batch at
  /// \p op whose newest event time \p last_ts has reached an active
  /// journey's stamp claims that journey's hop at \p op. Called per
  /// delivered batch; allocation-free.
  void OnBatchDelivered(OperatorId op, KeyGroupId group, int64_t last_ts,
                        int64_t enqueue_ns, int64_t t0_ns, int64_t t1_ns);

  /// \brief Moves journeys whose sink hop was claimed into \p worst,
  /// keeping at most kWorstPerPeriod entries by e2e latency, and frees
  /// their slots. Emits trace spans for completed journeys when the
  /// global tracer is enabled. Called between drain waves.
  void Sweep(std::vector<CompletedJourney>* worst);

  /// \brief Drops every in-flight journey. In-flight journeys survive
  /// period harvests (a tuple waiting for its window spans periods); this
  /// exists for teardown and for tests that need deterministic slot reuse.
  void DropActive();

 private:
  struct Slot {
    bool in_use = false;
    int64_t id = 0;
    int64_t event_ts_us = 0;
    int64_t ingest_wall_ns = 0;
  };

  int HopIndex(int slot, OperatorId op) const {
    return slot * num_operators_ + static_cast<int>(op);
  }

  bool enabled_ = false;
  int sample_every_ = 0;
  int num_operators_ = 0;
  std::vector<uint8_t> is_sink_;
  int64_t countdown_ = 1;
  int64_t last_start_ts_us_ = INT64_MIN;
  int64_t next_id_ = 0;
  Slot slots_[kMaxActive];
  /// Hop claim flags and measurements, kMaxActive * num_operators_ each;
  /// the measurements are written only by a hop's first claim.
  std::vector<uint8_t> claimed_;
  std::vector<KeyGroupId> hop_group_;
  std::vector<int64_t> hop_enqueue_ns_;
  std::vector<int64_t> hop_t0_ns_;
  std::vector<int64_t> hop_t1_ns_;
};

}  // namespace albic::engine
