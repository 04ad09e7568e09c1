#include "engine/journey.h"

#include <algorithm>

#include "common/trace.h"
#include "engine/metrics.h"

namespace albic::engine {

void JourneyTracker::Enable(int sample_every, int num_operators,
                            const std::vector<uint8_t>& is_sink) {
  enabled_ = true;
  sample_every_ = sample_every;
  num_operators_ = num_operators;
  is_sink_ = is_sink;
  countdown_ = 1;
  const size_t n = static_cast<size_t>(kMaxActive) *
                   static_cast<size_t>(num_operators_);
  claimed_.assign(n, 0);
  hop_group_.assign(n, 0);
  hop_enqueue_ns_.assign(n, 0);
  hop_t0_ns_.assign(n, 0);
  hop_t1_ns_.assign(n, 0);
}

void JourneyTracker::MaybeStart(int64_t event_ts_us, int64_t wall_ns,
                                size_t count) {
  countdown_ -= static_cast<int64_t>(count);
  if (countdown_ > 0) return;
  countdown_ = sample_every_;
  // Monotone stamps, like the ingest-sample ring: a late run must not
  // start a journey behind the frontier — its hops would be claimed by the
  // first batch of anything newer.
  if (event_ts_us < last_start_ts_us_) return;
  for (int s = 0; s < kMaxActive; ++s) {
    Slot& slot = slots_[s];
    if (slot.in_use) continue;
    slot.in_use = true;
    slot.id = next_id_++;
    slot.event_ts_us = event_ts_us;
    slot.ingest_wall_ns = wall_ns != 0 ? wall_ns : TelemetryNowNs();
    last_start_ts_us_ = event_ts_us;
    for (OperatorId op = 0; op < num_operators_; ++op) {
      claimed_[static_cast<size_t>(HopIndex(s, op))] = 0;
    }
    return;
  }
  // Every slot busy: skip this sample.
}

void JourneyTracker::OnBatchDelivered(OperatorId op, KeyGroupId group,
                                      int64_t last_ts, int64_t enqueue_ns,
                                      int64_t t0_ns, int64_t t1_ns) {
  for (int s = 0; s < kMaxActive; ++s) {
    const Slot& slot = slots_[s];
    if (!slot.in_use || last_ts < slot.event_ts_us) continue;
    const size_t idx = static_cast<size_t>(HopIndex(s, op));
    // Exactly-once per (journey, operator): re-deliveries — a migration
    // buffer draining, a recovered group's backlog — find the hop claimed
    // and leave the first claim's measurements untouched.
    if (claimed_[idx] != 0) continue;
    claimed_[idx] = 1;
    hop_group_[idx] = group;
    hop_enqueue_ns_[idx] = enqueue_ns;
    hop_t0_ns_[idx] = t0_ns;
    hop_t1_ns_[idx] = t1_ns;
  }
}

void JourneyTracker::Sweep(std::vector<CompletedJourney>* worst) {
  for (int s = 0; s < kMaxActive; ++s) {
    Slot& slot = slots_[s];
    if (!slot.in_use) continue;
    // Complete once a sink hop was claimed; the journey's end is the
    // newest claimed sink's service end.
    int64_t end_ns = 0;
    for (OperatorId op = 0; op < num_operators_; ++op) {
      const size_t idx = static_cast<size_t>(HopIndex(s, op));
      if (is_sink_[static_cast<size_t>(op)] == 0) continue;
      if (claimed_[idx] == 0) continue;
      end_ns = std::max(end_ns, hop_t1_ns_[idx]);
    }
    if (end_ns == 0) continue;

    CompletedJourney j;
    j.id = slot.id;
    j.event_ts_us = slot.event_ts_us;
    j.ingest_wall_ns = slot.ingest_wall_ns;
    j.e2e_us = static_cast<double>(end_ns - slot.ingest_wall_ns) / 1000.0;
    for (OperatorId op = 0; op < num_operators_; ++op) {
      const size_t idx = static_cast<size_t>(HopIndex(s, op));
      if (claimed_[idx] == 0) continue;
      JourneyHop hop;
      hop.op = op;
      hop.group = hop_group_[idx];
      hop.start_ns = hop_enqueue_ns_[idx] > 0 ? hop_enqueue_ns_[idx]
                                              : hop_t0_ns_[idx];
      hop.end_ns = hop_t1_ns_[idx];
      hop.queue_us = hop_enqueue_ns_[idx] > 0
                         ? static_cast<double>(hop_t0_ns_[idx] -
                                               hop_enqueue_ns_[idx]) /
                               1000.0
                         : 0.0;
      hop.service_us =
          static_cast<double>(hop_t1_ns_[idx] - hop_t0_ns_[idx]) / 1000.0;
      j.hops.push_back(hop);
    }
    slot.in_use = false;

    Tracer& tracer = Tracer::Global();
    if (tracer.enabled()) {
      // Synthesize the nested spans retroactively: the parent covers
      // ingest stamp to sink end, each hop covers its mailbox wait plus
      // service. Names must be literals (the tracer stores pointers).
      TraceSpan parent;
      parent.name = "journey";
      parent.cat = "journey";
      parent.start_ns = j.ingest_wall_ns;
      parent.dur_ns = end_ns - j.ingest_wall_ns;
      parent.arg1_name = "id";
      parent.arg1 = j.id;
      parent.arg2_name = "event_ts_us";
      parent.arg2 = j.event_ts_us;
      tracer.Record(parent);
      for (const JourneyHop& hop : j.hops) {
        TraceSpan span;
        span.name = "journey.hop";
        span.cat = "journey";
        span.start_ns = hop.start_ns;
        span.dur_ns = hop.end_ns - hop.start_ns;
        span.arg1_name = "op";
        span.arg1 = hop.op;
        span.arg2_name = "group";
        span.arg2 = hop.group;
        tracer.Record(span);
      }
    }

    if (worst->size() < static_cast<size_t>(kWorstPerPeriod)) {
      worst->push_back(std::move(j));
      continue;
    }
    size_t min_i = 0;
    for (size_t i = 1; i < worst->size(); ++i) {
      if ((*worst)[i].e2e_us < (*worst)[min_i].e2e_us) min_i = i;
    }
    if (j.e2e_us > (*worst)[min_i].e2e_us) (*worst)[min_i] = std::move(j);
  }
}

void JourneyTracker::DropActive() {
  for (Slot& slot : slots_) slot.in_use = false;
}

}  // namespace albic::engine
