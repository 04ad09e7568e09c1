#pragma once

/// \file
/// \brief Latency telemetry: the per-period latency stats the engine
/// accumulates (queueing delay, per-operator service time, end-to-end
/// latency) and the compact percentile summary the controller exposes.
/// LogHistogram itself lives in common/log_histogram.h (shared with the
/// metrics registry) and is re-exported here for engine code.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log_histogram.h"

namespace albic::engine {

using ::albic::LogHistogram;

/// \brief The telemetry wall clock, nanoseconds on steady_clock. Ingestion
/// stamps and sink/dequeue readings are subtracted from each other, so
/// every telemetry site MUST use this one helper — mixing clock sources
/// would silently corrupt all latency measurements.
inline int64_t TelemetryNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// \brief One sampled ingestion timestamp: the wall-clock instant a tuple
/// with event time \p event_ts_us entered the system (stamped at the
/// source/shard thread, so downstream measurements include shard-queue
/// wait). The engine keeps a short monotone ring of these and sinks look
/// up the newest sample at or before a batch's event time to derive
/// end-to-end latency.
struct IngestSample {
  int64_t event_ts_us = 0;
  int64_t wall_ns = 0;
};

/// \brief Per-key-group service-time accumulator (full histograms per
/// group would be memory-heavy at fig-5 scale; a sum/count pair per group
/// is enough to rank groups by mean service time and to feed the
/// measured-cost model's service shares).
struct GroupLatency {
  double service_sum_us = 0.0;
  int64_t tuples = 0;
};

/// \brief Latency measurements of one statistics period. Lives inside
/// EnginePeriodStats; empty (enabled = false, no allocations) unless the
/// engine runs with latency_sample_every > 0.
struct LatencyPeriodStats {
  bool enabled = false;
  /// End-to-end latency recorded at sink operators (no downstream edges):
  /// wall time from the sampled ingestion stamp to batch completion.
  LogHistogram e2e_us;
  /// Modeled migration/recovery pause experienced by buffered tuples, one
  /// sample per tuple, recorded at drain time (the engine cannot perform
  /// the inter-node transfer for real, so the pause enters latency the
  /// same way it enters migration_pause_us). Kept SEPARATE from e2e_us so
  /// modeled pause stays apart from measured latency; LatencySummary
  /// merges both for reporting — the spike is real and the latency
  /// timeline must show it. A buffered tuple thus appears once here (the
  /// stall event) and once in e2e_us (its later delivery).
  LogHistogram stall_e2e_us;
  /// Mailbox queueing delay: batch enqueue (OpenBatch) to dequeue
  /// (DeliverBatch), across all operators.
  LogHistogram queue_us;
  /// Per-operator batch service time (one sample per delivered batch).
  std::vector<LogHistogram> op_service_us;
  /// Per-key-group service accumulation (sum over delivered tuples).
  std::vector<GroupLatency> group_service;

  void EnableFor(int num_operators, int num_key_groups) {
    enabled = true;
    op_service_us.assign(static_cast<size_t>(num_operators), LogHistogram());
    group_service.assign(static_cast<size_t>(num_key_groups), GroupLatency());
  }
};

/// \brief Compact percentile summary derived from a period's histograms —
/// what ControllerRound carries so reports and the journal see latency
/// without owning the histograms.
struct LatencySummary {
  int64_t e2e_count = 0;
  int64_t e2e_p50_us = 0;
  int64_t e2e_p99_us = 0;
  int64_t e2e_max_us = 0;
  int64_t queue_p99_us = 0;

  /// \brief Summary of a period, with the modeled migration/recovery
  /// stall samples folded into the end-to-end percentiles.
  static LatencySummary FromPeriod(const LatencyPeriodStats& period);
};

}  // namespace albic::engine
