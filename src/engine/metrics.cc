#include "engine/metrics.h"

namespace albic::engine {

LatencySummary LatencySummary::FromPeriod(const LatencyPeriodStats& period) {
  LatencySummary out;
  if (!period.enabled) return out;
  const LogHistogram* e2e = &period.e2e_us;
  LogHistogram merged;
  if (!period.stall_e2e_us.empty()) {
    merged = period.e2e_us;
    merged.Merge(period.stall_e2e_us);
    e2e = &merged;
  }
  out.e2e_count = e2e->count();
  out.e2e_p50_us = e2e->Percentile(50.0);
  out.e2e_p99_us = e2e->Percentile(99.0);
  out.e2e_max_us = e2e->max();
  out.queue_p99_us = period.queue_us.Percentile(99.0);
  return out;
}

}  // namespace albic::engine
