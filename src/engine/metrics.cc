#include "engine/metrics.h"

namespace albic::engine {

LatencySummary LatencySummary::FromPeriod(const LatencyPeriodStats& period) {
  LatencySummary out;
  if (!period.enabled) return out;
  out.e2e_count = period.e2e_us.count();
  out.e2e_p50_us = period.e2e_us.Percentile(50.0);
  out.e2e_p99_us = period.e2e_us.Percentile(99.0);
  out.e2e_max_us = period.e2e_us.max();
  out.queue_p99_us = period.queue_us.Percentile(99.0);
  return out;
}

}  // namespace albic::engine
