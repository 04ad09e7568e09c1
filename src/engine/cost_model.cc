#include "engine/cost_model.h"

namespace albic::engine {

namespace {

/// EWMA weight of the newest period's service shares: a one-period flip
/// moves a share halfway, which damps one-period noise without lagging a
/// genuine shift by more than a period or two.
constexpr double kShareEwmaWeight = 0.5;

}  // namespace

std::vector<double> MeasuredCostModel::UpdateAndBlend(
    const std::vector<double>& modeled_loads,
    const LatencyPeriodStats& latency) {
  const size_t n = modeled_loads.size();

  // Fallback: no telemetry, or a period with zero measured service. The
  // modeled loads pass through untouched (bit-identical by construction)
  // and the signals clear, so no stale measurement outlives the telemetry
  // that produced it.
  double service_total = 0.0;
  if (latency.enabled) {
    for (size_t g = 0; g < latency.group_service.size() && g < n; ++g) {
      service_total += latency.group_service[g].service_sum_us;
    }
  }
  if (!latency.enabled || service_total <= 0.0) {
    signals_ = MeasuredSignals();
    measured_ = false;
    have_share_ = false;
    return modeled_loads;
  }
  measured_ = true;

  // --- service shares: EWMA across periods, renormalized -----------------
  if (signals_.group_service_share.size() != n) {
    signals_.group_service_share.assign(n, 0.0);
    have_share_ = false;
  }
  double ewma_total = 0.0;
  for (size_t g = 0; g < n; ++g) {
    const double period_share =
        g < latency.group_service.size()
            ? latency.group_service[g].service_sum_us / service_total
            : 0.0;
    double& share = signals_.group_service_share[g];
    share = have_share_ ? kShareEwmaWeight * period_share +
                              (1.0 - kShareEwmaWeight) * share
                        : period_share;
    ewma_total += share;
  }
  if (ewma_total > 0.0) {
    for (double& s : signals_.group_service_share) s /= ewma_total;
  }
  have_share_ = true;

  // --- blend: total modeled load, measured distribution -------------------
  double modeled_total = 0.0;
  for (const double l : modeled_loads) modeled_total += l;
  std::vector<double> out(n, 0.0);
  for (size_t g = 0; g < n; ++g) {
    out[g] = modeled_total * signals_.group_service_share[g];
  }
  return out;
}

}  // namespace albic::engine
