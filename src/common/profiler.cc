#include "common/profiler.h"

#include <chrono>

namespace albic {

const char* WavePhaseName(WavePhase phase) {
  switch (phase) {
    case WavePhase::kIdle: return "idle";
    case WavePhase::kIngest: return "ingest";
    case WavePhase::kService: return "service";
    case WavePhase::kWaveBarrier: return "wave_barrier";
    case WavePhase::kWindow: return "window";
    case WavePhase::kCheckpoint: return "checkpoint";
    case WavePhase::kMigration: return "migration";
    case WavePhase::kRecovery: return "recovery";
    case WavePhase::kCount: break;
  }
  return "unknown";
}

int64_t ProfilerNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PhaseBreakdown::EnableFor(size_t num_groups) {
  enabled = true;
  for (int64_t& v : ns) v = 0;
  wall_ns = 0;
  group_service_ns.assign(num_groups, 0);
}

int64_t PhaseBreakdown::TotalNs() const {
  int64_t total = 0;
  for (const int64_t v : ns) total += v;
  return total;
}

double PhaseBreakdown::Coverage() const {
  if (wall_ns <= 0) return 0.0;
  return static_cast<double>(TotalNs()) / static_cast<double>(wall_ns);
}

WavePhase PhaseBreakdown::DominantPhase() const {
  int best = 0;
  for (int p = 1; p < kNumWavePhases; ++p) {
    if (ns[p] > ns[best]) best = p;
  }
  return static_cast<WavePhase>(best);
}

double PhaseBreakdown::DominantShare() const {
  const int64_t total = TotalNs();
  if (total <= 0) return 0.0;
  return static_cast<double>(ns[static_cast<int>(DominantPhase())]) /
         static_cast<double>(total);
}

}  // namespace albic
