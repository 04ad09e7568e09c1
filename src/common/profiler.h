#pragma once

/// \file
/// \brief Wave-phase profiler: per-thread exclusive wall-time accounting
/// that decomposes a period of engine execution into phases (ingest
/// routing, per-group operator service, wave-barrier coordination, window
/// fires, checkpoint serialization, migration stalls, recovery, idle) —
/// the attribution layer that answers *why* a p99 breached, not just that
/// it did.
///
/// Accounting model: every thread that profiles owns one PhaseAccumulator.
/// The accumulator keeps a single open phase at a time (the base phase is
/// kIdle) and charges elapsed wall time to the phase open when it elapsed,
/// so every nanosecond of the thread's timeline lands in exactly one
/// phase. PhaseScope switches phases RAII-style and restores the previous
/// phase on exit, which makes nesting exact: an inner checkpoint scope
/// carves its time *out of* the surrounding wave-barrier phase instead of
/// double-counting it. On the engine's driving thread the phase totals of
/// a period therefore sum to the measured wall time of the period.
///
/// Cost contract, mirroring the latency telemetry: off by default; when
/// off, no clock reads, no stores, and engine outputs are bit-identical
/// either way (the profiler observes, never steers). When on, one clock
/// read per phase switch.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace albic {

/// \brief The phases the engine's wall time decomposes into. Kept in one
/// flat enum so a breakdown is a plain array and a metric label.
enum class WavePhase : int {
  /// Time on the driving thread outside any engine call (between
  /// injections: source generation, controller work, caller logic).
  kIdle = 0,
  /// Ingestion: routing injected tuples to source groups and staging them
  /// into mailboxes (Inject / InjectBatch / InjectRouted).
  kIngest,
  /// Operator service: ProcessBatch plus per-batch delivery bookkeeping.
  /// Also attributed per key group (PhaseBreakdown::group_service_ns).
  kService,
  /// Wave coordination: collecting mailboxes and fanning out null-source
  /// batches — drain time that is not operator service.
  kWaveBarrier,
  /// Window boundary processing (firing window operators).
  kWindow,
  /// Checkpoint rounds: serializing dirty groups, log truncation.
  kCheckpoint,
  /// Migration work: lease flips, state transfer, buffer drains.
  kMigration,
  /// Failure handling: FailNode bookkeeping and RecoverGroup restores.
  kRecovery,
  kCount
};

inline constexpr int kNumWavePhases = static_cast<int>(WavePhase::kCount);

/// \brief Stable lowercase phase name, used as the `phase` metric label
/// and in journal JSON ("idle", "ingest", "service", ...).
const char* WavePhaseName(WavePhase phase);

/// \brief The profiler's wall clock (steady_clock ns) — shared with the
/// latency telemetry and the tracer so all three observe one timeline.
int64_t ProfilerNowNs();

/// \brief One period's phase totals, harvested with EnginePeriodStats.
struct PhaseBreakdown {
  /// Profiling active. When false every other field is zero/empty and the
  /// struct costs nothing to carry.
  bool enabled = false;
  /// Nanoseconds charged to each phase (indexed by WavePhase).
  int64_t ns[kNumWavePhases] = {};
  /// Measured wall time of the period on the driving thread (stamped at
  /// harvest). TotalNs() accounts for ~all of it.
  int64_t wall_ns = 0;
  /// Service nanoseconds per key group — the per-(operator, key-group)
  /// attribution the controller ranks to explain load decisions. Sums to
  /// ns[kService] across groups.
  std::vector<int64_t> group_service_ns;

  /// \brief Activates the breakdown and sizes the per-group attribution.
  void EnableFor(size_t num_groups);
  /// \brief Total nanoseconds across all phases, idle included.
  int64_t TotalNs() const;
  /// \brief TotalNs() / wall_ns — the phase-sum coverage of measured wall
  /// time (engine invariant: >= 0.95 on the driving thread). 0 when no
  /// wall time was stamped.
  double Coverage() const;
  /// \brief Phase with the most charged time (kIdle when empty).
  WavePhase DominantPhase() const;
  /// \brief DominantPhase's share of TotalNs(); 0 when nothing charged.
  double DominantShare() const;
};

/// \brief Per-thread exclusive phase clock. Not thread-safe — each thread
/// owns one.
class PhaseAccumulator {
 public:
  /// \brief Zeroes all charges and (re)opens kIdle at \p now_ns.
  void Reset(int64_t now_ns) {
    for (int64_t& v : ns_) v = 0;
    cur_ = WavePhase::kIdle;
    cur_start_ns_ = now_ns;
  }

  /// \brief Charges the open phase up to \p now_ns, opens \p phase, and
  /// returns the previously open phase (for the caller to restore).
  WavePhase SwitchTo(WavePhase phase, int64_t now_ns) {
    const WavePhase prev = cur_;
    ns_[static_cast<int>(prev)] += now_ns - cur_start_ns_;
    cur_ = phase;
    cur_start_ns_ = now_ns;
    return prev;
  }

  /// \brief Charges the open phase up to \p now_ns and adds all charges
  /// into \p out (which must be enabled), then zeroes them. The open phase
  /// keeps running from \p now_ns, so flushing at a period boundary loses
  /// nothing.
  void FlushInto(PhaseBreakdown* out, int64_t now_ns) {
    ns_[static_cast<int>(cur_)] += now_ns - cur_start_ns_;
    cur_start_ns_ = now_ns;
    for (int p = 0; p < kNumWavePhases; ++p) {
      out->ns[p] += ns_[p];
      ns_[p] = 0;
    }
  }

  WavePhase current() const { return cur_; }

 private:
  WavePhase cur_ = WavePhase::kIdle;
  int64_t cur_start_ns_ = 0;
  int64_t ns_[kNumWavePhases] = {};
};

/// \brief RAII phase switch: opens \p phase on entry, restores the phase
/// that was open on exit. Inert (no clock reads) when \p acc is null —
/// the engine passes null whenever profiling is off, keeping the
/// disabled-path cost to one predictable branch.
class PhaseScope {
 public:
  PhaseScope(PhaseAccumulator* acc, WavePhase phase) : acc_(acc) {
    if (acc_ != nullptr) prev_ = acc_->SwitchTo(phase, ProfilerNowNs());
  }
  ~PhaseScope() {
    if (acc_ != nullptr) acc_->SwitchTo(prev_, ProfilerNowNs());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  PhaseAccumulator* acc_;
  WavePhase prev_ = WavePhase::kIdle;
};

}  // namespace albic
