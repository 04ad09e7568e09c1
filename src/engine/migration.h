#pragma once

/// \file
/// \brief Migration cost model (mck) and the application of planned
/// migrations to an assignment, with pause-latency accounting.

#include <vector>

#include "engine/assignment.h"
#include "engine/topology.h"
#include "engine/types.h"

namespace albic::engine {

/// \brief How a key group's state travels to its new node.
enum class MigrationMode {
  /// Direct state migration (§3, "State Migration"): serialize the live
  /// state, move it, deserialize — the pause is O(state size).
  kDirect,
  /// Indirect migration via the checkpoint subsystem: the target restores
  /// the group's latest checkpoint (transferred in the background) and
  /// replays the logged suffix — the pause is O(suffix), not O(state).
  kIndirect,
  /// Lease flip: the group's state slot never moves — it keeps
  /// processing live at its source until FinishMigration flips its owner
  /// to the target, and that is the entire migration. Zero bytes
  /// serialized, zero background transfer, zero pause. Works with or
  /// without checkpointing (the flip does not touch the replay-log
  /// machinery, so the failure path stays intact); unavailable only for
  /// groups lost across a FailNode boundary, where checkpoint + replay
  /// remains the recovery mechanism.
  kLease,
};

/// \brief Number of MigrationMode values (extent of per-mode tables).
inline constexpr int kNumMigrationModes = 3;
static_assert(static_cast<int>(MigrationMode::kLease) + 1 ==
                  kNumMigrationModes,
              "kNumMigrationModes must count every MigrationMode");

/// \brief Stable lower-case name of \p mode ("direct", "indirect",
/// "lease"): the `mode` label of the engine's per-mode metric series and
/// the decision journal's `mode` field.
const char* MigrationModeName(MigrationMode mode);

/// \brief True for the modes that buffer new input at the target while the
/// state travels (direct/indirect). A lease never buffers: the group keeps
/// processing live at its source until FinishMigration flips its owner.
inline bool MigrationBuffers(MigrationMode mode) {
  return mode == MigrationMode::kDirect || mode == MigrationMode::kIndirect;
}

/// \brief Cost model for state migration (§3, "State Migration").
///
/// mck = alpha * |sigma_k| where |sigma_k| is the group's state size; alpha
/// converts bytes into "time to serialize on a node with average load". The
/// same constant family drives the pause-latency model used by Fig. 9
/// (each migrated group's processing is paused for serialize + transfer +
/// deserialize). Indirect migration replaces the O(state) pause with an
/// O(log suffix) one: the checkpoint transfers in the background and only
/// the replayed suffix contributes pause.
/// \brief Default pause rate in seconds per byte of moved/replayed state
/// (~2.5 s for a 1 MiB group, the average per-group pause §5.2.2 reports).
/// Single source for the cost-model defaults and the engine's modeled
/// pause, so the planner's prediction and the runtime's accounting agree.
inline constexpr double kDefaultPauseSecondsPerByte = 2.5 / (1 << 20);

struct MigrationCostModel {
  /// Cost units per byte of state (mck = alpha * bytes).
  double alpha_per_byte = 1.0 / (1 << 20);
  /// Pause seconds per byte of directly migrated state.
  double pause_seconds_per_byte = kDefaultPauseSecondsPerByte;
};

/// \brief Pause rate used by the single-process engine to model the
/// inter-node transfer it cannot perform for real, in microseconds per
/// byte.
inline constexpr double kEnginePauseUsPerByte =
    kDefaultPauseSecondsPerByte * 1e6;

/// \brief Migration cost mck of one key group.
double MigrationCost(const Topology& topology, KeyGroupId g,
                     const MigrationCostModel& model);

/// \brief Migration costs for all key groups.
std::vector<double> AllMigrationCosts(const Topology& topology,
                                      const MigrationCostModel& model);

/// \brief Summary of applying one adaptation round's migrations.
struct MigrationReport {
  int count = 0;                   ///< Number of key groups moved.
  double total_cost = 0.0;         ///< Sum of mck over moved groups.
  double total_pause_seconds = 0.0;  ///< Summed per-group pause latency.
};

/// \brief Applies migrations to \p assignment and accounts their cost.
MigrationReport ApplyMigrations(const std::vector<Migration>& migrations,
                                const Topology& topology,
                                const MigrationCostModel& model,
                                Assignment* assignment);

}  // namespace albic::engine
