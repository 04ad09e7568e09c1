#pragma once

/// \file
/// \brief StreamOperator, the user-code interface: per-key-group
/// processing (tuple and batch), windows, state (de)serialization for
/// direct state migration, and the delta records of delta-encoded
/// checkpoints, derived from the group's replay log.

#include <string>

#include "common/status.h"
#include "engine/batch.h"
#include "engine/replay_log.h"
#include "engine/tuple.h"

namespace albic::engine {

/// \brief Sink for tuples an operator emits downstream.
class Emitter {
 public:
  virtual ~Emitter() = default;
  virtual void Emit(const Tuple& tuple) = 0;
};

/// \brief User-defined operator logic, parallelized over key groups.
///
/// The engine calls Process for every input tuple with the operator-local
/// key-group index; all state must be kept per group (the paper's core
/// execution-model assumption: groups are independently processable and
/// migratable, §3). State (de)serialization implements direct state
/// migration; the engine serializes at the source, clears, and
/// deserializes at the target.
class StreamOperator {
 public:
  virtual ~StreamOperator() = default;

  /// \brief Processes one tuple belonging to key group \p group_index.
  virtual void Process(const Tuple& tuple, int group_index, Emitter* out) = 0;

  /// \brief Processes a batch of tuples, all belonging to key group
  /// \p group_index, in order. The engine calls this instead of Process;
  /// hot operators override it to hoist per-tuple work (group-state
  /// lookups, mode branches) out of the loop. The default is semantically
  /// identical to calling Process per tuple.
  virtual void ProcessBatch(const TupleBatch& batch, int group_index,
                            Emitter* out) {
    for (const Tuple& tuple : batch) Process(tuple, group_index, out);
  }

  /// \brief Fired on window boundaries (e.g. the 1-minute TopK windows of
  /// Real Job 1). Default: no window behaviour.
  virtual void OnWindow(int group_index, Emitter* out) {
    (void)group_index;
    (void)out;
  }

  /// \brief Serializes the state of one key group (for migration).
  virtual std::string SerializeGroupState(int group_index) const {
    (void)group_index;
    return {};
  }

  /// \brief Restores a key group's state from a serialized image.
  virtual Status DeserializeGroupState(int group_index,
                                       const std::string& data) {
    (void)group_index;
    (void)data;
    return Status::OK();
  }

  /// \brief Drops a key group's state (after it has been serialized away).
  virtual void ClearGroupState(int group_index) { (void)group_index; }

  /// \brief Writes to \p out a delta record that brings the group's newest
  /// checkpoint record up to its live state. \p changes is the group's
  /// replay log, which holds exactly the events applied since that record,
  /// so the keys its tuples touched are the only keys that can differ.
  /// Returns false when no delta can describe the logged change; the engine
  /// then writes a base. The default has no delta support.
  virtual bool SerializeGroupDelta(int group_index, const ReplayLog& changes,
                                   std::string* out) const {
    (void)group_index;
    (void)changes;
    (void)out;
    return false;
  }

  /// \brief Applies a delta record produced by SerializeGroupDelta on top
  /// of the group's current (base-restored) state.
  virtual Status ApplyGroupDelta(int group_index, const std::string& data) {
    (void)group_index;
    (void)data;
    return Status::Unimplemented("operator has no delta-state support");
  }
};

}  // namespace albic::engine
