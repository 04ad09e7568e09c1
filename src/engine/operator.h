#pragma once

/// \file
/// \brief StreamOperator, the user-code interface: per-key-group
/// processing (tuple and batch), windows, state (de)serialization for
/// direct state migration, and the dirty-key tracking behind
/// delta-encoded checkpoints.

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map64.h"
#include "common/status.h"
#include "engine/batch.h"
#include "engine/tuple.h"

namespace albic::engine {

/// \brief Records which keys of one (operator, key-group) state changed
/// since the last checkpoint of that group — the dirty-*key* refinement of
/// the engine's dirty-group tracking, which is what lets a checkpoint
/// round serialize a delta proportional to the change instead of a
/// snapshot proportional to the state.
///
/// Operators call MarkDirty on every upsert, MarkErased on every removal
/// and MarkReset on wholesale state replacement (window fires, clears,
/// restores). A reset makes every earlier mark irrelevant, so the set is
/// cleared; the engine writes a full base snapshot for a reset group. The
/// engine clears the tracker after every checkpoint that covers it.
class StateChangeTracker {
 public:
  /// Per-key mark: the key was upserted (present in the live state).
  void MarkDirty(uint64_t key) { keys_[key] = 1; }
  /// Per-key mark: the key was removed from the live state.
  void MarkErased(uint64_t key) { keys_[key] = 0; }
  /// The whole group state was replaced/cleared since the last checkpoint;
  /// a delta can no longer describe the change, so the next checkpoint of
  /// the group must be a base snapshot.
  void MarkReset() {
    reset_ = true;
    keys_.clear();
  }

  bool reset() const { return reset_; }
  bool empty() const { return !reset_ && keys_.empty(); }
  size_t dirty_keys() const { return keys_.size(); }

  /// Visits every marked key as fn(key, dirty) — dirty=false means erased.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    keys_.ForEach([&fn](uint64_t key, const uint8_t& flag) {
      fn(key, flag != 0);
    });
  }

  /// Forgets all marks (the last checkpoint covered them).
  void Clear() {
    reset_ = false;
    keys_.clear();
  }

 private:
  FlatMap64<uint8_t> keys_;  ///< key -> 1 (dirty upsert) / 0 (erased)
  bool reset_ = false;
};

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

  /// \brief Whether the operator implements the delta-state methods below.
  /// Operators without delta support simply keep getting full snapshots.
  virtual bool SupportsDeltaState() const { return false; }

  /// \brief Serializes only the keys the group's tracker marked since the
  /// last checkpoint (a delta record to chain onto the last base snapshot).
  /// Only called when SupportsDeltaState() and a tracker is attached.
  virtual std::string SerializeGroupDelta(int group_index) const {
    (void)group_index;
    return {};
  }

  /// \brief Applies a delta record produced by SerializeGroupDelta on top
  /// of the group's current (base-restored) state.
  virtual Status ApplyGroupDelta(int group_index, const std::string& data) {
    (void)group_index;
    (void)data;
    return Status::Unimplemented("operator has no delta-state support");
  }

  /// \brief Attaches the engine-owned dirty-key tracker for one group
  /// (nullptr detaches). With no tracker attached — the default, and the
  /// case whenever delta checkpoints are disabled — the mutation paths pay
  /// a single predictable branch and nothing else.
  void AttachChangeTracker(int group_index, StateChangeTracker* tracker) {
    if (group_index < 0) return;
    if (static_cast<size_t>(group_index) >= trackers_.size()) {
      trackers_.resize(static_cast<size_t>(group_index) + 1, nullptr);
    }
    trackers_[static_cast<size_t>(group_index)] = tracker;
  }

 protected:
  /// \brief The group's attached tracker, or nullptr.
  StateChangeTracker* tracker(int group_index) const {
    return group_index >= 0 &&
                   static_cast<size_t>(group_index) < trackers_.size()
               ? trackers_[static_cast<size_t>(group_index)]
               : nullptr;
  }

 private:
  std::vector<StateChangeTracker*> trackers_;
};

}  // namespace albic::engine
