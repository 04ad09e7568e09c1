#pragma once

/// \file
/// \brief Checkpoint subsystem: versioned per-key-group snapshot stores
/// and the CheckpointCoordinator that takes periodic incremental
/// checkpoints at engine safe points. Together with the per-group replay
/// logs this gives the paper's integrative mechanism: indirect migration
/// and failure recovery are both "restore latest checkpoint + replay the
/// logged suffix".
///
/// Snapshots come in two kinds: a *base* carries a group's full serialized
/// state, a *delta* carries only the keys the group's replay log touched
/// since the previous record and chains onto it. A chain is the newest
/// base plus the deltas after it; restoration deserializes the base and
/// applies the deltas in order, and retention treats a chain as one unit
/// (evicting part of a chain would orphan the rest). A chain is compacted
/// by writing a fresh base once it holds max_delta_chain deltas.
/// CheckpointStore holds the one record index; the in-memory and
/// file-backed stores hold only the payloads and the manifest.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/types.h"

namespace albic::engine {

class LocalEngine;

/// \brief Metadata of one stored group snapshot record (base or delta).
struct CheckpointInfo {
  uint64_t version = 0;  ///< Monotone per group, assigned by the store.
  uint64_t seq = 0;      ///< Replay-log sequence the snapshot includes:
                         ///< state = snapshot + entries with seq >= this.
  uint64_t bytes = 0;    ///< Serialized state size.
  bool is_delta = false;  ///< Delta record chained onto the previous one.
};

/// \brief Ingestion positions recorded when a checkpoint interval closes
/// (and with each full round): cumulative tuples ingested per source shard
/// at that safe point. Group records are staggered over the interval, so
/// the offsets are no cut of them; nothing restarts from a manifest yet.
struct CheckpointManifest {
  uint64_t epoch = 0;  ///< Manifest counter (closed intervals, full rounds).
  std::vector<int64_t> shard_offsets;
};

/// \brief Storage backend for group snapshots.
///
/// Keyed by global KeyGroupId (which encodes the operator), versioned per
/// group; a store retains the most recent `retain_versions` *chains* (a
/// base and the deltas chained onto it count as one retained unit) of each
/// group. The record index lives here, once: version numbering, the
/// delta-needs-a-base rule, chain-unit retention, the lookups and the
/// counters. A backend only decides where a record's payload and the
/// manifest live. All calls are made from the engine's driving thread.
class CheckpointStore {
 public:
  virtual ~CheckpointStore() = default;
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// \brief Stores a new base snapshot of \p group covering log sequence
  /// \p seq; returns the assigned version.
  Result<CheckpointInfo> Put(KeyGroupId group, uint64_t seq,
                             std::string state) {
    return PutRecord(group, seq, std::move(state), /*is_delta=*/false);
  }

  /// \brief Stores a delta record chained onto \p group's newest snapshot
  /// record (base or delta). Errors when the group has no base to chain on.
  Result<CheckpointInfo> PutDelta(KeyGroupId group, uint64_t seq,
                                  std::string delta) {
    return PutRecord(group, seq, std::move(delta), /*is_delta=*/true);
  }

  /// \brief Fetches the newest snapshot record of \p group (base or
  /// delta — the raw payload, not materialized state); false when none.
  /// Either output may be null when only the other is wanted. Restoration
  /// wants LatestChain; this is the cheap metadata peek (seq, bytes).
  bool Latest(KeyGroupId group, CheckpointInfo* info,
              std::string* state) const;

  /// \brief Fetches the newest chain of \p group: the base payload plus
  /// the delta payloads after it in application order. \p info describes
  /// the newest record (its seq is where log replay resumes). Outputs may
  /// be null. False when the group has no base, or a payload cannot be
  /// read.
  bool LatestChain(KeyGroupId group, CheckpointInfo* info, std::string* base,
                   std::vector<std::string>* deltas) const;

  /// \brief Sum of the delta bytes in \p group's newest chain — the
  /// restore work a consumer pays on top of deserializing the base (the
  /// cost model prices indirect migration with it).
  uint64_t ChainDeltaBytes(KeyGroupId group) const;

  /// \brief Fetches a specific retained version; false when evicted/absent
  /// or its payload cannot be read.
  bool Get(KeyGroupId group, uint64_t version, CheckpointInfo* info,
           std::string* state) const;

  /// \brief Records the ingestion positions of a closed interval.
  virtual Status PutManifest(const CheckpointManifest& manifest) = 0;

  /// \brief Fetches the most recent manifest; false when none written.
  virtual bool LatestManifest(CheckpointManifest* out) const = 0;

  /// \brief Snapshot records written over the store's lifetime (bases and
  /// deltas).
  int64_t puts() const { return puts_; }

  /// \brief Of those, delta records (0 whenever delta checkpoints are off).
  int64_t delta_puts() const { return delta_puts_; }

  /// \brief Serialized bytes currently retained.
  int64_t stored_bytes() const { return stored_bytes_; }

 protected:
  explicit CheckpointStore(int retain_versions);

  /// \brief Adds a record found in the backend's storage to the index (the
  /// restart path); call in ascending version order per group. A delta
  /// joins only when the record one version before it did, the one it was
  /// written against. Otherwise it belongs to no chain and its payload is
  /// dropped: the group's next record reuses a version at or below it, and
  /// a later re-index must not chain the stale delta onto that record.
  void Reindex(KeyGroupId group, const CheckpointInfo& info);

 private:
  /// Payload I/O of one record, the backend's part besides the manifest.
  /// Takes the payload by value, so the memory store keeps it uncopied.
  virtual Status WritePayload(KeyGroupId group, const CheckpointInfo& info,
                              std::string payload) = 0;
  /// False when the payload is missing or does not match \p info.
  virtual bool ReadPayload(KeyGroupId group, const CheckpointInfo& info,
                           std::string* payload) const = 0;
  virtual void DropPayload(KeyGroupId group, const CheckpointInfo& info) = 0;

  Result<CheckpointInfo> PutRecord(KeyGroupId group, uint64_t seq,
                                   std::string payload, bool is_delta);

  int retain_versions_;
  /// Retained records per group, oldest first. The first record of a group
  /// is always a base; deltas chain onto the record before them.
  std::unordered_map<KeyGroupId, std::vector<CheckpointInfo>> index_;
  int64_t puts_ = 0;
  int64_t delta_puts_ = 0;
  int64_t stored_bytes_ = 0;
};

/// \brief In-memory CheckpointStore (tests, benches, single-process jobs).
class MemoryCheckpointStore final : public CheckpointStore {
 public:
  explicit MemoryCheckpointStore(int retain_versions = 2)
      : CheckpointStore(retain_versions) {}

  Status PutManifest(const CheckpointManifest& manifest) override;
  bool LatestManifest(CheckpointManifest* out) const override;

 private:
  Status WritePayload(KeyGroupId group, const CheckpointInfo& info,
                      std::string payload) override;
  bool ReadPayload(KeyGroupId group, const CheckpointInfo& info,
                   std::string* payload) const override;
  void DropPayload(KeyGroupId group, const CheckpointInfo& info) override;

  std::map<std::pair<KeyGroupId, uint64_t>, std::string> payloads_;
  CheckpointManifest manifest_;
  bool has_manifest_ = false;
};

/// \brief File-backed CheckpointStore: one file per (group, version) under
/// a directory, plus a MANIFEST file. Open() re-indexes an existing
/// directory, so a restarted process recovers from what is on disk. It
/// takes exact record names only, and a delta whose predecessor is
/// unreadable leaves the index with the rest of its chain: the group falls
/// back to its previous intact chain.
class FileCheckpointStore final : public CheckpointStore {
 public:
  /// \brief Opens (creating if needed) \p dir and indexes its snapshots.
  static Result<std::unique_ptr<FileCheckpointStore>> Open(
      const std::string& dir, int retain_versions = 2);

  Status PutManifest(const CheckpointManifest& manifest) override;
  bool LatestManifest(CheckpointManifest* out) const override;

  const std::string& dir() const { return dir_; }

 private:
  FileCheckpointStore(std::string dir, int retain_versions)
      : CheckpointStore(retain_versions), dir_(std::move(dir)) {}

  Status WritePayload(KeyGroupId group, const CheckpointInfo& info,
                      std::string payload) override;
  bool ReadPayload(KeyGroupId group, const CheckpointInfo& info,
                   std::string* payload) const override;
  void DropPayload(KeyGroupId group, const CheckpointInfo& info) override;

  std::string PathFor(KeyGroupId group, uint64_t version) const;

  std::string dir_;
};

/// \brief Knobs of the checkpoint coordinator.
struct CheckpointCoordinatorOptions {
  /// Event-time in which each dirty group is checkpointed once, at its own
  /// phase point: group g of G at anchor + interval*(g+1)/G, the anchor
  /// being the first safe point observed (like the engine's windows).
  int64_t interval_us = 60LL * 1000 * 1000;
  /// Soft per-group replay-log bound: a group whose log outgrows this
  /// forces a full round at the next safe point, so log memory stays bounded
  /// and every group keeps "checkpoint + short suffix = live state".
  /// The default bounds a group's log at ~2 MiB (65536 * 32-byte tuples);
  /// forced rounds interrupt the hot path, so the bound is sized to fire
  /// only when a group is far busier than its checkpoint cadence assumes.
  size_t max_log_entries = 65536;
  /// Delta-encoded checkpoints: the maximum number of delta records
  /// chained onto a base before the next round compacts the group into a
  /// fresh base. 0 (the default) disables deltas entirely — every round
  /// serializes full snapshots, bit-identical to the pre-delta behaviour.
  /// With deltas on, a dirty group is serialized as only the keys its
  /// replay log touched since its newest record
  /// (StreamOperator::SerializeGroupDelta), cutting steady-state checkpoint
  /// bytes to O(change); a group whose operator cannot describe the logged
  /// change as a delta (a TopK window fire, an operator without delta
  /// support) still writes a base.
  int max_delta_chain = 0;
};

/// \brief Counters of the coordinator's activity.
struct CheckpointCoordinatorStats {
  int64_t rounds = 0;           ///< Manifests (closed intervals, full rounds).
  int64_t forced_rounds = 0;    ///< Full rounds triggered by log overflow.
  int64_t snapshots = 0;        ///< Group snapshot records written.
  int64_t snapshot_bytes = 0;   ///< Serialized bytes written (all records).
  int64_t delta_snapshots = 0;  ///< Of the records, delta-encoded ones.
  int64_t delta_snapshot_bytes = 0;  ///< Bytes of the delta records.
  double round_wall_us = 0.0;   ///< Wall-clock time spent in slices.
};

/// \brief Drives periodic asynchronous incremental checkpoints.
///
/// The engine calls OnSafePoint at quiescent instants: between drain
/// waves, where every operator is idle and each group's log matches its
/// state. Checkpoints are staggered: each safe point takes a *slice*, the
/// dirty groups whose phase point has passed (a group clean at its phase
/// point stays due until it is dirtied). Only changed groups are serialized
/// (incremental), and processing never drains globally: per-group
/// consistency (record seq + logged suffix) is all that indirect migration
/// and recovery need, so groups may be imaged at different instants. The
/// safe point closing an interval writes one manifest. A full round
/// (CheckpointNow, or a log outgrowing its soft bound) is the slice in
/// which every group is due, plus a manifest.
///
/// A store error disables further checkpoints and is kept in last_error(),
/// which the engine's ingest calls then return; logging continues, so
/// recovery from the last good chain still works.
class CheckpointCoordinator {
 public:
  /// \brief \p store is not owned and must outlive the coordinator.
  explicit CheckpointCoordinator(CheckpointStore* store,
                                 CheckpointCoordinatorOptions options = {});

  /// \brief Engine hook: takes the slice of groups that are due, and the
  /// manifest when an interval closed.
  void OnSafePoint(LocalEngine* engine);

  /// \brief Takes a full round now regardless of due-ness; returns the
  /// number of groups snapshotted.
  Result<int> CheckpointNow(LocalEngine* engine);

  /// \brief The phase tick at which group \p g of \p groups is next due.
  /// Tick t's point is anchor + interval*t/groups, and g owns the ticks
  /// congruent to g + 1: its first one past the current tick.
  int64_t NextDue(KeyGroupId g, int groups) const {
    return g + 1 + groups * ((tick_ + groups - g - 1) / groups);
  }

  CheckpointStore* store() const { return store_; }
  const CheckpointCoordinatorOptions& options() const { return options_; }
  const CheckpointCoordinatorStats& stats() const { return stats_; }
  const Status& last_error() const { return last_error_; }

 private:
  /// Moves tick_ to the event time; true when an interval closed since.
  bool AdvanceTick(LocalEngine* engine);
  /// Images the groups due by tick \p due_by; a manifest if \p close_interval.
  Result<int> Slice(LocalEngine* engine, int64_t due_by, bool close_interval);

  CheckpointStore* store_;
  CheckpointCoordinatorOptions options_;
  CheckpointCoordinatorStats stats_;
  Status last_error_ = Status::OK();
  int64_t anchor_us_ = 0;
  int64_t tick_ = 0;  ///< Last phase tick whose point has passed.
  int64_t intervals_closed_ = 0;
  bool time_initialized_ = false;
};

}  // namespace albic::engine
