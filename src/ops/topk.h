#pragma once

/// \file
/// \brief WindowedTopK: per-window heaviest-ids operator for both TopK
/// roles of Real Job 1, with delta records of the ids the replay log
/// touched.

#include <cstdint>
#include <vector>

#include "common/flat_map64.h"
#include "engine/operator.h"

namespace albic::ops {

/// \brief How a TopK accumulates weight per id.
enum class TopKCountMode {
  kOccurrences,  ///< +1 per tuple (counting raw events, e.g. edits).
  kSumNum,       ///< += tuple.num (merging upstream TopK summaries).
};

/// \brief Windowed TopK: accumulates weight per tracked id within a window;
/// on each window boundary, emits the K heaviest ids downstream and resets.
///
/// Plays both TopK roles of Real Job 1 (per-geohash TopK updated articles —
/// kOccurrences — and the global TopK merging the per-cell summaries —
/// kSumNum, §5.2); the emitted tuples carry the id in `aux`, the weight in
/// `num`, and are keyed by the id so a downstream TopK can merge. Per-group
/// state is the count map — real, sizeable, and exercised by the
/// direct-migration round-trip.
///
/// The window fire selects from candidates when it can: each group keeps a
/// threshold, half the k-th count of its previous window, and lists every
/// id whose count crosses it. Counts start the window at 0 and only grow,
/// so once k ids crossed, the k-th count is at or above the threshold and
/// every top-k id is on the list. Otherwise (fewer crossings, the group's
/// first window, or a window whose counts were loaded, restored or
/// cleared) the fire selects from the whole table. Neither the list nor
/// the threshold is state: images and outputs are the same either way.
class WindowedTopKOperator : public engine::StreamOperator {
 public:
  WindowedTopKOperator(int num_groups, int k,
                       TopKCountMode mode = TopKCountMode::kOccurrences);

  /// Tracks tuple.aux when non-zero (aux == 0 is the "no auxiliary id"
  /// sentinel), else the partition key — so real ids must be >= 1.
  void Process(const engine::Tuple& tuple, int group_index,
               engine::Emitter* out) override;
  void ProcessBatch(const engine::TupleBatch& batch, int group_index,
                    engine::Emitter* out) override;
  void OnWindow(int group_index, engine::Emitter* out) override;

  std::string SerializeGroupState(int group_index) const override;
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override;
  void ClearGroupState(int group_index) override;

  /// False once a window fired in \p changes: only a base describes a fire.
  bool SerializeGroupDelta(int group_index, const engine::ReplayLog& changes,
                           std::string* out) const override;
  Status ApplyGroupDelta(int group_index, const std::string& data) override;

  /// \brief Current (mid-window) counts of a group, for tests.
  const FlatMap64<int64_t>& counts(int group_index) const {
    return window_counts_[group_index];
  }

  /// \brief TopK of the most recently closed window.
  const std::vector<std::pair<uint64_t, int64_t>>& last_window_top(
      int group_index) const {
    return last_top_[group_index];
  }

 private:
  /// The id \p tuple counts toward: its auxiliary id when present (the
  /// article id the GeoHash operator preserves), else its partition key.
  static uint64_t IdOf(const engine::Tuple& tuple) {
    return tuple.aux != 0 ? tuple.aux : tuple.key;
  }

  /// Drops a group's candidate list until its next fire: its counts no
  /// longer started the window at 0.
  void Disarm(int group_index) {
    threshold_[group_index] = 0;
    candidates_[group_index].clear();
  }

  int k_;
  TopKCountMode mode_;
  std::vector<FlatMap64<int64_t>> window_counts_;
  std::vector<std::vector<std::pair<uint64_t, int64_t>>> last_top_;
  /// Per group: the count at which an id becomes a candidate (0: none, the
  /// fire selects from the whole table), and the ids that crossed it.
  std::vector<int64_t> threshold_;
  std::vector<std::vector<uint64_t>> candidates_;
  std::vector<std::pair<uint64_t, int64_t>> entries_;  ///< OnWindow's gather.
};

}  // namespace albic::ops
