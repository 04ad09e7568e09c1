#pragma once

/// \file
/// \brief ReplayLog, the bounded per-key-group tuple log of the
/// checkpoint subsystem: records every delivery (and window firing) since a
/// group's last checkpoint, so state can be reconstructed as
/// checkpoint + logged suffix.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "engine/tuple.h"

namespace albic::engine {

/// \brief Per-key-group delivery log backing indirect migration and failure
/// recovery.
///
/// Every event applied to a group's state is numbered by a per-group
/// sequence counter, in order: the tuples the engine delivers to it, and
/// the window firings that mutate windowed state (without the firings,
/// replayed counts would accumulate across window resets). A checkpoint
/// records the group's next_seq() at snapshot time, and reconstruction
/// replays the events with seq >= that. Truncation (after a checkpoint)
/// drops the covered prefix, which is what keeps the log bounded: the
/// coordinator snapshots any group whose log outgrows its soft bound,
/// re-establishing "checkpoint + short suffix = live state".
///
/// Storage is a sequence of tuple chunks plus a sorted side list of
/// window-firing sequence numbers. The chunk design makes hot-path logging
/// zero-copy: the engine moves each delivered batch's vector straight into
/// the log (AppendChunk) instead of recycling it, so enabling checkpointing
/// adds no second copy of the tuple stream; truncation hands the freed
/// vectors back for reuse.
///
/// Single-writer: the engine's driving thread appends a group's log as it
/// delivers the group's batches, and reads/truncates it at safe points.
class ReplayLog {
 public:
  /// \brief Appends a delivered batch by taking ownership of its vector —
  /// the engine's zero-copy logging path.
  void AppendChunk(std::vector<Tuple>&& tuples) {
    if (tuples.empty()) return;
    retained_tuples_ += tuples.size();
    next_seq_ += tuples.size();
    chunks_.push_back(std::move(tuples));
  }

  void AppendWindowFire() { marker_seqs_.push_back(next_seq_++); }

  /// \brief Sequence number the next appended event will get; equals the
  /// total number of events ever applied to the group.
  uint64_t next_seq() const { return next_seq_; }

  /// \brief Sequence number of the oldest retained event.
  uint64_t base_seq() const { return base_seq_; }

  /// \brief Retained events (tuples + window markers).
  size_t size() const { return static_cast<size_t>(next_seq_ - base_seq_); }
  bool empty() const { return next_seq_ == base_seq_; }
  size_t bytes() const {
    return retained_tuples_ * sizeof(Tuple) +
           marker_seqs_.size() * sizeof(uint64_t);
  }

  size_t tuple_count() const { return retained_tuples_; }
  size_t window_fire_count() const { return marker_seqs_.size(); }
  /// \brief Retained chunks: one per delivered batch since the last
  /// truncation, so the count pins the engine's batch boundaries.
  size_t chunk_count() const { return chunks_.size(); }

  /// \brief Replays the retained events with seq >= \p from_seq in order:
  /// \p on_tuple(const Tuple&) per delivered tuple, \p on_window() per
  /// window firing. Returns the number of events visited.
  template <typename TupleFn, typename WindowFn>
  int64_t ReplayFrom(uint64_t from_seq, TupleFn&& on_tuple,
                     WindowFn&& on_window) const {
    if (from_seq < base_seq_) from_seq = base_seq_;
    auto marker = std::lower_bound(marker_seqs_.begin(), marker_seqs_.end(),
                                   from_seq);
    // Index of the first tuple to replay within the retained tuple stream,
    // then its (chunk, offset) position.
    size_t offset = static_cast<size_t>(from_seq - base_seq_) -
                    static_cast<size_t>(marker - marker_seqs_.begin()) +
                    front_skip_;
    size_t chunk = 0;
    while (chunk < chunks_.size() && offset >= chunks_[chunk].size()) {
      offset -= chunks_[chunk].size();
      ++chunk;
    }
    int64_t replayed = 0;
    for (uint64_t s = from_seq; s < next_seq_; ++s, ++replayed) {
      if (marker != marker_seqs_.end() && *marker == s) {
        on_window();
        ++marker;
      } else {
        on_tuple(chunks_[chunk][offset]);
        if (++offset == chunks_[chunk].size()) {
          ++chunk;
          offset = 0;
        }
      }
    }
    return replayed;
  }

  /// \brief Drops events with sequence number < \p seq (clamped to the
  /// retained range) — called after a checkpoint covering them. Fully
  /// consumed chunk vectors are moved into \p freed (when non-null) so the
  /// engine can recycle their capacity.
  void TruncateBefore(uint64_t seq,
                      std::vector<std::vector<Tuple>>* freed = nullptr) {
    if (seq <= base_seq_) return;
    if (seq > next_seq_) seq = next_seq_;
    const auto marker =
        std::lower_bound(marker_seqs_.begin(), marker_seqs_.end(), seq);
    const size_t markers_dropped =
        static_cast<size_t>(marker - marker_seqs_.begin());
    size_t tuples_dropped =
        static_cast<size_t>(seq - base_seq_) - markers_dropped;
    marker_seqs_.erase(marker_seqs_.begin(), marker);
    retained_tuples_ -= tuples_dropped;
    while (tuples_dropped > 0) {
      std::vector<Tuple>& front = chunks_.front();
      const size_t available = front.size() - front_skip_;
      if (tuples_dropped < available) {
        front_skip_ += tuples_dropped;
        break;
      }
      tuples_dropped -= available;
      if (freed != nullptr) {
        freed->push_back(std::move(front));
      }
      chunks_.pop_front();
      front_skip_ = 0;
    }
    base_seq_ = seq;
  }

  /// \brief Forgets everything including the sequence counter.
  void Reset() {
    chunks_.clear();
    marker_seqs_.clear();
    front_skip_ = 0;
    retained_tuples_ = 0;
    base_seq_ = 0;
    next_seq_ = 0;
  }

 private:
  std::deque<std::vector<Tuple>> chunks_;  ///< Retained tuples, in order.
  size_t front_skip_ = 0;  ///< Truncated prefix of chunks_.front().
  size_t retained_tuples_ = 0;
  std::vector<uint64_t> marker_seqs_;  ///< Seqs of window firings, sorted.
  uint64_t base_seq_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace albic::engine
