#pragma once

/// \file
/// \brief Sparse key-group -> key-group communication rates, the
/// measured input of collocation-aware planning.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/types.h"

namespace albic::engine {

/// \brief Sparse key-group-to-key-group data-rate matrix: out(gi, gj) is the
/// rate (tuples or bytes per second, the unit is the caller's) sent from gi
/// to gj over the latest statistics period (§4.3.2, Table 3).
class CommMatrix {
 public:
  CommMatrix() = default;
  explicit CommMatrix(int num_groups) : rows_(num_groups) {}

  struct Entry {
    KeyGroupId to = 0;
    double rate = 0.0;
  };

  int num_groups() const { return static_cast<int>(rows_.size()); }

  /// \brief Adds to out(from, to) in O(1): an index over the (from, to)
  /// pairs that carry traffic finds the entry, and a new pair appends to
  /// its row, so each row keeps the order of its first Adds.
  void Add(KeyGroupId from, KeyGroupId to, double rate);

  /// \brief Reserves room for \p like's entries: each row its length
  /// there and the index its pair count, so adding the same pairs again
  /// allocates nothing. A statistics period usually repeats the previous
  /// one's traffic.
  void ReserveLike(const CommMatrix& like);

  /// \brief Replaces all entries of `from`'s row.
  void SetRow(KeyGroupId from, std::vector<Entry> entries) {
    rows_[from] = std::move(entries);
    index_stale_ = true;
  }

  /// \brief out(gi, gj); 0 when absent.
  double Rate(KeyGroupId from, KeyGroupId to) const;

  /// \brief Total output rate of gi: out(gi) in Table 3.
  double TotalOut(KeyGroupId from) const;

  /// \brief Sum of all rates in the matrix.
  double TotalTraffic() const;

  const std::vector<Entry>& row(KeyGroupId from) const { return rows_[from]; }

  /// \brief Removes all entries.
  void Clear();

 private:
  /// One index slot: a (from, to) pair and its entry's position in the row.
  struct Slot {
    uint64_t key = kFree;
    uint32_t pos = 0;
  };
  static constexpr uint64_t kFree = ~uint64_t{0};

  static uint64_t KeyOf(KeyGroupId from, KeyGroupId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }
  /// The index size that holds \p pairs at most half full.
  static size_t SlotsFor(size_t pairs) {
    size_t slots = 16;
    while (pairs * 2 > slots) slots *= 2;
    return slots;
  }
  /// The slot holding \p key, or the free slot where it belongs.
  Slot& Probe(uint64_t key);
  /// Rebuilds the index from the rows, with room for \p more pairs.
  void Reindex(size_t more);

  std::vector<std::vector<Entry>> rows_;
  /// Linear-probing table over the pairs, at most half full; grows with
  /// the traffic, not with num_groups().
  std::vector<Slot> index_;
  size_t indexed_ = 0;        ///< Pairs in index_.
  bool index_stale_ = false;  ///< SetRow ran since the last Reindex.
};

}  // namespace albic::engine
