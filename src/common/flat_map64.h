#pragma once

/// \file
/// \brief FlatMap64: open-addressing uint64 hash map, plus the
/// process-wide rehash count the metrics registry publishes and
/// SortRowsByKey, the radix sort behind its ascending key order.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace albic {

/// \brief Sorts \p rows by ascending key_of(row): an LSD radix sort over
/// only the 8-bit digits in which the keys differ (the bits set in the OR
/// of all keys but not in their AND), so keys below 2^16 take at most two
/// counting passes. Each pass is stable; rows gathered from one map have
/// unique keys, so the result is the canonical order.
template <typename Row, typename KeyOf>
void SortRowsByKey(std::vector<Row>* rows, KeyOf key_of) {
  const size_t n = rows->size();
  if (n < 2) return;
  uint64_t any = 0;
  uint64_t all = ~uint64_t{0};
  for (const Row& row : *rows) {
    const uint64_t key = key_of(row);
    any |= key;
    all &= key;
  }
  const uint64_t varying = any ^ all;
  std::vector<Row> spare(n);
  Row* src = rows->data();
  Row* dst = spare.data();
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t next[256] = {};
    for (size_t i = 0; i < n; ++i) ++next[(key_of(src[i]) >> shift) & 0xff];
    size_t offset = 0;
    for (size_t& slot : next) {
      const size_t count = slot;
      slot = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[next[(key_of(src[i]) >> shift) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != rows->data()) rows->swap(spare);
}

/// \brief Process-wide FlatMap64 rehash telemetry. Operators own their
/// maps privately, so the engine cannot reach per-instance counters; this
/// relaxed atomic aggregates across every instance and is bumped only on a
/// doubling — never on plain lookups or inserts — so the hot path stays
/// untouched. The engine republishes it as the flatmap64_full_rehashes
/// gauge at harvest.
struct FlatMap64Telemetry {
  /// One-shot rehashes that moved live entries (stop-the-world stalls).
  static inline std::atomic<int64_t> full_rehashes{0};
};

/// \brief Open-addressing hash map from uint64 keys to a small value type,
/// tuned for the per-key-group state of hot stream operators (counts, sums,
/// last-seen values).
///
/// Linear probing over a power-of-two slot array; no per-entry allocation
/// (std::unordered_map pays a node allocation and a pointer chase per
/// access, which dominates operator time on the engine's hot path). The
/// current operators reset state wholesale (window boundaries, state
/// migration), which clear() handles while keeping capacity; for state
/// that retires individual keys there is erase(), a backward-shift
/// deletion that leaves no tombstones (probe distances stay as if the key
/// never existed).
///
/// Growth doubles the slot array and rehashes every entry in one shot when
/// an insertion would cross the 3/4 load factor — the least total work;
/// full_rehashes() counts the doublings that moved live entries.
///
/// Key 0 is stored in a dedicated side slot, so the full key range is valid.
///
/// ForEachAscending (state images) walks a cached order: the nonzero keys'
/// slot positions, sorted by key. Inserts never move an entry, so it stays
/// exact until a rehash, erase or clear() drops it or a new key outgrows
/// it; the next ordered visit re-sorts it, and LoadRows records it from
/// ascending rows. That visit writes the cache even of a const map, so
/// concurrent use of one map needs the caller's synchronization, as any
/// access already does.
template <typename V>
class FlatMap64 {
 public:
  using value_type = std::pair<uint64_t, V>;

  FlatMap64() = default;

  /// \brief Doublings that moved live entries.
  size_t full_rehashes() const { return full_rehashes_; }

  /// \brief Pre-sizes the table for \p n entries, ending exactly at the
  /// capacity insertion-driven growth would reach — so a reserved-then-
  /// filled map pays one allocation instead of a rehash per power of two,
  /// and the next doubling fires at exactly the same insert count as for a
  /// grown map. (The slot layout itself may differ from a grown map's: an
  /// intermediate rehash can reorder a probe cluster that wraps the array
  /// end, which is why serializations that must be byte-stable sort.)
  void Reserve(size_t n) {
    if (n == 0) return;
    size_t cap = 16;
    while (n * 4 > cap * 3) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  /// \brief Returns the value slot for \p key, inserting a
  /// value-initialized entry if absent. References are invalidated by the
  /// next insertion.
  V& operator[](uint64_t key) {
    if (key == 0) {
      if (!zero_used_) {
        zero_used_ = true;
        zero_val_ = V();
        ++size_;
      }
      return zero_val_;
    }
    if (slots_.empty()) Grow();
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) return slots_[i].second;
      if (slots_[i].first == 0) {
        // Only an actual insertion may rehash, so references stay valid
        // across lookups of existing keys.
        if ((size_ + 1) * 4 > slots_.size() * 3) {
          Grow();
          return InsertNew(key);
        }
        slots_[i].first = key;
        slots_[i].second = V();
        ++size_;
        return slots_[i].second;
      }
      i = (i + 1) & mask_;
    }
  }

  /// \brief Pointer to the value of \p key, or nullptr when absent.
  const V* find(uint64_t key) const {
    if (key == 0) return zero_used_ ? &zero_val_ : nullptr;
    if (slots_.empty()) return nullptr;
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) return &slots_[i].second;
      if (slots_[i].first == 0) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  /// \brief Value of \p key; a default-constructed V when absent.
  V at(uint64_t key) const {
    const V* p = find(key);
    return p != nullptr ? *p : V();
  }

  size_t count(uint64_t key) const { return find(key) != nullptr ? 1 : 0; }

  /// \brief Removes \p key; returns the number of entries removed (0 or 1).
  /// Backward-shift deletion: entries probing past the hole are moved back
  /// into it, so no tombstones accumulate and lookups never slow down.
  /// Invalidates references and iterators.
  size_t erase(uint64_t key) {
    if (key == 0) {
      if (!zero_used_) return 0;
      zero_used_ = false;
      zero_val_ = V();
      --size_;
      return 1;
    }
    if (slots_.empty()) return 0;
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) break;
      if (slots_[i].first == 0) return 0;
      i = (i + 1) & mask_;
    }
    order_.clear();  // the shift moves entries
    ShiftErase(i);
    --size_;
    return 1;
  }

  /// \brief Hints the CPU to load \p key's home slot. Batch processors call
  /// this a few tuples ahead so the probe below overlaps the memory
  /// latency — the lookahead trick tuple-at-a-time execution cannot play.
  void prefetch(uint64_t key) const {
    if (!slots_.empty()) __builtin_prefetch(&slots_[MixU64(key) & mask_]);
  }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// \brief Visits every entry as fn(key, const V&), zero-key entry first.
  /// Unlike the by-value iterator this never copies a value — the right
  /// traversal when V is a container. The map must not be mutated from
  /// within \p fn.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (zero_used_) fn(uint64_t{0}, zero_val_);
    for (const value_type& s : slots_) {
      if (s.first != 0) fn(s.first, s.second);
    }
  }

  /// \brief Visits every entry as fn(key, const V&) in ascending key
  /// order, key 0 first: one indexed pass over the cached order, rebuilt
  /// first if stale. The map must not be mutated from within \p fn.
  template <typename Fn>
  void ForEachAscending(Fn&& fn) const {
    if (order_.size() != size_ - size_t{zero_used_}) RebuildOrder();
    if (zero_used_) fn(uint64_t{0}, zero_val_);
    for (const uint32_t i : order_) fn(slots_[i].first, slots_[i].second);
  }

  /// \brief Replaces the contents with the \p n (key, value) rows row_at(r)
  /// returns. Strictly ascending keys also record the key order; other rows
  /// load as successive assignments would (a repeated key's last value
  /// wins) and leave the order stale.
  template <typename RowAt>
  void LoadRows(size_t n, RowAt row_at) {
    clear();
    Reserve(n);
    bool ascending = true;
    uint64_t prev = 0;
    for (size_t r = 0; r < n; ++r) {
      const auto [key, value] = row_at(r);
      ascending = ascending && (r == 0 || key > prev);
      prev = key;
      if (key == 0) {
        (*this)[0] = value;
        continue;
      }
      size_t i = MixU64(key) & mask_;
      while (slots_[i].first != 0 && slots_[i].first != key) {
        i = (i + 1) & mask_;
      }
      size_ += slots_[i].first == 0;
      slots_[i] = value_type{key, value};
      order_.push_back(static_cast<uint32_t>(i));
    }
    if (!ascending) order_.clear();
  }

  /// \brief Appends a copy of every entry to \p out, in the iterator's
  /// order (zero key first, then the slot array). The gather is
  /// branch-free: every slot is written to the next free position, which
  /// advances only past occupied slots, so the buffer is sized size() + 1
  /// to absorb the trailing empty writes. For trivially copyable values,
  /// where copying a slot beats a branch on it.
  void AppendEntries(std::vector<value_type>* out) const {
    static_assert(std::is_trivially_copyable_v<V>,
                  "AppendEntries copies every slot; use ForEach");
    const size_t base = out->size();
    out->resize(base + size_ + 1);
    value_type* dst = out->data() + base;
    size_t n = 0;
    if (zero_used_) dst[n++] = value_type{0, zero_val_};
    for (const value_type& s : slots_) {
      dst[n] = s;
      n += s.first != 0;
    }
    out->resize(base + n);
  }

  /// \brief Removes all entries, keeping the slot array's capacity.
  void clear() {
    for (value_type& s : slots_) {
      s.first = 0;
      s.second = V();
    }
    zero_used_ = false;
    zero_val_ = V();
    size_ = 0;
    order_.clear();
  }

  /// Forward iterator yielding (key, value) pairs; the zero-key entry, when
  /// present, comes first, then the slot array. Dereferences by value.
  class const_iterator {
   public:
    const_iterator(const FlatMap64* map, size_t pos) : map_(map), pos_(pos) {}

    value_type operator*() const {
      if (pos_ == kZeroPos) return {0, map_->zero_val_};
      return map_->slots_[pos_];
    }
    const_iterator& operator++() {
      pos_ = map_->NextOccupied(pos_ == kZeroPos ? 0 : pos_ + 1);
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }
    bool operator!=(const const_iterator& o) const { return pos_ != o.pos_; }

   private:
    const FlatMap64* map_;
    size_t pos_;
  };

  const_iterator begin() const {
    if (zero_used_) return const_iterator(this, kZeroPos);
    return const_iterator(this, NextOccupied(0));
  }
  const_iterator end() const { return const_iterator(this, slots_.size()); }

 private:
  static constexpr size_t kZeroPos = static_cast<size_t>(-1);

  size_t NextOccupied(size_t from) const {
    while (from < slots_.size() && slots_[from].first == 0) ++from;
    return from;
  }

  /// Backward-shift removal of the entry at \p i (which must hold a key);
  /// size bookkeeping is the caller's.
  void ShiftErase(size_t i) {
    // Shift the probe chain after i back over the hole: an entry at j may
    // fill the hole iff its home slot lies at or before the hole in the
    // (cyclic) probe order, i.e. moving it back never skips its home.
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask_;
      if (slots_[j].first == 0) break;
      const size_t home = MixU64(slots_[j].first) & mask_;
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].first = 0;
    slots_[hole].second = V();
  }

  /// Inserts a key known to be absent (post-rehash re-probe); the empty
  /// slot's value is already V() (cleared on erase/assign).
  V& InsertNew(uint64_t key) {
    size_t i = MixU64(key) & mask_;
    while (slots_[i].first != 0) i = (i + 1) & mask_;
    slots_[i].first = key;
    ++size_;
    return slots_[i].second;
  }

  /// Bulk rehash of slots_ into a fresh array of \p cap slots.
  void Rehash(size_t cap) {
    if (cap > (size_t{1} << 32)) __builtin_trap();  // order_ holds uint32s
    order_.clear();
    std::vector<value_type> old;
    old.swap(slots_);
    slots_.assign(cap, value_type{0, V()});
    mask_ = cap - 1;
    for (value_type& s : old) {
      if (s.first == 0) continue;
      size_t i = MixU64(s.first) & mask_;
      while (slots_[i].first != 0) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  /// Sorts the occupied slots' positions by key into order_ (a branch-free
  /// gather, as in AppendEntries, then the radix sort).
  void RebuildOrder() const {
    order_.resize(size_ + 1);
    size_t n = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      order_[n] = static_cast<uint32_t>(i);
      n += slots_[i].first != 0;
    }
    order_.resize(n);
    SortRowsByKey(&order_, [this](uint32_t i) { return slots_[i].first; });
  }

  void Grow() {
    if (size_ > (zero_used_ ? size_t{1} : size_t{0})) {
      ++full_rehashes_;
      FlatMap64Telemetry::full_rehashes.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }

  std::vector<value_type> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool zero_used_ = false;
  V zero_val_{};
  size_t full_rehashes_ = 0;
  /// Nonzero keys' slots, ascending by key; exact iff as long as their count.
  mutable std::vector<uint32_t> order_;
};

}  // namespace albic
