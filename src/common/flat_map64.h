#pragma once

/// \file
/// \brief FlatMap64: open-addressing uint64 hash map with optional
/// incremental (two-table) rehashing, plus process-wide rehash/drain
/// telemetry the metrics registry publishes.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace albic {

/// \brief Process-wide FlatMap64 rehash/drain telemetry. Operators own
/// their maps privately, so the engine cannot reach per-instance counters;
/// these relaxed atomics aggregate across every instance and are bumped
/// only on growth events (a doubling, a drain payment) — never on plain
/// lookups or inserts — so the hot path stays untouched. Snapshot them
/// into a MetricsRegistry via PublishFlatMap64Stats (metrics_registry.h
/// consumers) or read directly in tests.
struct FlatMap64Telemetry {
  /// One-shot rehashes that moved live entries (stop-the-world stalls).
  static inline std::atomic<int64_t> full_rehashes{0};
  /// Bounded drain payments made by mutating operations mid-rehash.
  static inline std::atomic<int64_t> drain_steps{0};
  /// Old-table entries migrated by those payments.
  static inline std::atomic<int64_t> drained_entries{0};
  /// Largest single payment any operation made (≤ kDrainBudget while
  /// incremental mode holds its bound).
  static inline std::atomic<int64_t> max_drain_step{0};

  static void NoteMaxDrainStep(int64_t moved) {
    int64_t cur = max_drain_step.load(std::memory_order_relaxed);
    while (moved > cur && !max_drain_step.compare_exchange_weak(
                              cur, moved, std::memory_order_relaxed)) {
    }
  }
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
/// Growth comes in two flavours. The default rehashes the whole table in
/// one shot when the 3/4 load factor is crossed — cheapest in total work,
/// but a multi-GB table pays it inside whichever wave triggers it. With
/// SetIncrementalRehash(true) a doubling instead opens a *drain*: the old
/// slot array is kept aside and every subsequent mutating operation moves
/// at most kDrainBudget old slots into the new array (lookups probe both
/// tables until the drain ends), so no single operation absorbs a
/// full-table rehash and insert latency stays O(1) amortized-bounded.
/// Disabled (the default) the layout, iteration order and behaviour are
/// bit-identical to the one-shot scheme. full_rehashes() and
/// max_drain_step() expose the stall accounting benches assert on.
///
/// Key 0 is stored in a dedicated side slot, so the full key range is valid.
template <typename V>
class FlatMap64 {
 public:
  using value_type = std::pair<uint64_t, V>;

  /// Old slots drained per mutating operation while an incremental rehash
  /// is in flight. 8 slots per insert against the >= cap/4 inserts between
  /// doublings retires a drain long before the next one can start.
  static constexpr size_t kDrainBudget = 8;

  FlatMap64() = default;

  /// \brief Switches growth to incremental (two-table) rehashing. Turning
  /// it off mid-drain finishes the drain first, restoring the single-table
  /// invariant.
  void SetIncrementalRehash(bool on) {
    if (!on) FinishDrain();
    incremental_ = on;
  }
  bool incremental_rehash() const { return incremental_; }

  /// \brief One-shot rehashes that moved live entries (the stop-the-world
  /// stalls incremental mode exists to avoid; stays 0 while it holds).
  size_t full_rehashes() const { return full_rehashes_; }

  /// \brief Largest number of old entries any single operation migrated
  /// during incremental drains (bounded by kDrainBudget).
  size_t max_drain_step() const { return max_drain_step_; }

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
    FinishDrain();
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
    if (!old_slots_.empty()) return UpsertDraining(key);
    if (slots_.empty()) Grow();
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) return slots_[i].second;
      if (slots_[i].first == 0) {
        // Only an actual insertion may rehash, so references stay valid
        // across lookups of existing keys.
        if ((size_ + 1) * 4 > slots_.size() * 3) {
          if (incremental_) {
            StartDrain();
            DrainStep();
            return InsertNew(key);
          }
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
    if (!slots_.empty()) {
      size_t i = MixU64(key) & mask_;
      for (;;) {
        if (slots_[i].first == key) return &slots_[i].second;
        if (slots_[i].first == 0) break;
        i = (i + 1) & mask_;
      }
    }
    if (!old_slots_.empty()) {
      size_t i = MixU64(key) & old_mask_;
      for (;;) {
        if (old_slots_[i].first == key) return &old_slots_[i].second;
        if (old_slots_[i].first == 0) break;
        i = (i + 1) & old_mask_;
      }
    }
    return nullptr;
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
    if (!old_slots_.empty()) {
      DrainStep();
      if (!old_slots_.empty()) return EraseDraining(key);
    }
    if (slots_.empty()) return 0;
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) break;
      if (slots_[i].first == 0) return 0;
      i = (i + 1) & mask_;
    }
    ShiftErase(slots_, mask_, i);
    --size_;
    return 1;
  }

  /// \brief Hints the CPU to load \p key's home slot. Batch processors call
  /// this a few tuples ahead so the probe below overlaps the memory
  /// latency — the lookahead trick tuple-at-a-time execution cannot play.
  void prefetch(uint64_t key) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[MixU64(key) & mask_]);
    }
    if (!old_slots_.empty()) {
      __builtin_prefetch(&old_slots_[MixU64(key) & old_mask_]);
    }
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
    for (const value_type& s : old_slots_) {
      if (s.first != 0) fn(s.first, s.second);
    }
  }

  /// \brief Appends a copy of every entry to \p out, in the iterator's
  /// order (zero key first, then the slot array, then — mid-drain — the
  /// old array). The gather is branch-free: every slot is written to the
  /// next free position, which advances only past occupied slots, so the
  /// buffer is sized size() + 1 to absorb the trailing empty writes. For
  /// trivially copyable values, where copying a slot beats a branch on it.
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
    for (const value_type& s : old_slots_) {
      dst[n] = s;
      n += s.first != 0;
    }
    out->resize(base + n);
  }

  /// \brief Removes all entries, keeping the slot array's capacity. A drain
  /// in flight is abandoned (nothing left to migrate).
  void clear() {
    for (value_type& s : slots_) {
      s.first = 0;
      s.second = V();
    }
    if (!old_slots_.empty()) {
      std::vector<value_type>().swap(old_slots_);
      old_mask_ = 0;
      drain_pos_ = 0;
    }
    zero_used_ = false;
    zero_val_ = V();
    size_ = 0;
  }

  /// Forward iterator yielding (key, value) pairs; the zero-key entry, when
  /// present, comes first (then the current table, then — mid-drain — the
  /// old one). Dereferences by value.
  class const_iterator {
   public:
    const_iterator(const FlatMap64* map, size_t pos) : map_(map), pos_(pos) {}

    value_type operator*() const {
      if (pos_ == kZeroPos) return {0, map_->zero_val_};
      return map_->SlotAt(pos_);
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
  const_iterator end() const {
    return const_iterator(this, slots_.size() + old_slots_.size());
  }

 private:
  static constexpr size_t kZeroPos = static_cast<size_t>(-1);

  const value_type& SlotAt(size_t pos) const {
    return pos < slots_.size() ? slots_[pos] : old_slots_[pos - slots_.size()];
  }

  size_t NextOccupied(size_t from) const {
    const size_t total = slots_.size() + old_slots_.size();
    while (from < total && SlotAt(from).first == 0) ++from;
    return from;
  }

  /// Backward-shift removal of the entry at \p i (which must hold a key)
  /// from one slot array; value/size bookkeeping is the caller's.
  static void ShiftErase(std::vector<value_type>& slots, size_t mask,
                         size_t i) {
    // Shift the probe chain after i back over the hole: an entry at j may
    // fill the hole iff its home slot lies at or before the hole in the
    // (cyclic) probe order, i.e. moving it back never skips its home.
    size_t hole = i;
    size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (slots[j].first == 0) break;
      const size_t home = MixU64(slots[j].first) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots[hole] = std::move(slots[j]);
        hole = j;
      }
    }
    slots[hole].first = 0;
    slots[hole].second = V();
  }

  /// Claims an empty slot for a key known to be absent from slots_; the
  /// slot's value is already V() (cleared on erase/assign). No size change.
  V& PlaceNew(uint64_t key) {
    size_t i = MixU64(key) & mask_;
    while (slots_[i].first != 0) i = (i + 1) & mask_;
    slots_[i].first = key;
    return slots_[i].second;
  }

  /// Inserts a key known to be absent (post-rehash re-probe).
  V& InsertNew(uint64_t key) {
    V& v = PlaceNew(key);
    ++size_;
    return v;
  }

  /// Bulk rehash of slots_ into a fresh array of \p cap slots.
  void Rehash(size_t cap) {
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

  void Grow() {
    if (size_ > (zero_used_ ? size_t{1} : size_t{0})) {
      ++full_rehashes_;
      FlatMap64Telemetry::full_rehashes.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    Rehash(slots_.empty() ? 16 : slots_.size() * 2);
  }

  /// Opens an incremental doubling: the current array becomes the drain
  /// source and a doubled empty array takes over for inserts.
  void StartDrain() {
    FinishDrain();  // pathological back-to-back doubling: stay correct
    old_slots_.swap(slots_);
    old_mask_ = mask_;
    drain_pos_ = 0;
    const size_t cap = old_slots_.empty() ? 16 : old_slots_.size() * 2;
    slots_.assign(cap, value_type{0, V()});
    mask_ = cap - 1;
  }

  /// Moves the entry at drain_pos_ (if any) into the new table. The
  /// backward shift may pull a successor entry into drain_pos_, which the
  /// next step re-examines — the cursor only advances over empty slots, so
  /// every old entry is migrated exactly once and old-table probe chains
  /// stay valid throughout (all slots before the cursor are empty, and no
  /// live key's chain passes through them).
  size_t DrainOneSlot() {
    value_type& s = old_slots_[drain_pos_];
    if (s.first == 0) {
      ++drain_pos_;
      return 0;
    }
    const uint64_t key = s.first;
    V val = std::move(s.second);
    ShiftErase(old_slots_, old_mask_, drain_pos_);
    PlaceNew(key) = std::move(val);
    return 1;
  }

  /// One bounded payment against the drain: up to kDrainBudget old slots.
  void DrainStep() {
    if (old_slots_.empty()) return;
    size_t moved = 0;
    for (size_t budget = kDrainBudget;
         budget > 0 && drain_pos_ < old_slots_.size(); --budget) {
      moved += DrainOneSlot();
    }
    if (drain_pos_ >= old_slots_.size()) ReleaseOld();
    if (moved > max_drain_step_) max_drain_step_ = moved;
    // Global drain accounting: only while a drain is in flight (bounded
    // by the doubling cadence), never on steady-state operations.
    FlatMap64Telemetry::drain_steps.fetch_add(1, std::memory_order_relaxed);
    FlatMap64Telemetry::drained_entries.fetch_add(
        static_cast<int64_t>(moved), std::memory_order_relaxed);
    FlatMap64Telemetry::NoteMaxDrainStep(static_cast<int64_t>(moved));
  }

  /// Retires a drain in one go (Reserve, mode switch, forced doubling).
  void FinishDrain() {
    if (old_slots_.empty()) return;
    size_t moved = 0;
    while (drain_pos_ < old_slots_.size()) moved += DrainOneSlot();
    if (moved > kDrainBudget) {
      ++full_rehashes_;  // an op absorbed bulk work
      FlatMap64Telemetry::full_rehashes.fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    FlatMap64Telemetry::drained_entries.fetch_add(
        static_cast<int64_t>(moved), std::memory_order_relaxed);
    ReleaseOld();
  }

  void ReleaseOld() {
    std::vector<value_type>().swap(old_slots_);
    old_mask_ = 0;
    drain_pos_ = 0;
  }

  V& UpsertDraining(uint64_t key) {
    DrainStep();
    if (old_slots_.empty()) return (*this)[key];  // drain just finished
    size_t i = MixU64(key) & mask_;
    for (;;) {
      if (slots_[i].first == key) return slots_[i].second;
      if (slots_[i].first == 0) break;
      i = (i + 1) & mask_;
    }
    size_t j = MixU64(key) & old_mask_;
    for (;;) {
      if (old_slots_[j].first == key) {
        // Found in the old table: migrate it now so the returned reference
        // points into the live table (i still names the empty slot — the
        // old-table shift never touches slots_).
        V val = std::move(old_slots_[j].second);
        ShiftErase(old_slots_, old_mask_, j);
        slots_[i].first = key;
        slots_[i].second = std::move(val);
        return slots_[i].second;
      }
      if (old_slots_[j].first == 0) break;
      j = (j + 1) & old_mask_;
    }
    // Absent in both. The doubled table can in principle fill before the
    // drain retires under erase-heavy interleavings; force the next
    // doubling rather than overfill.
    if ((size_ + 1) * 4 > slots_.size() * 3) {
      StartDrain();
      return InsertNew(key);
    }
    slots_[i].first = key;
    ++size_;
    return slots_[i].second;
  }

  size_t EraseDraining(uint64_t key) {
    if (!slots_.empty()) {
      size_t i = MixU64(key) & mask_;
      for (;;) {
        if (slots_[i].first == key) {
          ShiftErase(slots_, mask_, i);
          --size_;
          return 1;
        }
        if (slots_[i].first == 0) break;
        i = (i + 1) & mask_;
      }
    }
    size_t j = MixU64(key) & old_mask_;
    for (;;) {
      if (old_slots_[j].first == key) {
        ShiftErase(old_slots_, old_mask_, j);
        --size_;
        return 1;
      }
      if (old_slots_[j].first == 0) return 0;
      j = (j + 1) & old_mask_;
    }
  }

  std::vector<value_type> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
  bool zero_used_ = false;
  V zero_val_{};

  /// Incremental-rehash state: the array being drained (empty when no
  /// drain is in flight), its mask, and the drain cursor — every slot
  /// before it is empty.
  std::vector<value_type> old_slots_;
  size_t old_mask_ = 0;
  size_t drain_pos_ = 0;
  bool incremental_ = false;
  size_t full_rehashes_ = 0;
  size_t max_drain_step_ = 0;
};

}  // namespace albic
