#pragma once

/// \file
/// \brief Binary (de)serialization helpers for operator state images: the
/// canonical map-row section the map-backed operators share, and the
/// map-delta record layout behind delta-encoded checkpoints, whose keys
/// come from the group's replay log.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map64.h"
#include "common/status.h"
#include "engine/replay_log.h"
#include "engine/tuple.h"

namespace albic::ops {

/// \brief Minimal binary (de)serialization helpers for operator state.
///
/// Fixed-width little-endian encoding; the format is internal to each
/// operator (state images only travel between instances of the same
/// operator, so no cross-operator compatibility is needed).
class StateWriter {
 public:
  void PutU64(uint64_t v) { Append(&v, sizeof(v)); }
  void PutI64(int64_t v) { Append(&v, sizeof(v)); }
  void PutDouble(double v) { Append(&v, sizeof(v)); }

  /// Grows the image by \p n bytes and returns where they start, for bulk
  /// writers that fill them directly (valid until the next Put).
  char* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void Append(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// \brief Cursor-based reader matching StateWriter.
class StateReader {
 public:
  explicit StateReader(const std::string& data) : data_(data) {}

  Status GetU64(uint64_t* v) { return Get(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return Get(v, sizeof(*v)); }
  Status GetDouble(double* v) { return Get(v, sizeof(*v)); }

  /// Reads a u64 count of \p row_bytes-byte rows; OutOfRange when the
  /// bytes left cannot hold that many, so no caller sizes a table by a
  /// hostile count.
  Status GetRowCount(size_t row_bytes, uint64_t* n) {
    ALBIC_RETURN_NOT_OK(GetU64(n));
    if (*n > remaining() / row_bytes) {
      return Status::OutOfRange("state image row count exceeds its bytes");
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

  /// Consumes the next \p n bytes as one checked span starting at \p *p.
  Status GetSpan(size_t n, const char** p) {
    if (n > remaining()) return Status::OutOfRange("state image truncated");
    *p = data_.data() + pos_;
    pos_ += n;
    return Status::OK();
  }

 private:
  size_t remaining() const { return data_.size() - pos_; }
  Status Get(void* p, size_t n) {
    const char* src = nullptr;
    ALBIC_RETURN_NOT_OK(GetSpan(n, &src));
    std::memcpy(p, src, n);
    return Status::OK();
  }
  const std::string& data_;
  size_t pos_ = 0;
};

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

/// \brief Sorts (key, value) rows by ascending key.
template <typename T>
void SortRowsByKey(std::vector<std::pair<uint64_t, T>>* rows) {
  SortRowsByKey(rows,
                [](const std::pair<uint64_t, T>& row) { return row.first; });
}

/// Bytes per map row in a state image: a u64 key and an 8-byte value.
inline constexpr size_t kMapRowBytes = 16;

/// \brief Writes a map as a state-image section: a u64 row count, then one
/// (u64 key, 8-byte value) row per entry in ascending key order, so equal
/// maps give equal bytes whatever their insertion or rehash history.
template <typename V>
void WriteMapRows(StateWriter& w, const FlatMap64<V>& map) {
  static_assert(sizeof(V) == 8, "map rows carry 8-byte values");
  std::vector<std::pair<uint64_t, V>> rows;
  map.AppendEntries(&rows);
  SortRowsByKey(&rows);
  w.PutU64(rows.size());
  char* out = w.Extend(rows.size() * kMapRowBytes);
  for (const auto& [key, value] : rows) {
    std::memcpy(out, &key, 8);
    std::memcpy(out + 8, &value, 8);
    out += kMapRowBytes;
  }
}

/// \brief Reads a WriteMapRows section into \p map, replacing its contents.
/// The row count is checked against the bytes left before anything is
/// reserved, so a hostile count is OutOfRange, never a huge allocation;
/// on any error \p map is left untouched.
template <typename V>
Status ReadMapRows(StateReader& r, FlatMap64<V>& map) {
  static_assert(sizeof(V) == 8, "map rows carry 8-byte values");
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetRowCount(kMapRowBytes, &n));
  const char* in = nullptr;
  ALBIC_RETURN_NOT_OK(r.GetSpan(n * kMapRowBytes, &in));
  map.clear();
  map.Reserve(n);  // land on the final capacity instead of growing through it
  for (uint64_t i = 0; i < n; ++i, in += kMapRowBytes) {
    uint64_t key = 0;
    V value{};
    std::memcpy(&key, in, 8);
    std::memcpy(&value, in + 8, 8);
    map[key] = value;
  }
  return Status::OK();
}

/// \brief The distinct keys the tuples of \p changes touched, ascending.
/// \p key_of(tuple) must be the operator's own key expression, the one its
/// Process upserts under. Window markers touch no key and are skipped.
/// A group's replay log holds exactly the events since its newest
/// checkpoint record, so these are the only keys that can differ from it.
template <typename KeyOf>
std::vector<uint64_t> ChangedKeys(const engine::ReplayLog& changes,
                                  KeyOf key_of) {
  std::vector<uint64_t> keys;
  keys.reserve(changes.tuple_count());
  changes.ReplayFrom(
      changes.base_seq(),
      [&](const engine::Tuple& t) { keys.push_back(key_of(t)); }, [] {});
  SortRowsByKey(&keys, [](uint64_t key) { return key; });
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Delta records start with a flags word; bit 0 says the state was
/// wholesale reset since the base (apply clears before upserting). No
/// writer here sets it, since a reset is written as a base, but readers
/// honour it in records they did not write.
inline constexpr uint64_t kDeltaResetFlag = 1;

/// \brief Writes the map-backed portion of a delta record: flags, then the
/// \p keys (ascending and distinct, see ChangedKeys) still present in
/// \p live, with their live values (one PutVal(writer, value) call each),
/// then the \p keys now absent, as erases. Canonical ordering keeps chain
/// restoration byte-stable, exactly like the sorted full snapshots.
template <typename V, typename PutVal>
void WriteMapDelta(StateWriter& w, const std::vector<uint64_t>& keys,
                   const FlatMap64<V>& live, PutVal&& put_val) {
  std::vector<std::pair<uint64_t, const V*>> upserts;
  std::vector<uint64_t> erases;
  upserts.reserve(keys.size());
  for (const uint64_t key : keys) {
    const V* v = live.find(key);
    if (v != nullptr) {
      upserts.emplace_back(key, v);
    } else {
      erases.push_back(key);
    }
  }
  w.PutU64(0);  // flags
  w.PutU64(upserts.size());
  for (const auto& [key, value] : upserts) {
    w.PutU64(key);
    put_val(w, *value);
  }
  w.PutU64(erases.size());
  for (uint64_t key : erases) w.PutU64(key);
}

/// \brief Applies the map-backed portion of a delta record onto \p live:
/// clears it when the reset flag is set, then upserts and erases the
/// recorded keys. GetVal(reader, &value) reads one value.
template <typename V, typename GetVal>
Status ReadMapDelta(StateReader& r, FlatMap64<V>& live, GetVal&& get_val) {
  uint64_t flags = 0;
  ALBIC_RETURN_NOT_OK(r.GetU64(&flags));
  if ((flags & kDeltaResetFlag) != 0) live.clear();
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetU64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    V value{};
    ALBIC_RETURN_NOT_OK(r.GetU64(&key));
    ALBIC_RETURN_NOT_OK(get_val(r, &value));
    live[key] = value;
  }
  ALBIC_RETURN_NOT_OK(r.GetU64(&n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    ALBIC_RETURN_NOT_OK(r.GetU64(&key));
    live.erase(key);
  }
  return Status::OK();
}

}  // namespace albic::ops
