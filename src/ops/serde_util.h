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

/// Bytes per map row in a state image: a u64 key and an 8-byte value.
inline constexpr size_t kMapRowBytes = 16;

/// \brief Writes a map as a state-image section: a u64 row count, then one
/// (u64 key, 8-byte value) row per entry in ascending key order, so equal
/// maps give equal bytes whatever their insertion or rehash history. The
/// map's cached key order sorts only after its key set changed.
template <typename V>
void WriteMapRows(StateWriter& w, const FlatMap64<V>& map) {
  static_assert(sizeof(V) == 8, "map rows carry 8-byte values");
  w.PutU64(map.size());
  char* out = w.Extend(map.size() * kMapRowBytes);
  map.ForEachAscending([&out](uint64_t key, const V& value) {
    std::memcpy(out, &key, 8);
    std::memcpy(out + 8, &value, 8);
    out += kMapRowBytes;
  });
}

/// \brief Reads a WriteMapRows section into \p map, replacing its contents
/// and keeping the rows' order as its key order. The row count is checked against the bytes left
/// before anything is reserved, so a hostile count is OutOfRange, never a
/// huge allocation; on any error \p map is left untouched.
template <typename V>
Status ReadMapRows(StateReader& r, FlatMap64<V>& map) {
  static_assert(sizeof(V) == 8, "map rows carry 8-byte values");
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetRowCount(kMapRowBytes, &n));
  const char* in = nullptr;
  ALBIC_RETURN_NOT_OK(r.GetSpan(n * kMapRowBytes, &in));
  map.LoadRows(n, [in](size_t i) {
    std::pair<uint64_t, V> row;
    std::memcpy(&row.first, in + i * kMapRowBytes, 8);
    std::memcpy(&row.second, in + i * kMapRowBytes + 8, 8);
    return row;
  });
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
