#include "engine/comm_matrix.h"

#include <algorithm>

#include "common/hash.h"

namespace albic::engine {

CommMatrix::Slot& CommMatrix::Probe(uint64_t key) {
  const size_t mask = index_.size() - 1;
  size_t i = MixU64(key) & mask;
  while (index_[i].key != key && index_[i].key != kFree) i = (i + 1) & mask;
  return index_[i];
}

void CommMatrix::Reindex(size_t more) {
  size_t pairs = more;
  for (const std::vector<Entry>& row : rows_) pairs += row.size();
  index_.assign(SlotsFor(pairs), Slot());
  indexed_ = 0;
  for (size_t from = 0; from < rows_.size(); ++from) {
    const std::vector<Entry>& row = rows_[from];
    for (size_t pos = 0; pos < row.size(); ++pos) {
      const uint64_t key = KeyOf(static_cast<KeyGroupId>(from), row[pos].to);
      Slot& s = Probe(key);
      if (s.key == kFree) {  // a SetRow row may repeat a pair: keep the first
        s = {key, static_cast<uint32_t>(pos)};
        ++indexed_;
      }
    }
  }
  index_stale_ = false;
}

void CommMatrix::ReserveLike(const CommMatrix& like) {
  const size_t rows = std::min(rows_.size(), like.rows_.size());
  size_t pairs = 0;
  for (size_t from = 0; from < rows; ++from) {
    rows_[from].reserve(like.rows_[from].size());
    pairs += like.rows_[from].size();
  }
  if (SlotsFor(indexed_ + pairs) > index_.size()) Reindex(pairs);
}

void CommMatrix::Add(KeyGroupId from, KeyGroupId to, double rate) {
  if (index_stale_ || (indexed_ + 1) * 2 > index_.size()) Reindex(1);
  const uint64_t key = KeyOf(from, to);
  Slot& s = Probe(key);
  std::vector<Entry>& row = rows_[from];
  if (s.key == key) {
    row[s.pos].rate += rate;
    return;
  }
  s = {key, static_cast<uint32_t>(row.size())};
  ++indexed_;
  row.push_back({to, rate});
}

double CommMatrix::Rate(KeyGroupId from, KeyGroupId to) const {
  for (const Entry& e : rows_[from]) {
    if (e.to == to) return e.rate;
  }
  return 0.0;
}

double CommMatrix::TotalOut(KeyGroupId from) const {
  double s = 0.0;
  for (const Entry& e : rows_[from]) s += e.rate;
  return s;
}

double CommMatrix::TotalTraffic() const {
  double s = 0.0;
  for (const auto& row : rows_) {
    for (const Entry& e : row) s += e.rate;
  }
  return s;
}

void CommMatrix::Clear() {
  for (auto& row : rows_) row.clear();
  std::fill(index_.begin(), index_.end(), Slot());
  indexed_ = 0;
  index_stale_ = false;
}

}  // namespace albic::engine
