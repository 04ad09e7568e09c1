#include "ops/topk.h"

#include <algorithm>
#include <array>
#include <limits>

#include "ops/serde_util.h"

namespace albic::ops {

namespace {

/// A group's threshold is its previous window's k-th count over this.
constexpr int64_t kThresholdDivisor = 2;

/// A kSumNum tuple's weight: its num truncated, 1 for NaN and anything
/// below 1, INT64_MAX from 2^63 up.
int64_t WeightOf(double num) {
  if (!(num >= 1.0)) return 1;  // NaN, -inf and everything below 1
  if (num >= 9223372036854775808.0) {  // 2^63 and up, +inf
    return std::numeric_limits<int64_t>::max();
  }
  return static_cast<int64_t>(num);
}

/// \p count + \p weight for a weight >= 1, saturating at INT64_MAX.
int64_t SaturatingAdd(int64_t count, int64_t weight) {
  int64_t sum = 0;
  return __builtin_add_overflow(count, weight, &sum)
             ? std::numeric_limits<int64_t>::max()
             : sum;
}

}  // namespace

WindowedTopKOperator::WindowedTopKOperator(int num_groups, int k,
                                           TopKCountMode mode)
    : k_(k),
      mode_(mode),
      window_counts_(static_cast<size_t>(num_groups)),
      last_top_(static_cast<size_t>(num_groups)),
      threshold_(static_cast<size_t>(num_groups), 0),
      candidates_(static_cast<size_t>(num_groups)) {}

void WindowedTopKOperator::Process(const engine::Tuple& tuple,
                                   int group_index, engine::Emitter* out) {
  (void)out;  // TopK only emits on window boundaries.
  const uint64_t id = IdOf(tuple);
  const int64_t weight =
      mode_ == TopKCountMode::kSumNum ? WeightOf(tuple.num) : 1;
  int64_t& count = window_counts_[group_index][id];
  const int64_t before = count;
  count = SaturatingAdd(before, weight);
  const int64_t threshold = threshold_[group_index];
  if (before < threshold && count >= threshold) {
    candidates_[group_index].push_back(id);
  }
}

void WindowedTopKOperator::ProcessBatch(const engine::TupleBatch& batch,
                                        int group_index,
                                        engine::Emitter* out) {
  (void)out;  // TopK only emits on window boundaries.
  // Hoist the group-state lookup and the mode branch out of the loop, and
  // prefetch a few tuples ahead so count-slot probes overlap memory latency.
  constexpr size_t kLookahead = 24;
  auto& counts = window_counts_[group_index];
  const int64_t threshold = threshold_[group_index];
  auto& candidates = candidates_[group_index];
  const size_t n = batch.size();
  if (mode_ == TopKCountMode::kOccurrences) {
    for (size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n) counts.prefetch(IdOf(batch[i + kLookahead]));
      const uint64_t id = IdOf(batch[i]);
      int64_t& count = counts[id];
      count = SaturatingAdd(count, 1);
      // A +1 step crosses the threshold exactly when it lands on it.
      if (count == threshold) candidates.push_back(id);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n) counts.prefetch(IdOf(batch[i + kLookahead]));
      const engine::Tuple& tuple = batch[i];
      const uint64_t id = IdOf(tuple);
      int64_t& count = counts[id];
      const int64_t before = count;
      count = SaturatingAdd(before, WeightOf(tuple.num));
      if (before < threshold && count >= threshold) candidates.push_back(id);
    }
  }
}

void WindowedTopKOperator::OnWindow(int group_index, engine::Emitter* out) {
  auto& counts = window_counts_[group_index];
  auto& top = last_top_[group_index];
  auto& candidates = candidates_[group_index];
  const size_t k = static_cast<size_t>(k_);
  top.clear();  // an empty window's top k is empty
  entries_.clear();
  if (threshold_[group_index] > 0 && candidates.size() >= k) {
    // At least k ids crossed the threshold, so the k-th count is at or
    // above it, and every id at or above it crossed it exactly once.
    for (const uint64_t id : candidates) {
      entries_.emplace_back(id, *counts.find(id));
    }
  } else {
    counts.AppendEntries(&entries_);
  }
  candidates.clear();
  threshold_[group_index] = 0;
  if (entries_.empty()) return;
  // Only entries whose count, clamped to [0, 255], reaches the bucket at
  // which the histogram's tail first holds k entries can be in the top k:
  // the clamp is monotone, so an entry below it has k heavier ones.
  const auto bucket = [](int64_t count) {
    return static_cast<size_t>(std::clamp<int64_t>(count, 0, 255));
  };
  std::array<uint32_t, 256> histogram{};
  for (const auto& entry : entries_) ++histogram[bucket(entry.second)];
  size_t threshold = 255;
  for (size_t tail = histogram[255]; tail < k && threshold > 0;) {
    tail += histogram[--threshold];
  }
  const auto candidates_end =
      std::partition(entries_.begin(), entries_.end(), [&](const auto& e) {
        return bucket(e.second) >= threshold;
      });
  // Ids are unique, so the comparator is a strict total order: sorting
  // the candidates puts the same k entries first, in the same order, as
  // std::partial_sort's heap selection did, at a lower cost per candidate.
  const size_t kept =
      std::min(k, static_cast<size_t>(candidates_end - entries_.begin()));
  std::sort(entries_.begin(), candidates_end,
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;  // deterministic ties
            });
  top.assign(entries_.begin(), entries_.begin() + kept);
  if (top.size() == k && k > 0) {
    threshold_[group_index] =
        std::max<int64_t>(0, top.back().second / kThresholdDivisor);
  }
  for (const auto& [id, count] : top) {
    engine::Tuple t;
    t.key = id;  // downstream (global TopK) partitions by the id
    t.aux = id;
    t.num = static_cast<double>(count);
    out->Emit(t);
  }
  counts.clear();
}

std::string WindowedTopKOperator::SerializeGroupState(int group_index) const {
  StateWriter w;
  // The count map as WriteMapRows rows, sorted by id: the hash map's
  // iteration order depends on its insertion/rehash history, so two maps
  // with identical content can iterate differently. Sorting makes state
  // images content-addressed — checkpoint + replay reconstruction is
  // bit-identical to the live state. Then last_top_ in its emitted order.
  WriteMapRows(w, window_counts_[group_index]);
  const auto& top = last_top_[group_index];
  w.PutU64(top.size());
  for (const auto& [id, count] : top) {
    w.PutU64(id);
    w.PutI64(count);
  }
  return w.Take();
}

Status WindowedTopKOperator::DeserializeGroupState(int group_index,
                                                   const std::string& data) {
  Disarm(group_index);
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapRows(r, window_counts_[group_index]));
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetU64(&n));
  auto& top = last_top_[group_index];
  top.clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    int64_t count = 0;
    ALBIC_RETURN_NOT_OK(r.GetU64(&id));
    ALBIC_RETURN_NOT_OK(r.GetI64(&count));
    top.emplace_back(id, count);
  }
  return Status::OK();
}

void WindowedTopKOperator::ClearGroupState(int group_index) {
  Disarm(group_index);
  window_counts_[group_index].clear();
  last_top_[group_index].clear();
}

bool WindowedTopKOperator::SerializeGroupDelta(
    int group_index, const engine::ReplayLog& changes,
    std::string* out) const {
  // A window fire replaced the whole state (counts emptied, last_top_
  // rewritten), and the counts it emptied are keys the log never touched:
  // only a base describes it. Right after a fire the state is at its
  // smallest, so the base is cheap.
  if (changes.window_fire_count() > 0) return false;
  StateWriter w;
  WriteMapDelta(w, ChangedKeys(changes, IdOf), window_counts_[group_index],
                [](StateWriter& o, int64_t v) { o.PutI64(v); });
  // last_top_ is at most k entries — deltas always carry it whole.
  const auto& top = last_top_[group_index];
  w.PutU64(top.size());
  for (const auto& [id, count] : top) {
    w.PutU64(id);
    w.PutI64(count);
  }
  *out = w.Take();
  return true;
}

Status WindowedTopKOperator::ApplyGroupDelta(int group_index,
                                             const std::string& data) {
  Disarm(group_index);
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapDelta(
      r, window_counts_[group_index],
      [](StateReader& in, int64_t* v) { return in.GetI64(v); }));
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetU64(&n));
  auto& top = last_top_[group_index];
  top.clear();
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    int64_t count = 0;
    ALBIC_RETURN_NOT_OK(r.GetU64(&id));
    ALBIC_RETURN_NOT_OK(r.GetI64(&count));
    top.emplace_back(id, count);
  }
  return Status::OK();
}

}  // namespace albic::ops
