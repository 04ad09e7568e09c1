#include "ops/topk.h"

#include <algorithm>
#include <array>

#include "ops/serde_util.h"

namespace albic::ops {

WindowedTopKOperator::WindowedTopKOperator(int num_groups, int k,
                                           TopKCountMode mode)
    : k_(k),
      mode_(mode),
      window_counts_(static_cast<size_t>(num_groups)),
      last_top_(static_cast<size_t>(num_groups)) {}

void WindowedTopKOperator::Process(const engine::Tuple& tuple,
                                   int group_index, engine::Emitter* out) {
  (void)out;  // TopK only emits on window boundaries.
  const int64_t weight =
      mode_ == TopKCountMode::kSumNum
          ? std::max<int64_t>(1, static_cast<int64_t>(tuple.num))
          : 1;
  window_counts_[group_index][IdOf(tuple)] += weight;
}

void WindowedTopKOperator::ProcessBatch(const engine::TupleBatch& batch,
                                        int group_index,
                                        engine::Emitter* out) {
  (void)out;  // TopK only emits on window boundaries.
  // Hoist the group-state lookup and the mode branch out of the loop, and
  // prefetch a few tuples ahead so count-slot probes overlap memory latency.
  constexpr size_t kLookahead = 24;
  auto& counts = window_counts_[group_index];
  const size_t n = batch.size();
  if (mode_ == TopKCountMode::kOccurrences) {
    for (size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n) counts.prefetch(IdOf(batch[i + kLookahead]));
      counts[IdOf(batch[i])] += 1;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n) counts.prefetch(IdOf(batch[i + kLookahead]));
      const engine::Tuple& tuple = batch[i];
      counts[IdOf(tuple)] +=
          std::max<int64_t>(1, static_cast<int64_t>(tuple.num));
    }
  }
}

void WindowedTopKOperator::OnWindow(int group_index, engine::Emitter* out) {
  auto& counts = window_counts_[group_index];
  auto& top = last_top_[group_index];
  top.clear();  // an empty window's top k is empty
  if (counts.empty()) return;
  entries_.clear();
  counts.AppendEntries(&entries_);
  // Only entries whose count, clamped to [0, 255], reaches the bucket at
  // which the histogram's tail first holds k entries can be in the top k:
  // the clamp is monotone, so an entry below it has k heavier ones.
  const auto bucket = [](int64_t count) {
    return static_cast<size_t>(std::clamp<int64_t>(count, 0, 255));
  };
  std::array<uint32_t, 256> histogram{};
  for (const auto& entry : entries_) ++histogram[bucket(entry.second)];
  const size_t k = static_cast<size_t>(k_);
  size_t threshold = 255;
  for (size_t tail = histogram[255]; tail < k && threshold > 0;) {
    tail += histogram[--threshold];
  }
  const auto candidates_end =
      std::partition(entries_.begin(), entries_.end(), [&](const auto& e) {
        return bucket(e.second) >= threshold;
      });
  const auto keep_end =
      entries_.begin() +
      std::min(k, static_cast<size_t>(candidates_end - entries_.begin()));
  std::partial_sort(entries_.begin(), keep_end, candidates_end,
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;  // deterministic ties
                    });
  top.assign(entries_.begin(), keep_end);
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
