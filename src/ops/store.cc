#include "ops/store.h"

#include "ops/serde_util.h"

namespace albic::ops {

StoreSinkOperator::StoreSinkOperator(int num_groups)
    : table_(static_cast<size_t>(num_groups)),
      flushes_(static_cast<size_t>(num_groups), 0) {}

void StoreSinkOperator::Process(const engine::Tuple& tuple, int group_index,
                                engine::Emitter* out) {
  (void)out;  // sink: no downstream
  table_[group_index][tuple.key] = tuple.num;
  if (engine::StateChangeTracker* t = tracker(group_index)) {
    t->MarkDirty(tuple.key);
  }
}

void StoreSinkOperator::OnWindow(int group_index, engine::Emitter* out) {
  (void)out;
  // Periodic flush to the "database": modeled as a counter.
  ++flushes_[group_index];
}

double StoreSinkOperator::ValueFor(int group_index, uint64_t key) const {
  const double* v = table_[group_index].find(key);
  return v == nullptr ? 0.0 : *v;
}

// The image is the table's canonical WriteMapRows rows (see store.h), then
// the flush counter.
std::string StoreSinkOperator::SerializeGroupState(int group_index) const {
  StateWriter w;
  WriteMapRows(w, table_[group_index]);
  w.PutI64(flushes_[group_index]);
  return w.Take();
}

Status StoreSinkOperator::DeserializeGroupState(int group_index,
                                                const std::string& data) {
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapRows(r, table_[group_index]));
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
  return r.GetI64(&flushes_[group_index]);
}

void StoreSinkOperator::ClearGroupState(int group_index) {
  table_[group_index].clear();
  flushes_[group_index] = 0;
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
}

std::string StoreSinkOperator::SerializeGroupDelta(int group_index) const {
  StateWriter w;
  const engine::StateChangeTracker* t = tracker(group_index);
  WriteMapDelta(w, *t, table_[group_index],
                [](StateWriter& out, double v) { out.PutDouble(v); });
  // The flush counter is a few bytes; deltas always carry it whole.
  w.PutI64(flushes_[group_index]);
  return w.Take();
}

Status StoreSinkOperator::ApplyGroupDelta(int group_index,
                                          const std::string& data) {
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapDelta(
      r, table_[group_index],
      [](StateReader& in, double* v) { return in.GetDouble(v); }));
  return r.GetI64(&flushes_[group_index]);
}

}  // namespace albic::ops
