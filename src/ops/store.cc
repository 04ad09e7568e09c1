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
}

void StoreSinkOperator::ProcessBatch(const engine::TupleBatch& batch,
                                     int group_index, engine::Emitter* out) {
  (void)out;
  FlatMap64<double>& table = table_[group_index];
  for (const engine::Tuple& tuple : batch) table[tuple.key] = tuple.num;
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
  return r.GetI64(&flushes_[group_index]);
}

void StoreSinkOperator::ClearGroupState(int group_index) {
  table_[group_index].clear();
  flushes_[group_index] = 0;
}

// Process upserts under tuple.key, so the logged keys are the changed
// rows. A window fire only bumps the flush counter, which every delta
// carries whole, so any logged change is describable.
bool StoreSinkOperator::SerializeGroupDelta(int group_index,
                                            const engine::ReplayLog& changes,
                                            std::string* out) const {
  StateWriter w;
  WriteMapDelta(w,
                ChangedKeys(changes,
                            [](const engine::Tuple& t) { return t.key; }),
                table_[group_index],
                [](StateWriter& o, double v) { o.PutDouble(v); });
  w.PutI64(flushes_[group_index]);
  *out = w.Take();
  return true;
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
