#include "ops/aggregate.h"

#include "ops/serde_util.h"

namespace albic::ops {

SumByKeyOperator::SumByKeyOperator(int num_groups, GroupField field,
                                   bool emit_updates)
    : field_(field),
      emit_updates_(emit_updates),
      sums_(static_cast<size_t>(num_groups)) {}

void SumByKeyOperator::Process(const engine::Tuple& tuple, int group_index,
                               engine::Emitter* out) {
  const uint64_t id = field_ == GroupField::kKey ? tuple.key : tuple.aux;
  double& sum = sums_[group_index][id];
  sum += tuple.num;
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkDirty(id);
  if (emit_updates_) {
    engine::Tuple t = tuple;
    t.num = sum;  // running aggregate
    out->Emit(t);
  }
}

void SumByKeyOperator::ProcessBatch(const engine::TupleBatch& batch,
                                    int group_index, engine::Emitter* out) {
  // Hoist the group-state lookup and the field/emit/tracker branches out of
  // the loop.
  auto& sums = sums_[group_index];
  engine::StateChangeTracker* track = tracker(group_index);
  const bool by_key = field_ == GroupField::kKey;
  if (emit_updates_) {
    for (const engine::Tuple& tuple : batch) {
      const uint64_t id = by_key ? tuple.key : tuple.aux;
      double& sum = sums[id];
      sum += tuple.num;
      if (track != nullptr) track->MarkDirty(id);
      engine::Tuple t = tuple;
      t.num = sum;  // running aggregate
      out->Emit(t);
    }
  } else if (track != nullptr) {
    for (const engine::Tuple& tuple : batch) {
      const uint64_t id = by_key ? tuple.key : tuple.aux;
      sums[id] += tuple.num;
      track->MarkDirty(id);
    }
  } else {
    for (const engine::Tuple& tuple : batch) {
      sums[by_key ? tuple.key : tuple.aux] += tuple.num;
    }
  }
}

double SumByKeyOperator::SumFor(int group_index, uint64_t id) const {
  const double* sum = sums_[group_index].find(id);
  return sum != nullptr ? *sum : 0.0;
}

double SumByKeyOperator::GroupTotal(int group_index) const {
  double total = 0.0;
  for (const auto& [id, sum] : sums_[group_index]) total += sum;
  return total;
}

// The image is the sum map as WriteMapRows rows, ascending by id: equal
// sums serialize identically whatever the insertion history, so a group
// rebuilt from checkpoint + replay is byte-identical to the live one.
std::string SumByKeyOperator::SerializeGroupState(int group_index) const {
  StateWriter w;
  WriteMapRows(w, sums_[group_index]);
  return w.Take();
}

Status SumByKeyOperator::DeserializeGroupState(int group_index,
                                               const std::string& data) {
  StateReader r(data);
  ALBIC_RETURN_NOT_OK(ReadMapRows(r, sums_[group_index]));
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
  return Status::OK();
}

void SumByKeyOperator::ClearGroupState(int group_index) {
  sums_[group_index].clear();
  if (engine::StateChangeTracker* t = tracker(group_index)) t->MarkReset();
}

std::string SumByKeyOperator::SerializeGroupDelta(int group_index) const {
  StateWriter w;
  WriteMapDelta(w, *tracker(group_index), sums_[group_index],
                [](StateWriter& out, double v) { out.PutDouble(v); });
  return w.Take();
}

Status SumByKeyOperator::ApplyGroupDelta(int group_index,
                                         const std::string& data) {
  StateReader r(data);
  return ReadMapDelta(r, sums_[group_index], [](StateReader& in, double* v) {
    return in.GetDouble(v);
  });
}

}  // namespace albic::ops
