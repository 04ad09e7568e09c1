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
  double& sum = sums_[group_index][IdOf(tuple)];
  sum += tuple.num;
  if (emit_updates_) {
    engine::Tuple t = tuple;
    t.num = sum;  // running aggregate
    out->Emit(t);
  }
}

void SumByKeyOperator::ProcessBatch(const engine::TupleBatch& batch,
                                    int group_index, engine::Emitter* out) {
  // Hoist the group-state lookup and the field/emit branches out of the
  // loop.
  auto& sums = sums_[group_index];
  const bool by_key = field_ == GroupField::kKey;
  if (emit_updates_) {
    for (const engine::Tuple& tuple : batch) {
      double& sum = sums[by_key ? tuple.key : tuple.aux];
      sum += tuple.num;
      engine::Tuple t = tuple;
      t.num = sum;  // running aggregate
      out->Emit(t);
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
  return ReadMapRows(r, sums_[group_index]);
}

void SumByKeyOperator::ClearGroupState(int group_index) {
  sums_[group_index].clear();
}

bool SumByKeyOperator::SerializeGroupDelta(int group_index,
                                           const engine::ReplayLog& changes,
                                           std::string* out) const {
  StateWriter w;
  WriteMapDelta(w,
                ChangedKeys(changes,
                            [this](const engine::Tuple& t) { return IdOf(t); }),
                sums_[group_index],
                [](StateWriter& o, double v) { o.PutDouble(v); });
  *out = w.Take();
  return true;
}

Status SumByKeyOperator::ApplyGroupDelta(int group_index,
                                         const std::string& data) {
  StateReader r(data);
  return ReadMapDelta(r, sums_[group_index], [](StateReader& in, double* v) {
    return in.GetDouble(v);
  });
}

}  // namespace albic::ops
