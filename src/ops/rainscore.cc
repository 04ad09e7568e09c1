#include "ops/rainscore.h"

#include <algorithm>

#include "ops/serde_util.h"

namespace albic::ops {

RainScoreOperator::RainScoreOperator(int num_groups)
    : max_precip_(static_cast<size_t>(num_groups)) {}

void RainScoreOperator::Process(const engine::Tuple& tuple, int group_index,
                                engine::Emitter* out) {
  double& max = max_precip_[group_index][tuple.key];
  max = std::max(max, tuple.num);
  const double score = max > 0.0 ? 100.0 * tuple.num / max : 0.0;
  const int decade = std::clamp(static_cast<int>(score / 10.0) * 10, 0, 100);
  engine::Tuple t = tuple;
  t.num = static_cast<double>(decade);
  out->Emit(t);
}

double RainScoreOperator::MaxFor(int group_index, uint64_t station) const {
  return max_precip_[group_index].at(station);
}

std::string RainScoreOperator::SerializeGroupState(int group_index) const {
  StateWriter w;
  WriteMapRows(w, max_precip_[group_index]);
  return w.Take();
}

Status RainScoreOperator::DeserializeGroupState(int group_index,
                                                const std::string& data) {
  StateReader r(data);
  return ReadMapRows(r, max_precip_[group_index]);
}

void RainScoreOperator::ClearGroupState(int group_index) {
  max_precip_[group_index].clear();
}

}  // namespace albic::ops
