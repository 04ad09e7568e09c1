#include "ops/join.h"

#include <algorithm>

#include "ops/serde_util.h"

namespace albic::ops {

RouteRainJoinOperator::RouteRainJoinOperator(int num_groups)
    : route_decade_(static_cast<size_t>(num_groups)),
      decade_delay_(static_cast<size_t>(num_groups)) {}

void RouteRainJoinOperator::Process(const engine::Tuple& tuple,
                                    int group_index, engine::Emitter* out) {
  if (tuple.aux == kRainMark) {
    // Rainscore side: remember the latest decade for the route.
    const int decade =
        std::clamp(static_cast<int>(tuple.num / 10.0) * 10, 0, 100);
    route_decade_[group_index][tuple.key] = decade;
    return;
  }
  // Delay side: join with the latest known decade (0 when none yet).
  int decade = 0;
  const int* known = route_decade_[group_index].find(tuple.key);
  if (known != nullptr) decade = *known;
  double& sum = decade_delay_[group_index][static_cast<uint64_t>(decade)];
  sum += tuple.num;
  engine::Tuple t;
  t.key = static_cast<uint64_t>(decade);
  t.num = sum;
  t.aux = tuple.key;
  out->Emit(t);
}

void RouteRainJoinOperator::ProcessBatch(const engine::TupleBatch& batch,
                                         int group_index,
                                         engine::Emitter* out) {
  // Hoist both group-state lookups out of the loop.
  auto& decades = route_decade_[group_index];
  auto& delays = decade_delay_[group_index];
  for (const engine::Tuple& tuple : batch) {
    if (tuple.aux == kRainMark) {
      const int decade =
          std::clamp(static_cast<int>(tuple.num / 10.0) * 10, 0, 100);
      decades[tuple.key] = decade;
      continue;
    }
    int decade = 0;
    const int* known = decades.find(tuple.key);
    if (known != nullptr) decade = *known;
    double& sum = delays[static_cast<uint64_t>(decade)];
    sum += tuple.num;
    engine::Tuple t;
    t.key = static_cast<uint64_t>(decade);
    t.num = sum;
    t.aux = tuple.key;
    out->Emit(t);
  }
}

double RouteRainJoinOperator::DelayForDecade(int group_index,
                                             int decade) const {
  const double* sum =
      decade_delay_[group_index].find(static_cast<uint64_t>(decade));
  return sum != nullptr ? *sum : 0.0;
}

std::string RouteRainJoinOperator::SerializeGroupState(
    int group_index) const {
  StateWriter w;
  const auto& rd = route_decade_[group_index];
  w.PutU64(rd.size());
  for (const auto& [route, decade] : rd) {
    w.PutU64(route);
    w.PutI64(decade);
  }
  const auto& dd = decade_delay_[group_index];
  w.PutU64(dd.size());
  for (const auto& [decade, sum] : dd) {
    w.PutI64(decade);
    w.PutDouble(sum);
  }
  return w.Take();
}

Status RouteRainJoinOperator::DeserializeGroupState(int group_index,
                                                    const std::string& data) {
  StateReader r(data);
  uint64_t n = 0;
  ALBIC_RETURN_NOT_OK(r.GetRowCount(kMapRowBytes, &n));
  auto& rd = route_decade_[group_index];
  rd.clear();
  rd.Reserve(n);  // final capacity up front, not every power of two
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t route = 0;
    int64_t decade = 0;
    ALBIC_RETURN_NOT_OK(r.GetU64(&route));
    ALBIC_RETURN_NOT_OK(r.GetI64(&decade));
    rd[route] = static_cast<int>(decade);
  }
  ALBIC_RETURN_NOT_OK(r.GetRowCount(kMapRowBytes, &n));
  auto& dd = decade_delay_[group_index];
  dd.clear();
  dd.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    int64_t decade = 0;
    double sum = 0.0;
    ALBIC_RETURN_NOT_OK(r.GetI64(&decade));
    ALBIC_RETURN_NOT_OK(r.GetDouble(&sum));
    dd[static_cast<int>(decade)] = sum;
  }
  return Status::OK();
}

void RouteRainJoinOperator::ClearGroupState(int group_index) {
  route_decade_[group_index].clear();
  decade_delay_[group_index].clear();
}

}  // namespace albic::ops
