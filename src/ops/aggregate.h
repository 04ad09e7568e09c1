#pragma once

/// \file
/// \brief Keyed running-sum aggregation (SumByKey) for Real Jobs 2 and 3,
/// with delta records of the keys the replay log touched.

#include <cstdint>
#include <vector>

#include "common/flat_map64.h"
#include "engine/operator.h"

namespace albic::ops {

/// \brief Which tuple field a SumByKey operator groups on.
enum class GroupField { kKey, kAux };

/// \brief Running sum of `num` per grouping key: Real Job 2's
/// SumDelayByPlane (grouped on key = airplane) and Real Job 3's RouteDelay
/// (grouped on aux = route id), §5.4.
///
/// Every update emits the new running sum downstream (keyed like the input),
/// which is what the store operators persist. Per-group state is the sum
/// map.
class SumByKeyOperator : public engine::StreamOperator {
 public:
  SumByKeyOperator(int num_groups, GroupField field,
                   bool emit_updates = true);

  void Process(const engine::Tuple& tuple, int group_index,
               engine::Emitter* out) override;
  void ProcessBatch(const engine::TupleBatch& batch, int group_index,
                    engine::Emitter* out) override;

  std::string SerializeGroupState(int group_index) const override;
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override;
  void ClearGroupState(int group_index) override;

  bool SerializeGroupDelta(int group_index, const engine::ReplayLog& changes,
                           std::string* out) const override;
  Status ApplyGroupDelta(int group_index, const std::string& data) override;

  /// \brief Current sum for a grouping key (0 when unseen), for tests.
  double SumFor(int group_index, uint64_t id) const;

  /// \brief Total over all keys of a group.
  double GroupTotal(int group_index) const;

 private:
  /// The grouping key of \p tuple: what Process sums under, and so what a
  /// logged tuple changed.
  uint64_t IdOf(const engine::Tuple& tuple) const {
    return field_ == GroupField::kKey ? tuple.key : tuple.aux;
  }

  GroupField field_;
  bool emit_updates_;
  std::vector<FlatMap64<double>> sums_;
};

}  // namespace albic::ops
