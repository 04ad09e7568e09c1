#pragma once

/// \file
/// \brief StoreSink: upsert-per-tuple sink table over FlatMap64, with
/// delta checkpoints of the keys the replay log touched.

#include <cstdint>
#include <vector>

#include "common/flat_map64.h"
#include "engine/operator.h"

namespace albic::ops {

/// \brief Sink operator standing in for "periodically writes results to a
/// local relational database" (§5.4): upserts the latest value per key into
/// an in-memory table and counts flushes on window boundaries.
///
/// The per-group table is a FlatMap64 (open addressing, no per-entry
/// allocation) — upsert-per-tuple is this operator's entire hot path, and
/// the node allocation + pointer chase of std::unordered_map dominated it.
/// The state image is the table as WriteMapRows rows (serde_util.h),
/// gathered branch-free and radix-sorted into ascending key order, then
/// the flush counter: any two tables with equal contents serialize
/// identically regardless of insertion history — what keeps checkpoint +
/// replay reconstruction byte-stable.
/// Supports delta state: a delta record carries only the keys the group's
/// replay log touched (plus the small flush counter), so checkpoint bytes
/// track the change, not the table.
class StoreSinkOperator : public engine::StreamOperator {
 public:
  explicit StoreSinkOperator(int num_groups);

  void Process(const engine::Tuple& tuple, int group_index,
               engine::Emitter* out) override;
  /// One table lookup per batch, then the upserts in order.
  void ProcessBatch(const engine::TupleBatch& batch, int group_index,
                    engine::Emitter* out) override;
  void OnWindow(int group_index, engine::Emitter* out) override;

  std::string SerializeGroupState(int group_index) const override;
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override;
  void ClearGroupState(int group_index) override;

  bool SerializeGroupDelta(int group_index, const engine::ReplayLog& changes,
                           std::string* out) const override;
  Status ApplyGroupDelta(int group_index, const std::string& data) override;

  int64_t rows(int group_index) const {
    return static_cast<int64_t>(table_[group_index].size());
  }
  int64_t flushes(int group_index) const { return flushes_[group_index]; }
  double ValueFor(int group_index, uint64_t key) const;

 private:
  std::vector<FlatMap64<double>> table_;
  std::vector<int64_t> flushes_;
};

}  // namespace albic::ops
