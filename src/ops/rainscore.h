#pragma once

/// \file
/// \brief Real Job 4 rainscore: converts weather records into bucketed
/// 0-100 precipitation scores.

#include <cstdint>
#include <vector>

#include "common/flat_map64.h"
#include "engine/operator.h"

namespace albic::ops {

/// \brief Real Job 4's rainscore operator (§5.4): converts weather records
/// into a 0-100 score — precipitation as a percentage of the maximal
/// historically measured value — bucketed into intervals of ten.
///
/// The historical maximum per station is learned online as state (exactly
/// what a streaming deployment without a preloaded history would do), so
/// the operator is stateful and migratable. The state image is the
/// per-station maxima as canonical WriteMapRows rows (serde_util.h).
class RainScoreOperator : public engine::StreamOperator {
 public:
  explicit RainScoreOperator(int num_groups);

  void Process(const engine::Tuple& tuple, int group_index,
               engine::Emitter* out) override;

  std::string SerializeGroupState(int group_index) const override;
  Status DeserializeGroupState(int group_index,
                               const std::string& data) override;
  void ClearGroupState(int group_index) override;

  /// \brief Learned historical max for a station (0 when unseen).
  double MaxFor(int group_index, uint64_t station) const;

 private:
  std::vector<FlatMap64<double>> max_precip_;
};

}  // namespace albic::ops
