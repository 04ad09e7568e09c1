// MeasuredCostModel unit tests: the bit-identical fallback contract, the
// measured redistribution (total preserved, distribution from service
// shares) and EWMA smoothing across periods.

#include "engine/cost_model.h"

#include <gtest/gtest.h>

#include <vector>

namespace albic::engine {
namespace {

LatencyPeriodStats PeriodWithService(const std::vector<double>& service_us,
                                     int num_operators = 1) {
  LatencyPeriodStats period;
  period.EnableFor(num_operators, static_cast<int>(service_us.size()));
  for (size_t g = 0; g < service_us.size(); ++g) {
    period.group_service[g].service_sum_us = service_us[g];
    period.group_service[g].tuples = 10;
  }
  return period;
}

TEST(MeasuredCostModelTest, TelemetryOffFallsBackBitIdentically) {
  MeasuredCostModel model;
  const std::vector<double> modeled = {10.0, 20.0, 30.0};
  LatencyPeriodStats off;  // enabled = false
  const std::vector<double> out = model.UpdateAndBlend(modeled, off);
  EXPECT_EQ(out, modeled);  // exact, not approximate
  EXPECT_FALSE(model.measured());
  EXPECT_TRUE(model.signals().group_service_share.empty());
}

TEST(MeasuredCostModelTest, EnabledButEmptyPeriodFallsBack) {
  MeasuredCostModel model;
  const std::vector<double> modeled = {5.0, 5.0};
  LatencyPeriodStats empty;
  empty.EnableFor(1, 2);  // enabled, but nothing measured
  EXPECT_EQ(model.UpdateAndBlend(modeled, empty), modeled);
  EXPECT_FALSE(model.measured());
}

TEST(MeasuredCostModelTest, FallbackClearsStaleSignals) {
  MeasuredCostModel model;
  const std::vector<double> modeled = {10.0, 10.0};
  model.UpdateAndBlend(modeled, PeriodWithService({900.0, 100.0}));
  ASSERT_TRUE(model.measured());
  LatencyPeriodStats off;
  EXPECT_EQ(model.UpdateAndBlend(modeled, off), modeled);
  EXPECT_FALSE(model.measured());
  EXPECT_TRUE(model.signals().group_service_share.empty());
}

TEST(MeasuredCostModelTest, RedistributesBySharePreservingTotal) {
  MeasuredCostModel model;
  // Tuple counts say the groups are equal; the wall clock says group 0
  // costs 3x group 1.
  const std::vector<double> modeled = {50.0, 50.0};
  const std::vector<double> out =
      model.UpdateAndBlend(modeled, PeriodWithService({750.0, 250.0}));
  ASSERT_TRUE(model.measured());
  EXPECT_DOUBLE_EQ(out[0] + out[1], 100.0);
  EXPECT_DOUBLE_EQ(out[0], 75.0);
  EXPECT_DOUBLE_EQ(out[1], 25.0);
  EXPECT_DOUBLE_EQ(model.signals().group_service_share[0], 0.75);
}

TEST(MeasuredCostModelTest, SharesSmoothAcrossPeriods) {
  MeasuredCostModel model;
  const std::vector<double> modeled = {50.0, 50.0};
  model.UpdateAndBlend(modeled, PeriodWithService({1000.0, 0.0}));
  EXPECT_DOUBLE_EQ(model.signals().group_service_share[0], 1.0);
  // A one-period flip only moves the EWMA halfway.
  model.UpdateAndBlend(modeled, PeriodWithService({0.0, 1000.0}));
  EXPECT_DOUBLE_EQ(model.signals().group_service_share[0], 0.5);
  EXPECT_DOUBLE_EQ(model.signals().group_service_share[1], 0.5);
}

}  // namespace
}  // namespace albic::engine
