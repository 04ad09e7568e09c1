// SloTriggerPolicy edge cases: the minimum-sample guard, check pacing,
// cooldown suppression, exponential backoff growth and its reset after a
// healthy check, and the interaction between SLO rounds and the
// statistics-period cadence (a triggered round restarts the period).

#include "core/slo_policy.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "core/controller_loop.h"
#include "engine/load_model.h"
#include "ops/aggregate.h"

namespace albic::core {
namespace {

engine::LatencySummary Latency(int64_t p99_us, int64_t samples) {
  engine::LatencySummary s;
  s.e2e_count = samples;
  s.e2e_p50_us = p99_us / 2;
  s.e2e_p99_us = p99_us;
  s.e2e_max_us = p99_us;
  return s;
}

SloTriggerOptions BaseOptions() {
  SloTriggerOptions options;
  options.p99_bound_us = 1000;
  options.min_samples = 32;
  options.check_every_us = 10 * 1000;
  options.cooldown_us = 100 * 1000;
  options.backoff_factor = 2.0;
  options.max_cooldown_us = 400 * 1000;
  return options;
}

TEST(SloTriggerPolicyTest, DisabledNeverWantsChecks) {
  SloTriggerPolicy policy{SloTriggerOptions{}};  // p99_bound_us = 0
  EXPECT_FALSE(policy.enabled());
  EXPECT_FALSE(policy.WantsCheck(0));
  EXPECT_FALSE(policy.ShouldTrigger(0, Latency(10000, 1000)));
}

TEST(SloTriggerPolicyTest, MinSamplesGuardSuppressesColdStartBreach) {
  SloTriggerPolicy policy(BaseOptions());
  // A huge p99 from too few observations must not trigger...
  EXPECT_FALSE(policy.ShouldTrigger(0, Latency(50000, 31)));
  // ...and the guard consumed the check, so pacing delays the next one.
  EXPECT_FALSE(policy.WantsCheck(5 * 1000));
  // At the next paced check, enough samples do trigger.
  EXPECT_TRUE(policy.ShouldTrigger(10 * 1000, Latency(50000, 32)));
}

TEST(SloTriggerPolicyTest, CheckPacingSkipsBetweenEvaluations) {
  SloTriggerPolicy policy(BaseOptions());
  EXPECT_TRUE(policy.WantsCheck(0));  // first check is always due
  EXPECT_FALSE(policy.ShouldTrigger(0, Latency(100, 1000)));  // healthy
  EXPECT_FALSE(policy.WantsCheck(9999));
  EXPECT_TRUE(policy.WantsCheck(10 * 1000));
}

TEST(SloTriggerPolicyTest, CooldownSuppressesAndBackoffGrows) {
  SloTriggerPolicy policy(BaseOptions());
  ASSERT_TRUE(policy.ShouldTrigger(0, Latency(5000, 1000)));
  policy.OnTriggeredRound(0);
  EXPECT_EQ(policy.triggered_rounds(), 1);
  // Backoff applied for the NEXT cooldown: 100 ms -> 200 ms.
  EXPECT_EQ(policy.current_cooldown_us(), 200 * 1000);

  // A persistent breach inside the cooldown window cannot re-trigger.
  EXPECT_FALSE(policy.ShouldTrigger(50 * 1000, Latency(5000, 1000)));
  // Past the cooldown it can, and the cooldown doubles again.
  ASSERT_TRUE(policy.ShouldTrigger(110 * 1000, Latency(5000, 1000)));
  policy.OnTriggeredRound(110 * 1000);
  EXPECT_EQ(policy.current_cooldown_us(), 400 * 1000);

  // The cap binds: a further round cannot exceed max_cooldown_us.
  ASSERT_TRUE(policy.ShouldTrigger(600 * 1000, Latency(5000, 1000)));
  policy.OnTriggeredRound(600 * 1000);
  EXPECT_EQ(policy.current_cooldown_us(), 400 * 1000);
}

TEST(SloTriggerPolicyTest, HealthyCheckResetsBackoffToBase) {
  SloTriggerPolicy policy(BaseOptions());
  ASSERT_TRUE(policy.ShouldTrigger(0, Latency(5000, 1000)));
  policy.OnTriggeredRound(0);
  ASSERT_TRUE(policy.ShouldTrigger(210 * 1000, Latency(5000, 1000)));
  policy.OnTriggeredRound(210 * 1000);
  ASSERT_GT(policy.current_cooldown_us(), BaseOptions().cooldown_us);

  // A quiet period: the p99 drops back under the bound. One healthy check
  // resets the escalated cooldown to its base value.
  EXPECT_FALSE(policy.ShouldTrigger(1000 * 1000, Latency(100, 1000)));
  EXPECT_EQ(policy.current_cooldown_us(), BaseOptions().cooldown_us);
}

/// A terminal operator whose batches cost ~1 ms of wall time each, so any
/// microsecond-scale p99 bound is breached deterministically.
class SlowSinkOperator : public engine::StreamOperator {
 public:
  void Process(const engine::Tuple&, int, engine::Emitter*) override {
    Spin();
  }
  void ProcessBatch(const engine::TupleBatch&, int,
                    engine::Emitter*) override {
    Spin();
  }

 private:
  static void Spin() {
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(1);
    while (std::chrono::steady_clock::now() < end) {
    }
  }
};

TEST(SloTriggerPolicyTest, SloRoundRestartsPeriodCadence) {
  // An SLO round measures a partial period; the controller restarts the
  // cadence at the trigger instant so the next boundary round gets a full
  // period again — a boundary must NOT fire at the original schedule
  // right after a triggered round.
  constexpr int kGroups = 8;
  engine::Topology topo;
  topo.AddOperator("slow", kGroups, 1 << 10);
  engine::Cluster cluster(2);
  engine::Assignment assign(kGroups);
  for (engine::KeyGroupId g = 0; g < kGroups; ++g) assign.set_node(g, g % 2);
  SlowSinkOperator slow;
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;
  eopts.max_batch_tuples = 64;
  eopts.latency_sample_every = 16;
  engine::LocalEngine engine(&topo, &cluster, assign,
                             std::vector<engine::StreamOperator*>{&slow},
                             eopts);
  balance::MilpRebalancerOptions mopts;
  mopts.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
  mopts.time_budget_ms = 5;
  balance::MilpRebalancer rebalancer(mopts);
  AdaptationFramework framework(&rebalancer, /*policy=*/nullptr, {});
  engine::LoadModel load_model{engine::CostModel{}};

  ControllerLoopOptions copts;
  copts.period_every_us = 500 * 1000;  // 0.5 s boundary cadence
  copts.node_capacity_work_units = 100.0;
  copts.use_comm = false;
  copts.slo.p99_bound_us = 100;
  copts.slo.min_samples = 4;
  copts.slo.check_every_us = 10 * 1000;
  // One trigger only: a cooldown longer than the stream isolates the
  // cadence interaction from repeat triggers.
  copts.slo.cooldown_us = 3600LL * 1000 * 1000;
  ControllerLoop controller(&engine, &framework, &load_model, &topo,
                            &cluster, copts);

  // 1 s of event time in 100-tuple chunks (0.5 ms per tuple).
  std::vector<engine::Tuple> chunk;
  int64_t last_ts = 0;
  for (int c = 0; c < 20; ++c) {
    chunk.clear();
    for (int i = 0; i < 100; ++i) {
      engine::Tuple t;
      t.key = static_cast<uint64_t>(i);
      t.ts = (c * 100 + i) * 500;
      last_ts = t.ts;
      chunk.push_back(t);
    }
    ASSERT_TRUE(controller.IngestBatch(0, chunk.data(), chunk.size()).ok());
  }

  const std::vector<ControllerRound>& history = controller.history();
  ASSERT_EQ(controller.rounds_run(), 2);
  ASSERT_TRUE(history[0].slo_triggered);
  EXPECT_FALSE(history[1].slo_triggered);
  EXPECT_EQ(controller.slo_policy().triggered_rounds(), 1);
  // The trigger fired at ~0.05 s (the first chunk's end) and restarted the
  // period cadence there, so the following boundary round measured a FULL
  // 0.5 s period: ~1000 of the 0.5 ms-spaced tuples. Had the cadence kept
  // its original anchor (first tuple, ts 0), the boundary would have fired
  // at 0.5 s and measured only ~900 tuples.
  EXPECT_GE(history[1].tuples_processed, 950);
  EXPECT_LE(history[1].tuples_processed, 1050);
  EXPECT_GT(last_ts, 500 * 1000);
}

}  // namespace
}  // namespace albic::core
