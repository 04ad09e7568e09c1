// Latency timeline bench: end-to-end tuple latency (p50/p99) measured by
// the engine's telemetry subsystem across a live state migration — the
// paper's headline trade-off, directly: a DIRECT migration pauses the
// group for O(state) while the serialized image travels, an INDIRECT
// migration (checkpoint restored in the background + replay of the logged
// suffix) pauses only for O(suffix), and a LEASE migration (the group's
// state slot stays put and only its owner flips, at FinishMigration)
// moves zero bytes outright. Every latency point is one the process timed;
// the pause is a model (kEnginePauseUsPerByte x the bytes rebuilt) and is
// reported apart, per mode. The lease run's self-checks: its pause is
// zero, engine_migration_bytes_total{mode="lease"} == 0, and its migration
// window's p99 sits within noise of steady state.
//
// The run is sliced into fixed-size windows; each slice's histograms are
// harvested and reported as a BENCH_JSON series (one line per slice and
// mode), plus summary metrics: the pause of each mode and its ratio, and
// each mode's peak p99 over the slices.
//
// A second scenario pits MEASURED-COST planning against tuple-count
// planning on a workload whose per-tuple wall cost is skewed by key group
// (uniform tuple counts, so modeled loads see nothing): the tuple-count
// controller leaves every hot group on one node, whose measured service
// exceeds the calibrated node capacity period after period, while the
// measured-cost controller spreads the groups by their measured service
// shares and clears the overload.
//
// A third scenario measures scale-out reaction time under a migration-cost
// budget: the default direct/indirect controller against the lease one.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/scaleout_scenario.h"
#include "bench/skew_scenario.h"
#include "common/table_printer.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic {
namespace {

constexpr int kNodes = 6;
constexpr int kGroups = 18;

struct SlicePoint {
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;
  int64_t samples = 0;
};

struct TimelineResult {
  std::vector<SlicePoint> slices;
  double pause_us = 0.0;        ///< Modeled migration pause.
  int64_t tuples_processed = 0;
  int64_t tuples_replayed = 0;  ///< Indirect mode: replayed log suffix.
  bool ok = false;
};

/// One run: stream the wiki pipeline slice by slice, migrate the heaviest
/// top-k group at the middle slice (buffering one chunk mid-migration, as
/// a live stream would), and harvest a latency point per slice.
TimelineResult RunTimeline(const std::vector<engine::Tuple>& stream,
                           int num_slices, engine::MigrationMode mode,
                           bool checkpointed, int sample_every) {
  TimelineResult out;
  engine::Topology topo;
  topo.AddOperator("geohash", kGroups, 1 << 16);
  topo.AddOperator("topk", kGroups, 1 << 18);
  if (!topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
           .ok()) {
    return out;
  }
  engine::Cluster cluster(kNodes);
  engine::Assignment assign(topo.num_key_groups());
  for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    assign.set_node(g, g % kNodes);
  }
  ops::GeoHashOperator geohash(kGroups, 1024);
  // The top-k is the sink: it receives every geohash emission, and its
  // per-article counts are the big migratable state.
  ops::WindowedTopKOperator topk(kGroups, 32);
  engine::LocalEngineOptions eopts;
  eopts.window_every_us = 0;  // state accumulates across the whole run
  eopts.latency_sample_every = sample_every;
  eopts.metrics = &bench::BenchRegistry();
  engine::LocalEngine engine(&topo, &cluster, assign, {&geohash, &topk},
                             eopts);

  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  if (checkpointed) {
    engine::CheckpointCoordinatorOptions copts;
    // Checkpoint rounds are forced at slice boundaries below instead of on
    // an event-time cadence: a deterministic phase keeps the replayed
    // suffix (and therefore the indirect pause) identical run to run.
    copts.interval_us = int64_t{1} << 60;
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&store, copts);
    if (!engine.EnableCheckpointing(coordinator.get()).ok()) return out;
  }

  // Harvests the running period into one timeline point.
  auto harvest = [&] {
    engine::EnginePeriodStats stats = engine.HarvestPeriod();
    const engine::LatencySummary s =
        engine::LatencySummary::FromPeriod(stats.latency);
    SlicePoint point;
    point.p50_us = s.e2e_p50_us;
    point.p99_us = s.e2e_p99_us;
    point.max_us = s.e2e_max_us;
    point.samples = s.e2e_count;
    out.slices.push_back(point);
    out.tuples_processed += stats.tuples_processed;
    out.tuples_replayed += stats.tuples_replayed;
  };

  const size_t slice_tuples = stream.size() / static_cast<size_t>(num_slices);
  const int migrate_slice = num_slices / 2;
  const engine::KeyGroupId group = topo.first_group(1);  // first top-k group
  size_t pos = 0;
  for (int s = 0; s < num_slices; ++s) {
    const size_t end =
        s + 1 == num_slices ? stream.size() : pos + slice_tuples;
    // Periodic checkpoint, paced at slice boundaries (deterministic phase).
    if (checkpointed && !coordinator->CheckpointNow(&engine).ok()) return out;
    if (s == migrate_slice) {
      // Live migration as its own timeline point. First stream one chunk
      // past the checkpoint so a realistic log suffix exists (an indirect
      // move replays it), then start the migration, keep streaming one
      // chunk (the tuples routed to the group buffer until the finish —
      // exactly the window a controller-applied move exposes to in-flight
      // traffic), finish, and harvest just that window as its own point.
      const size_t pre = std::min(end, pos + 8192);
      if (!engine.InjectBatch(0, stream.data() + pos, pre - pos).ok()) {
        return out;
      }
      engine.Flush();
      pos = pre;
      const engine::NodeId to =
          (engine.assignment().node_of(group) + 1) % kNodes;
      if (!engine.StartMigration(group, to, mode).ok()) return out;
      const size_t mid = std::min(end, pos + 8192);
      if (!engine.InjectBatch(0, stream.data() + pos, mid - pos).ok()) {
        return out;
      }
      engine.Flush();
      const Result<double> pause = engine.FinishMigration(group);
      if (!pause.ok()) return out;
      out.pause_us = *pause;
      pos = mid;
      engine.Flush();
      harvest();
    }
    if (end > pos &&
        !engine.InjectBatch(0, stream.data() + pos, end - pos).ok()) {
      return out;
    }
    pos = end;
    engine.Flush();
    harvest();
  }
  out.ok = true;
  return out;
}

std::vector<engine::Tuple> MakeStream(int tuples, int articles) {
  workload::WikipediaEditStream edits(articles, /*seed=*/7,
                                      /*rate_per_second=*/2000.0);
  std::vector<engine::Tuple> stream;
  stream.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) stream.push_back(edits.Next());
  return stream;
}

}  // namespace
}  // namespace albic

int main() {
  using albic::bench::BenchJson;
  using albic::bench::EnvInt;
  albic::bench::BenchObservabilityBegin();
  const int tuples = std::max(100000, EnvInt("ALBIC_BENCH_TUPLES", 1200000));
  // More distinct articles than the throughput bench: the migrated group's
  // state must dwarf the replay-log suffix for the O(state)-vs-O(suffix)
  // comparison to be representative of windowed production state.
  const int articles = EnvInt("ALBIC_BENCH_ARTICLES", 100000);
  const int slices = std::max(4, EnvInt("ALBIC_BENCH_SLICES", 16));
  const int sample_every = std::max(1, EnvInt("ALBIC_BENCH_SAMPLE_EVERY", 32));
  // Self-describing snapshot: effective knobs of this run (this bench does
  // not shard its source, so the shard knobs record as unused defaults).
  albic::bench::BenchMetaCommon(albic::bench::EnvInt("ALBIC_BENCH_SHARD_QUEUE", 0),
                                albic::bench::EnvInt("ALBIC_BENCH_SHARD_CHUNK", 0),
                                sample_every);
  albic::bench::BenchMetaInt("slices", slices);

  std::printf(
      "Latency timeline: wiki geohash -> top-k, %d tuples in %d slices, "
      "heaviest top-k group migrated at slice %d\n"
      "(measured end-to-end latency from sampled ingestion stamps; the "
      "modeled migration pause is reported apart)\n\n",
      tuples, slices, slices / 2);
  const std::vector<albic::engine::Tuple> stream =
      albic::MakeStream(tuples, articles);

  // Direct: O(state) pause. Indirect: checkpoint + replay, O(suffix) pause.
  // The direct run also carries checkpointing so the two pipelines do
  // identical logging work and the delta isolates the migration mode.
  const albic::TimelineResult direct =
      albic::RunTimeline(stream, slices, albic::engine::MigrationMode::kDirect,
                         /*checkpointed=*/true, sample_every);
  const albic::TimelineResult indirect = albic::RunTimeline(
      stream, slices, albic::engine::MigrationMode::kIndirect,
      /*checkpointed=*/true, sample_every);
  // Lease: the state slot never moves — the owner flips at FinishMigration
  // and that is the whole migration. Checkpointing stays on so the three
  // pipelines do identical logging work.
  const albic::TimelineResult lease = albic::RunTimeline(
      stream, slices, albic::engine::MigrationMode::kLease,
      /*checkpointed=*/true, sample_every);
  if (!direct.ok || !indirect.ok || !lease.ok) {
    std::fprintf(stderr, "FAIL: a timeline run errored\n");
    return 1;
  }
  if (direct.tuples_processed != indirect.tuples_processed ||
      direct.tuples_processed != lease.tuples_processed) {
    std::fprintf(stderr,
                 "FAIL: modes processed different tuple counts "
                 "(%lld vs %lld vs %lld)\n",
                 static_cast<long long>(direct.tuples_processed),
                 static_cast<long long>(indirect.tuples_processed),
                 static_cast<long long>(lease.tuples_processed));
    return 1;
  }
  if (indirect.tuples_replayed == 0) {
    std::fprintf(stderr,
                 "FAIL: the indirect run never replayed a log suffix\n");
    return 1;
  }

  // The timeline has one extra point: the migration window itself, right
  // before the remainder of its slice.
  const int mig_index = slices / 2;
  const int points = static_cast<int>(direct.slices.size());
  albic::TablePrinter table({"slice", "direct p50(us)", "direct p99(us)",
                             "indirect p50(us)", "indirect p99(us)",
                             "lease p50(us)", "lease p99(us)"});
  int64_t direct_peak = 0;
  int64_t indirect_peak = 0;
  int64_t lease_peak = 0;
  // Steady-state baseline for the zero-pause self-checks: the worst p99
  // the lease run shows OUTSIDE its migration window.
  int64_t lease_steady_max = 0;
  for (int s = 0; s < points; ++s) {
    const albic::SlicePoint& d = direct.slices[static_cast<size_t>(s)];
    const albic::SlicePoint& i = indirect.slices[static_cast<size_t>(s)];
    const albic::SlicePoint& l = lease.slices[static_cast<size_t>(s)];
    direct_peak = std::max(direct_peak, d.p99_us);
    indirect_peak = std::max(indirect_peak, i.p99_us);
    lease_peak = std::max(lease_peak, l.p99_us);
    if (s != mig_index) {
      lease_steady_max = std::max(lease_steady_max, l.p99_us);
    }
    table.AddDoubleRow({static_cast<double>(s), static_cast<double>(d.p50_us),
                        static_cast<double>(d.p99_us),
                        static_cast<double>(i.p50_us),
                        static_cast<double>(i.p99_us),
                        static_cast<double>(l.p50_us),
                        static_cast<double>(l.p99_us)},
                       0);
    char metric[48];
    const char* tag = s == mig_index ? "mig" : "s";
    const int label = s <= mig_index ? s : s - 1;
    std::snprintf(metric, sizeof(metric), "p50_us_direct_%s%02d", tag, label);
    BenchJson("latency", metric, static_cast<double>(d.p50_us), "us");
    std::snprintf(metric, sizeof(metric), "p99_us_direct_%s%02d", tag, label);
    BenchJson("latency", metric, static_cast<double>(d.p99_us), "us");
    std::snprintf(metric, sizeof(metric), "p50_us_indirect_%s%02d", tag,
                  label);
    BenchJson("latency", metric, static_cast<double>(i.p50_us), "us");
    std::snprintf(metric, sizeof(metric), "p99_us_indirect_%s%02d", tag,
                  label);
    BenchJson("latency", metric, static_cast<double>(i.p99_us), "us");
    std::snprintf(metric, sizeof(metric), "p50_us_lease_%s%02d", tag, label);
    BenchJson("latency", metric, static_cast<double>(l.p50_us), "us");
    std::snprintf(metric, sizeof(metric), "p99_us_lease_%s%02d", tag, label);
    BenchJson("latency", metric, static_cast<double>(l.p99_us), "us");
  }
  table.Print();
  const albic::SlicePoint& dmig = direct.slices[static_cast<size_t>(mig_index)];
  const albic::SlicePoint& imig =
      indirect.slices[static_cast<size_t>(mig_index)];
  const albic::SlicePoint& lmig =
      lease.slices[static_cast<size_t>(mig_index)];
  std::printf("(slice %d is the migration window: %lld latency samples, "
              "max %lld us direct / %lld us indirect / %lld us lease)\n",
              mig_index, static_cast<long long>(dmig.samples),
              static_cast<long long>(dmig.max_us),
              static_cast<long long>(imig.max_us),
              static_cast<long long>(lmig.max_us));

  std::printf(
      "\nmigration pause: direct %.2f ms (O(state)), indirect %.2f ms "
      "(O(suffix), %lld tuples replayed) -> %.1fx shorter\n"
      "peak p99: direct %.2f ms, indirect %.2f ms\n",
      direct.pause_us / 1000.0, indirect.pause_us / 1000.0,
      static_cast<long long>(indirect.tuples_replayed),
      indirect.pause_us > 0 ? direct.pause_us / indirect.pause_us : 0.0,
      static_cast<double>(direct_peak) / 1000.0,
      static_cast<double>(indirect_peak) / 1000.0);

  // The lease run's zero-copy claim, read back from the engine's metrics:
  // a lease migration happened, and the lease byte counter never moved.
  const int64_t lease_migrations =
      albic::bench::BenchRegistry()
          .Counter("engine_migrations_total", {{"mode", "lease"}})
          ->value();
  const int64_t lease_bytes =
      albic::bench::BenchRegistry()
          .Counter("engine_migration_bytes_total", {{"mode", "lease"}})
          ->value();
  std::printf(
      "lease: pause %.3f ms, %lld migrations, %lld bytes moved "
      "(peak p99 %.2f ms, steady-state max %.2f ms)\n",
      lease.pause_us / 1000.0, static_cast<long long>(lease_migrations),
      static_cast<long long>(lease_bytes),
      static_cast<double>(lease_peak) / 1000.0,
      static_cast<double>(lease_steady_max) / 1000.0);

  BenchJson("latency", "direct_pause_ms", direct.pause_us / 1000.0, "ms");
  BenchJson("latency", "indirect_pause_ms", indirect.pause_us / 1000.0, "ms");
  BenchJson("latency", "pause_ratio_direct_over_indirect",
            indirect.pause_us > 0 ? direct.pause_us / indirect.pause_us : 0.0,
            "x");
  BenchJson("latency", "peak_p99_direct_ms",
            static_cast<double>(direct_peak) / 1000.0, "ms");
  BenchJson("latency", "peak_p99_indirect_ms",
            static_cast<double>(indirect_peak) / 1000.0, "ms");
  BenchJson("latency", "lease_pause_ms", lease.pause_us / 1000.0, "ms");
  BenchJson("latency", "peak_p99_lease_ms",
            static_cast<double>(lease_peak) / 1000.0, "ms");
  BenchJson("latency", "lease_steady_p99_ms",
            static_cast<double>(lease_steady_max) / 1000.0, "ms");
  BenchJson("latency", "lease_migration_bytes",
            static_cast<double>(lease_bytes), "bytes");
  BenchJson("latency", "replayed_tuples",
            static_cast<double>(indirect.tuples_replayed), "tuples");

  // The trade-off must point the right way: the indirect pause is bounded
  // by the suffix, not the state.
  if (direct.pause_us <= indirect.pause_us) {
    std::fprintf(stderr,
                 "FAIL: indirect migration should pause less than direct\n");
    return 1;
  }
  // The lease mode's contract, all three legs: the accounted pause is
  // EXACTLY zero (not merely small — no byte ever enters the pause model),
  // the engine counted the migration but moved zero bytes for it, and the
  // migration window's p99 is indistinguishable from steady state.
  if (lease.pause_us != 0.0) {
    std::fprintf(stderr,
                 "FAIL: lease migration reported a nonzero pause "
                 "(%.3f us)\n",
                 lease.pause_us);
    return 1;
  }
  if (lease_migrations < 1) {
    std::fprintf(stderr,
                 "FAIL: the lease run never counted a lease migration\n");
    return 1;
  }
  if (lease_bytes != 0) {
    std::fprintf(stderr,
                 "FAIL: engine_migration_bytes_total{mode=\"lease\"} is "
                 "%lld, want 0 — a lease flip moved state\n",
                 static_cast<long long>(lease_bytes));
    return 1;
  }
  const double lease_noise_bound =
      std::max(4.0 * static_cast<double>(lease_steady_max),
               static_cast<double>(lease_steady_max) + 5000.0);
  if (static_cast<double>(lmig.p99_us) > lease_noise_bound) {
    std::fprintf(stderr,
                 "FAIL: lease migration window p99 (%lld us) is not within "
                 "noise of steady state (max %lld us, bound %.0f us)\n",
                 static_cast<long long>(lmig.p99_us),
                 static_cast<long long>(lease_steady_max), lease_noise_bound);
    return 1;
  }

  // --- Scenario 2: measured-cost vs. tuple-count planning ---------------
  albic::bench::SkewScenarioOptions sopts;
  sopts.hot_us = std::max(1, EnvInt("ALBIC_BENCH_SKEW_HOT_US", 40));
  sopts.tuples_per_group = std::max(10, EnvInt("ALBIC_BENCH_SKEW_TUPLES", 100));
  sopts.periods = std::max(4, EnvInt("ALBIC_BENCH_SKEW_PERIODS", 10));
  std::printf(
      "\nMeasured-cost planning: skewed per-tuple cost (3 hot groups x "
      "%lld us/tuple,\nuniform tuple counts, all hot groups start on one "
      "node), %d periods\n",
      static_cast<long long>(sopts.hot_us), sopts.periods);
  sopts.use_measured_costs = false;
  const albic::bench::SkewScenarioResult tuple_count =
      albic::bench::RunSkewScenario(sopts);
  sopts.use_measured_costs = true;
  const albic::bench::SkewScenarioResult measured =
      albic::bench::RunSkewScenario(sopts);
  if (!tuple_count.ok || !measured.ok) {
    std::fprintf(stderr, "FAIL: a skewed-planning run errored\n");
    return 1;
  }
  std::printf("(probe-calibrated node capacity: %.0f us of service per "
              "period)\n",
              measured.capacity_us);

  albic::TablePrinter skew_table(
      {"planning", "overloaded periods", "migrations (dir/ind)"});
  char mig_buf[32];
  std::snprintf(mig_buf, sizeof(mig_buf), "%d (%d/%d)", tuple_count.migrations,
                tuple_count.migrations_direct,
                tuple_count.migrations_indirect);
  skew_table.AddRow({"tuple-count",
                     std::to_string(tuple_count.overloaded_periods), mig_buf});
  std::snprintf(mig_buf, sizeof(mig_buf), "%d (%d/%d)", measured.migrations,
                measured.migrations_direct, measured.migrations_indirect);
  skew_table.AddRow({"measured-cost",
                     std::to_string(measured.overloaded_periods), mig_buf});
  skew_table.Print();
  if (measured.actual_pause_us > 0.0) {
    std::printf("measured-cost migrations: predicted pause %.0f us vs "
                "actual %.0f us (%.2fx)\n",
                measured.predicted_pause_us, measured.actual_pause_us,
                measured.predicted_pause_us / measured.actual_pause_us);
  }

  BenchJson("latency", "skew_tuplecount_overloaded_periods",
            tuple_count.overloaded_periods, "periods");
  BenchJson("latency", "skew_measured_overloaded_periods",
            measured.overloaded_periods, "periods");
  BenchJson("latency", "skew_measured_migrations_direct",
            measured.migrations_direct, "migrations");
  BenchJson("latency", "skew_measured_migrations_indirect",
            measured.migrations_indirect, "migrations");
  BenchJson("latency", "skew_measured_predicted_pause_ms",
            measured.predicted_pause_us / 1000.0, "ms");
  BenchJson("latency", "skew_measured_actual_pause_ms",
            measured.actual_pause_us / 1000.0, "ms");

  // Measured-cost planning must beat tuple-count planning on the skewed
  // workload: fewer overloaded periods.
  if (measured.overloaded_periods >= tuple_count.overloaded_periods) {
    std::fprintf(stderr,
                 "FAIL: measured-cost planning should suffer fewer "
                 "overloaded periods (%d vs %d)\n",
                 measured.overloaded_periods, tuple_count.overloaded_periods);
    return 1;
  }

  // --- Scenario 3: scale-out reaction time, budgeted vs. lease -----------
  // A load spike lands on one node, and the rebalancer runs under a
  // finite migration-cost budget sized to one group's mck per round. The
  // default controller's direct/indirect moves carry their full O(state)
  // mck in the snapshot, so absorbing the spike is rationed over several
  // statistics periods; the lease controller's moves are zero-cost (the
  // snapshot builder zeroes lease-available groups' mck), so the same
  // planner absorbs the whole spike in one period.
  albic::bench::ScaleOutScenarioOptions xopts;
  const albic::bench::ScaleOutScenarioResult budgeted =
      albic::bench::RunScaleOutScenario(xopts);
  xopts.use_lease_migration = true;
  const albic::bench::ScaleOutScenarioResult lease_scale =
      albic::bench::RunScaleOutScenario(xopts);
  if (!budgeted.ok || !lease_scale.ok) {
    std::fprintf(stderr, "FAIL: a scale-out reaction run errored\n");
    return 1;
  }
  std::printf(
      "\nScale-out reaction (budgeted rebalance, spike on one node):\n"
      "  budgeted: %d reaction periods, %d migrations (%d direct / "
      "%d indirect), final distance %.2f\n"
      "  lease:    %d reaction periods, %d migrations (%d lease), "
      "final distance %.2f\n",
      budgeted.reaction_periods, budgeted.migrations,
      budgeted.migrations_direct, budgeted.migrations_indirect,
      budgeted.final_load_distance, lease_scale.reaction_periods,
      lease_scale.migrations, lease_scale.migrations_lease,
      lease_scale.final_load_distance);

  BenchJson("latency", "scaleout_budgeted_reaction_periods",
            budgeted.reaction_periods, "periods");
  BenchJson("latency", "scaleout_lease_reaction_periods",
            lease_scale.reaction_periods, "periods");
  BenchJson("latency", "scaleout_budgeted_migrations", budgeted.migrations,
            "migrations");
  BenchJson("latency", "scaleout_lease_migrations", lease_scale.migrations,
            "migrations");
  BenchJson("latency", "scaleout_lease_pause_ms",
            lease_scale.total_pause_us / 1000.0, "ms");

  // The reaction claim, both directions: the lease controller absorbs the
  // spike in ONE statistics period, the budgeted default controller needs
  // several — and both settle (no residual migrations in the last round).
  if (lease_scale.pre_spike_migrations != 0 ||
      budgeted.pre_spike_migrations != 0) {
    std::fprintf(stderr,
                 "FAIL: a balanced warmup period triggered migrations "
                 "(budgeted %d, lease %d)\n",
                 budgeted.pre_spike_migrations,
                 lease_scale.pre_spike_migrations);
    return 1;
  }
  if (lease_scale.reaction_periods != 1) {
    std::fprintf(stderr,
                 "FAIL: lease controller should absorb the spike in one "
                 "period, took %d\n",
                 lease_scale.reaction_periods);
    return 1;
  }
  if (budgeted.reaction_periods < 2) {
    std::fprintf(stderr,
                 "FAIL: budgeted default controller should need several "
                 "periods, took %d\n",
                 budgeted.reaction_periods);
    return 1;
  }
  if (lease_scale.last_round_migrations != 0 ||
      budgeted.last_round_migrations != 0) {
    std::fprintf(stderr, "FAIL: a scale-out run never settled\n");
    return 1;
  }
  if (lease_scale.migrations_lease != lease_scale.migrations) {
    std::fprintf(stderr,
                 "FAIL: lease controller applied non-lease migrations "
                 "(%d of %d)\n",
                 lease_scale.migrations - lease_scale.migrations_lease,
                 lease_scale.migrations);
    return 1;
  }
  if (lease_scale.total_pause_us != 0.0) {
    std::fprintf(stderr,
                 "FAIL: lease scale-out accounted a migration pause "
                 "(%.3f us)\n",
                 lease_scale.total_pause_us);
    return 1;
  }
  albic::bench::BenchObservabilityFinish();
  return 0;
}
