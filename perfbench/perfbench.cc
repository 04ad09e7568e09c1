// perfbench: the repository benchmark harness (built and run by
// perfbench/run.py). Drives one workload through the live engine
// (LocalEngine, batched runtime, checkpointing on) under the online
// controller (ControllerLoop: harvest -> plan -> migrate once per statistics
// period) as a closed loop of fixed-size chunks for a wall-clock window, then
// checks the job's outputs against values recomputed from the input.
//
//   perfbench --workload steady|shift|collocate --seed N --seconds S
//             --trace 0|1
//
// Progress goes to stderr; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 nothing
// inside the engine is instrumented and the metrics are the end-to-end ones;
// with --trace 1 the engine runs with wave-phase profiling and latency
// telemetry and the metrics are the per-layer breakdown.
//
// The client is a closed loop: chunk i+1 is sent when chunk i has been
// processed through the whole DAG (InjectBatch + Flush). A chunk's latency
// runs from the moment it is due until it is processed, so the first chunk
// of every period also waits for that period's controller round (harvest,
// plan, migrations) — reconfiguration stalls show up in the tail.
// Throughput and chunk latency are reported over the fastest repetitions of
// each position in the replayed input cycle (see Main), so a busy host moves
// them less.
//
// Workloads (the input is generated from --seed alone; same seed, same
// tuples) and why each exists:
//  steady    Real Job 1 (GeoHash -> windowed TopK -> global TopK) over a
//            Zipf article stream at stationary load. The controller runs
//            every period but its moves are lease flips (zero bytes), so the
//            data path — ingest, service, window fires, checkpoints —
//            dominates. Predicted unchanged by migration/planner changes.
//  shift     keyed running sum -> store whose hot key groups jump every
//            four periods. The controller must move state to follow the
//            load (direct or indirect migrations, chosen by cost), so the
//            migration and checkpoint/replay layers are on the hot path.
//  collocate keyed running sum -> store over a one-to-one edge, started
//            with every (sum, store) pair split across nodes; ALBIC
//            collocates the pairs while balancing a drifting Zipf load, so
//            the planning layer (graph partitioning + MILP search)
//            dominates the control plane.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "balance/milp_rebalancer.h"
#include "balance/rebalancer.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "core/adaptation_framework.h"
#include "core/albic.h"
#include "core/controller_loop.h"
#include "engine/checkpoint.h"
#include "engine/load_model.h"
#include "engine/local_engine.h"
#include "ops/aggregate.h"
#include "ops/geohash.h"
#include "ops/store.h"
#include "ops/topk.h"

namespace albic::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One statistics period — and one window — of event time.
constexpr int64_t kPeriodUs = 1000000;
constexpr int kTuplesPerPeriod = 65536;
constexpr int kChunksPerPeriod = 16;
constexpr int kChunkTuples = kTuplesPerPeriod / kChunksPerPeriod;
// The generated input covers this many periods and is replayed cyclically,
// shifted forward in event time, for as long as the run lasts.
constexpr int kCyclePeriods = 16;
constexpr int64_t kChunksPerCycle = int64_t{kCyclePeriods} * kChunksPerPeriod;
// Set-up is repeated every this many cycles of the measurement and its median
// reported, so one slow allocation or page-fault burst does not decide the
// figure (a 30 s run sets up ~16 times).
constexpr int kSetupEveryCycles = 16;
// Periods ingested during set-up, before the first controller round.
constexpr int kWarmupPeriods = 2;
// Repetitions kept per replay-cycle position for throughput and latency;
// 256 positions x 8 leaves ~20 samples above the p99.
constexpr int kFastestRepeats = 8;

// Workload shapes.
constexpr int kArticles = 20000;   // steady: distinct Wikipedia articles
constexpr int kKeys = 16384;       // shift / collocate: distinct keys
constexpr int kKeyedGroups = 16;   // shift / collocate: groups per operator
constexpr int kEpochPeriods = 4;   // shift / collocate: load pattern lifetime
constexpr int kHotGroups = 4;      // shift: hot key groups per epoch
constexpr double kHotShare = 0.6;  // shift: share of tuples on the hot groups

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// One replay cycle of the workload's tuple stream, event times from 0.
struct Input {
  std::vector<engine::Tuple> cycle;

  /// Copies chunk \p c of the endless replay into \p out: the cycle's chunk,
  /// shifted by whole cycles of event time.
  void Chunk(int64_t c, engine::Tuple* out) const {
    const int64_t offset =
        (c / kChunksPerCycle) * int64_t{kCyclePeriods} * kPeriodUs;
    const engine::Tuple* src =
        cycle.data() + (c % kChunksPerCycle) * kChunkTuples;
    for (int i = 0; i < kChunkTuples; ++i) {
      out[i] = src[i];
      out[i].ts += offset;
    }
  }
};

/// Evenly spaced event times: tuple \p i of period \p period.
int64_t TsOf(int period, int i) {
  return int64_t{period} * kPeriodUs +
         int64_t{i} * kPeriodUs / kTuplesPerPeriod;
}

/// steady: Zipf(0.8) article popularity, as the Wikipedia edit stream; the
/// rank -> article mapping is a seeded permutation so the hot articles land
/// in different key groups per seed. Article ids start at 1 (the TopK
/// operators read aux == 0 as "no id").
Input MakeSteadyInput(uint64_t seed) {
  Rng rng(seed);
  const ZipfSampler zipf(kArticles, 0.8);
  std::vector<uint64_t> ids(kArticles);
  std::iota(ids.begin(), ids.end(), uint64_t{1});
  rng.Shuffle(&ids);
  Input in;
  in.cycle.reserve(static_cast<size_t>(kCyclePeriods) * kTuplesPerPeriod);
  for (int p = 0; p < kCyclePeriods; ++p) {
    for (int i = 0; i < kTuplesPerPeriod; ++i) {
      engine::Tuple t;
      t.key = ids[zipf.Sample(&rng)];
      t.ts = TsOf(p, i);
      t.num = 1.0;
      in.cycle.push_back(t);
    }
  }
  return in;
}

/// shift: every kEpochPeriods periods a fresh seeded set of kHotGroups key
/// groups receives kHotShare of the tuples; the rest is uniform over all
/// keys. Integral values keep every running sum exact in a double.
Input MakeShiftInput(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<uint64_t>> keys_of(kKeyedGroups);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    keys_of[engine::LocalEngine::RouteKey(k, kKeyedGroups)].push_back(k);
  }
  std::vector<int> order(kKeyedGroups);
  std::iota(order.begin(), order.end(), 0);
  Input in;
  in.cycle.reserve(static_cast<size_t>(kCyclePeriods) * kTuplesPerPeriod);
  for (int p = 0; p < kCyclePeriods; ++p) {
    if (p % kEpochPeriods == 0) rng.Shuffle(&order);
    for (int i = 0; i < kTuplesPerPeriod; ++i) {
      engine::Tuple t;
      if (rng.Bernoulli(kHotShare)) {
        const std::vector<uint64_t>& keys =
            keys_of[order[rng.Index(kHotGroups)]];
        t.key = keys[rng.Index(keys.size())];
      } else {
        t.key = 1 + rng.Index(kKeys);
      }
      t.ts = TsOf(p, i);
      t.num = static_cast<double>(rng.UniformInt(1, 4));
      in.cycle.push_back(t);
    }
  }
  return in;
}

/// collocate: Zipf(0.8) key popularity whose rank -> key mapping is
/// reshuffled every kEpochPeriods periods, so group loads drift and the
/// planner must keep rebalancing while it collocates.
Input MakeCollocateInput(uint64_t seed) {
  Rng rng(seed);
  const ZipfSampler zipf(kKeys, 0.8);
  std::vector<uint64_t> ids(kKeys);
  std::iota(ids.begin(), ids.end(), uint64_t{1});
  Input in;
  in.cycle.reserve(static_cast<size_t>(kCyclePeriods) * kTuplesPerPeriod);
  for (int p = 0; p < kCyclePeriods; ++p) {
    if (p % kEpochPeriods == 0) rng.Shuffle(&ids);
    for (int i = 0; i < kTuplesPerPeriod; ++i) {
      engine::Tuple t;
      t.key = ids[zipf.Sample(&rng)];
      t.ts = TsOf(p, i);
      t.num = static_cast<double>(rng.UniformInt(1, 4));
      in.cycle.push_back(t);
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// The job under test
// ---------------------------------------------------------------------------

/// Times every planner invocation: the harness's own span around the call
/// into the planning layer (the engine's profiler does not reach it).
class TimedRebalancer final : public balance::Rebalancer {
 public:
  explicit TimedRebalancer(std::unique_ptr<balance::Rebalancer> inner)
      : inner_(std::move(inner)) {}

  Result<balance::RebalancePlan> ComputePlan(
      const engine::SystemSnapshot& snapshot,
      const balance::RebalanceConstraints& constraints) override {
    const Clock::time_point t0 = Clock::now();
    Result<balance::RebalancePlan> plan =
        inner_->ComputePlan(snapshot, constraints);
    plan_ms_.push_back(1e3 * SecondsSince(t0));
    return plan;
  }
  std::string name() const override { return inner_->name(); }

  const std::vector<double>& plan_ms() const { return plan_ms_; }

 private:
  std::unique_ptr<balance::Rebalancer> inner_;
  std::vector<double> plan_ms_;
};

/// Everything one deployment of a workload owns. Members are destroyed in
/// reverse order: the controller first, the operators and topology the
/// engine points at last.
struct Job {
  engine::Topology topo;
  engine::Cluster cluster;
  std::vector<std::unique_ptr<engine::StreamOperator>> ops;
  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> checkpoints;
  std::unique_ptr<engine::LocalEngine> engine;
  std::unique_ptr<TimedRebalancer> planner;
  std::unique_ptr<engine::LoadModel> load_model;
  std::unique_ptr<core::AdaptationFramework> framework;
  std::unique_ptr<core::ControllerLoop> controller;
  // Typed views of ops for the output checks (null where unused).
  ops::GeoHashOperator* geohash = nullptr;
  ops::WindowedTopKOperator* global_topk = nullptr;
  ops::SumByKeyOperator* sum = nullptr;
  ops::StoreSinkOperator* sink = nullptr;
};

template <typename Op, typename... A>
Op* AddOp(Job* job, A&&... args) {
  auto op = std::make_unique<Op>(std::forward<A>(args)...);
  Op* raw = op.get();
  job->ops.push_back(std::move(op));
  return raw;
}

std::unique_ptr<balance::Rebalancer> MilpPlanner() {
  balance::MilpRebalancerOptions mopts;
  mopts.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
  mopts.time_budget_ms = 2;
  return std::make_unique<balance::MilpRebalancer>(mopts);
}

/// Builds (does not run) the workload's job. Returns null on a wiring error.
std::unique_ptr<Job> BuildJob(const std::string& workload, bool traced) {
  auto job = std::make_unique<Job>();
  engine::LocalEngineOptions eopts;
  eopts.mode = engine::ExecutionMode::kBatched;
  eopts.num_workers = 1;
  eopts.window_every_us = kPeriodUs;
  eopts.max_batch_tuples = kChunkTuples;
  if (traced) {
    eopts.profile_wave_phases = true;
    eopts.latency_sample_every = 64;
  }
  core::AdaptationOptions aopts;
  aopts.constraints.max_migrations = 4;
  core::ControllerLoopOptions copts;
  copts.period_every_us = 0;  // the harness runs one round per period
  // Telemetry is on in traced runs only; it must not steer the plans, or
  // traced and untraced runs would execute different schedules.
  copts.use_measured_costs = false;
  engine::CostModel cost;
  std::unique_ptr<balance::Rebalancer> planner;
  int nodes = 0;

  if (workload == "steady") {
    constexpr int kGroups = 18;
    nodes = 6;
    job->topo.AddOperator("geohash", kGroups, 1 << 16);
    job->topo.AddOperator("topk", kGroups, 1 << 18);
    job->topo.AddOperator("global-topk", kGroups, 1 << 16);
    const auto full = engine::PartitioningPattern::kFullPartitioning;
    if (!job->topo.AddStream(0, 1, full).ok() ||
        !job->topo.AddStream(1, 2, full).ok()) {
      return nullptr;
    }
    job->geohash = AddOp<ops::GeoHashOperator>(job.get(), kGroups, 1024);
    AddOp<ops::WindowedTopKOperator>(job.get(), kGroups, 32);
    job->global_topk = AddOp<ops::WindowedTopKOperator>(
        job.get(), kGroups, 32, ops::TopKCountMode::kSumNum);
    eopts.serde_cost = 0.3;
    planner = MilpPlanner();
    copts.use_comm = true;
    copts.use_lease_migration = true;
  } else {
    const bool collocate = workload == "collocate";
    nodes = 4;
    job->topo.AddOperator("sum", kKeyedGroups, 1 << 16);
    job->topo.AddOperator("store", kKeyedGroups, 1 << 16);
    if (!job->topo
             .AddStream(0, 1,
                        collocate
                            ? engine::PartitioningPattern::kOneToOne
                            : engine::PartitioningPattern::kFullPartitioning)
             .ok()) {
      return nullptr;
    }
    job->sum = AddOp<ops::SumByKeyOperator>(job.get(), kKeyedGroups,
                                            ops::GroupField::kKey);
    job->sink = AddOp<ops::StoreSinkOperator>(job.get(), kKeyedGroups);
    copts.use_comm = collocate;
    if (collocate) {
      core::AlbicOptions albic_opts;
      albic_opts.milp.mode = balance::MilpRebalancerOptions::Mode::kHeuristic;
      albic_opts.milp.time_budget_ms = 2;
      planner = std::make_unique<core::Albic>(albic_opts);
    } else {
      planner = MilpPlanner();
    }
  }

  // Two charged hops per source tuple; size nodes to ~60% mean load.
  copts.node_capacity_work_units =
      2.0 * kTuplesPerPeriod / static_cast<double>(nodes) / 0.6;
  if (workload == "collocate") {
    // Cross-node traffic costs CPU at both endpoints: at zero collocation
    // serialization adds ~45% on top of processing, the regime where
    // collocation pays (as in bench/albic_cola_common.h).
    cost.serde_cpu_per_rate = 45.0 / copts.node_capacity_work_units;
  }

  job->cluster = engine::Cluster(nodes);
  engine::Assignment assign(job->topo.num_key_groups());
  for (engine::KeyGroupId g = 0; g < job->topo.num_key_groups(); ++g) {
    const int op = job->topo.group_operator(g);
    const int index = job->topo.group_index_in_operator(g);
    // collocate starts with every (sum i, store i) pair on different nodes.
    const int skew = workload == "collocate" ? op : 0;
    assign.set_node(g, (index + skew) % nodes);
  }
  std::vector<engine::StreamOperator*> op_ptrs;
  for (const auto& op : job->ops) op_ptrs.push_back(op.get());
  job->engine = std::make_unique<engine::LocalEngine>(
      &job->topo, &job->cluster, assign, op_ptrs, eopts);

  engine::CheckpointCoordinatorOptions ckopts;
  ckopts.interval_us = kPeriodUs;
  job->checkpoints =
      std::make_unique<engine::CheckpointCoordinator>(&job->store, ckopts);
  if (!job->engine->EnableCheckpointing(job->checkpoints.get()).ok()) {
    return nullptr;
  }

  job->planner = std::make_unique<TimedRebalancer>(std::move(planner));
  job->load_model = std::make_unique<engine::LoadModel>(cost);
  job->framework = std::make_unique<core::AdaptationFramework>(
      job->planner.get(), /*policy=*/nullptr, aopts);
  job->controller = std::make_unique<core::ControllerLoop>(
      job->engine.get(), job->framework.get(), job->load_model.get(),
      &job->topo, &job->cluster, copts);
  return job;
}

/// One chunk through the job: ingest, then wait until the DAG drained it.
Status SendChunk(Job* job, const Input& in, int64_t c,
                 std::vector<engine::Tuple>* buf) {
  in.Chunk(c, buf->data());
  const Status st = job->controller->IngestBatch(0, buf->data(), buf->size());
  job->engine->Flush();
  return st;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// steady: every article the global TopK reported for the last closed window
/// carries exactly its true edit count in that window, and the five largest
/// reported counts are the window's true five largest. (Each article maps to
/// one geohash cell, so a cell's TopK count of it is exact.)
bool CheckSteady(const Job& job, const Input& in, int64_t chunks,
                 std::string* why) {
  const int64_t tuples = chunks * kChunkTuples;
  int64_t geo = 0;
  for (int g = 0; g < job.topo.op(0).num_key_groups; ++g) {
    geo += job.geohash->processed(g);
  }
  if (geo != tuples) {
    *why = "geohash processed " + std::to_string(geo) + " of " +
           std::to_string(tuples) + " tuples";
    return false;
  }
  // Windows close when the first tuple of the next period arrives, so the
  // last closed window is the period before the last one ingested.
  const int64_t last_period = chunks / kChunksPerPeriod - 1;
  if (last_period < 1) {
    *why = "run too short to close a window";
    return false;
  }
  const int64_t window = (last_period - 1) % kCyclePeriods;
  std::vector<int64_t> truth(kArticles + 1, 0);
  const engine::Tuple* slice =
      in.cycle.data() + window * int64_t{kTuplesPerPeriod};
  for (int i = 0; i < kTuplesPerPeriod; ++i) ++truth[slice[i].key];
  std::vector<int64_t> reported;
  for (int g = 0; g < job.topo.op(2).num_key_groups; ++g) {
    for (const auto& [id, count] : job.global_topk->last_window_top(g)) {
      if (id < 1 || id > static_cast<uint64_t>(kArticles) ||
          truth[id] != count) {
        *why = "article " + std::to_string(id) + " reported with count " +
               std::to_string(count);
        return false;
      }
      reported.push_back(count);
    }
  }
  std::sort(reported.rbegin(), reported.rend());
  std::sort(truth.rbegin(), truth.rend());
  if (reported.size() < 5 ||
      !std::equal(truth.begin(), truth.begin() + 5, reported.begin())) {
    *why = "global top-5 counts differ from the window's true top 5";
    return false;
  }
  return true;
}

/// shift / collocate: every key's running sum, and the value the store
/// holds for it, equal the sum of its values over everything ingested; every
/// store group flushed once per closed window; every tuple was processed
/// exactly once per operator.
bool CheckKeyed(const Job& job, const Input& in, int64_t chunks,
                int64_t processed, std::string* why) {
  const int64_t tuples = chunks * kChunkTuples;
  if (processed != 2 * tuples) {
    *why = "processed " + std::to_string(processed) + " deliveries for " +
           std::to_string(tuples) + " tuples over two operators";
    return false;
  }
  const int64_t cycle_len = static_cast<int64_t>(in.cycle.size());
  const int64_t full = tuples / cycle_len;
  const int64_t rest = tuples % cycle_len;
  std::vector<int64_t> truth(kKeys + 1, 0);
  for (int64_t i = 0; i < cycle_len; ++i) {
    const engine::Tuple& t = in.cycle[static_cast<size_t>(i)];
    truth[t.key] += static_cast<int64_t>(t.num) * (full + (i < rest ? 1 : 0));
  }
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (truth[k] == 0) continue;
    const int g = engine::LocalEngine::RouteKey(k, kKeyedGroups);
    const double want = static_cast<double>(truth[k]);
    if (job.sum->SumFor(g, k) != want || job.sink->ValueFor(g, k) != want) {
      *why = "key " + std::to_string(k) + ": sum " +
             std::to_string(job.sum->SumFor(g, k)) + ", store " +
             std::to_string(job.sink->ValueFor(g, k)) + ", expected " +
             std::to_string(truth[k]);
      return false;
    }
  }
  const int64_t windows = chunks / kChunksPerPeriod - 1;
  for (int g = 0; g < kKeyedGroups; ++g) {
    if (job.sink->flushes(g) != windows) {
      *why = "store group " + std::to_string(g) + " flushed " +
             std::to_string(job.sink->flushes(g)) + " times, expected " +
             std::to_string(windows);
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Mean of a sample; 0 when empty. The per-round p99s are log-bucketed, so
/// their mean resolves changes that their median would round away.
double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload &&
         (args->workload == "steady" || args->workload == "shift" ||
          args->workload == "collocate");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload steady|shift|collocate --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  const Input in = args.workload == "steady" ? MakeSteadyInput(args.seed)
                   : args.workload == "shift" ? MakeShiftInput(args.seed)
                                              : MakeCollocateInput(args.seed);

  // Set-up: deploy the job and run the warm-up periods (state tables grow,
  // buffer pools fill, the first checkpoints are written). Timed here for
  // the job that is measured, and again for a throwaway deployment every
  // kSetupEveryCycles cycles of the measurement, so the reported median
  // spans the same stretch of host time as the other figures.
  std::vector<engine::Tuple> buf(kChunkTuples);
  std::vector<double> setup_s;
  const auto set_up = [&]() -> std::unique_ptr<Job> {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Job> deployed = BuildJob(args.workload, args.trace);
    if (deployed == nullptr) {
      std::fprintf(stderr, "perfbench: building the %s job failed\n",
                   args.workload.c_str());
      return nullptr;
    }
    for (int64_t c = 0; c < kWarmupPeriods * kChunksPerPeriod; ++c) {
      const Status st = SendChunk(deployed.get(), in, c, &buf);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: warm-up failed: %s\n",
                     st.ToString().c_str());
        return nullptr;
      }
    }
    setup_s.push_back(SecondsSince(t0));
    return deployed;
  };
  const std::unique_ptr<Job> job = set_up();
  if (job == nullptr) return 1;

  // Measurement: closed loop over chunks; a controller round opens every
  // period. The loop stops on a cycle boundary (which is also a period
  // boundary, so the tail harvest below covers one whole period).
  std::vector<double> latency_ms;
  std::vector<double> round_ms;
  const int64_t first_chunk = kWarmupPeriods * kChunksPerPeriod;
  int64_t c = first_chunk;
  int64_t attempted = 0;
  int64_t failed = 0;
  const Clock::time_point start = Clock::now();
  while (true) {
    const bool boundary = c % kChunksPerPeriod == 0;
    if ((c - first_chunk) % kChunksPerCycle == 0) {
      if (SecondsSince(start) >= args.seconds) break;
      const int64_t cycle = (c - first_chunk) / kChunksPerCycle;
      if (cycle > 0 && cycle % kSetupEveryCycles == 0 && !set_up()) return 1;
    }
    ++attempted;
    const Clock::time_point t0 = Clock::now();
    Status st = Status::OK();
    if (boundary) {
      const Result<core::ControllerRound> round =
          job->controller->RunRoundNow();
      round_ms.push_back(1e3 * SecondsSince(t0));
      st = round.status();
    }
    if (st.ok()) st = SendChunk(job.get(), in, c, &buf);
    const double took = SecondsSince(t0);
    if (!st.ok()) {
      ++failed;
      std::fprintf(stderr, "perfbench: chunk %lld failed: %s\n",
                   static_cast<long long>(c), st.ToString().c_str());
      break;
    }
    latency_ms.push_back(1e3 * took);
    ++c;
  }
  job->engine->Flush();
  const engine::EnginePeriodStats tail = job->engine->HarvestPeriod();

  // Per-round records plus the tail period cover the job's whole lifetime.
  const std::vector<core::ControllerRound>& rounds =
      job->controller->history();
  int64_t ingested = 0;
  int64_t processed = tail.tuples_processed;
  int64_t migrations = 0;
  double distance_sum = 0.0;
  int64_t phase_ns[kNumWavePhases] = {};
  std::vector<double> e2e_p99_us;
  std::vector<double> queue_p99_us;
  for (const int64_t n : tail.shard_ingested) ingested += n;
  for (int p = 0; p < kNumWavePhases; ++p) phase_ns[p] = tail.phases.ns[p];
  for (const core::ControllerRound& r : rounds) {
    ingested += r.tuples_ingested;
    processed += r.tuples_processed;
    migrations += r.migrations_applied;
    distance_sum += r.load_distance;
    for (int p = 0; p < kNumWavePhases; ++p) phase_ns[p] += r.phase_ns[p];
    if (r.latency.e2e_count > 0) {
      e2e_p99_us.push_back(static_cast<double>(r.latency.e2e_p99_us));
      queue_p99_us.push_back(static_cast<double>(r.latency.queue_p99_us));
    }
  }

  std::string why;
  const int64_t total_tuples = c * kChunkTuples;
  bool correct = failed == 0;
  if (correct && ingested != total_tuples) {
    why = "controller saw " + std::to_string(ingested) + " of " +
          std::to_string(total_tuples) + " ingested tuples";
    correct = false;
  }
  if (correct) {
    correct = args.workload == "steady"
                  ? CheckSteady(*job, in, c, &why)
                  : CheckKeyed(*job, in, c, processed, &why);
  }
  if (!correct) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 why.c_str());
  }

  // The measured run repeats one replay cycle: the chunk at position i of
  // every cycle carries the same tuples (shifted in event time), and rounds
  // open at the same positions. The host shares its cores, and for seconds
  // to minutes at a time the same work runs up to 1.6x slower; a median over
  // the whole run moves with how busy the host was. So each position keeps
  // only its kFastestRepeats fastest repetitions: chunk latency is taken over
  // those, and throughput is one cycle's tuples over the summed mean of each
  // position's kept repetitions — the job as it runs when the host is idle.
  const int64_t cycles = static_cast<int64_t>(latency_ms.size()) /
                         kChunksPerCycle;
  const int64_t kept = std::min<int64_t>(kFastestRepeats, cycles);
  std::vector<double> kept_ms;
  double cycle_ms = 0.0;
  std::vector<double> repeats(static_cast<size_t>(cycles));
  for (int64_t pos = 0; kept > 0 && pos < kChunksPerCycle; ++pos) {
    for (int64_t r = 0; r < cycles; ++r) {
      repeats[r] = latency_ms[r * kChunksPerCycle + pos];
    }
    std::partial_sort(repeats.begin(), repeats.begin() + kept, repeats.end());
    kept_ms.insert(kept_ms.end(), repeats.begin(), repeats.begin() + kept);
    cycle_ms += std::accumulate(repeats.begin(), repeats.begin() + kept, 0.0) /
                static_cast<double>(kept);
  }
  const double throughput =
      cycle_ms > 0.0 ? kChunksPerCycle * kChunkTuples * 1e3 / cycle_ms : 0.0;
  std::fprintf(stderr,
               "perfbench %s seed=%llu trace=%d: %lld chunks in %lld cycles; "
               "fastest %lld repeats per position (%zu chunks): %.0f "
               "tuples/s, chunk p50 %.3f ms p99 %.3f ms; all chunks: p50 "
               "%.3f ms p99 %.3f ms; %zu rounds, %lld migrations, setup "
               "%.4f s\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? 1 : 0, static_cast<long long>(attempted),
               static_cast<long long>(cycles), static_cast<long long>(kept),
               kept_ms.size(), throughput, Quantile(kept_ms, 0.5),
               Quantile(kept_ms, 0.99), Quantile(latency_ms, 0.5),
               Quantile(latency_ms, 0.99), rounds.size(),
               static_cast<long long>(migrations), Quantile(setup_s, 0.5));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"throughput_tps", throughput, "tuples/s"},
        {"latency_p50_ms", Quantile(kept_ms, 0.5), "ms"},
        {"latency_p99_ms", Quantile(kept_ms, 0.99), "ms"},
        {"setup_s", Quantile(setup_s, 0.5), "s"},
    };
  } else {
    const double per_tuple = 1.0 / static_cast<double>(total_tuples);
    const auto phase = [&](WavePhase p) {
      return static_cast<double>(phase_ns[static_cast<int>(p)]) * per_tuple;
    };
    const double moves =
        static_cast<double>(std::max<int64_t>(1, migrations));
    const double migration_ns = static_cast<double>(
        phase_ns[static_cast<int>(WavePhase::kMigration)]);
    metrics = {
        {"traced_throughput_tps", throughput, "tuples/s"},
        {"ingest_ns_per_tuple", phase(WavePhase::kIngest), "ns"},
        {"service_ns_per_tuple", phase(WavePhase::kService), "ns"},
        {"barrier_ns_per_tuple", phase(WavePhase::kWaveBarrier), "ns"},
        {"window_ns_per_tuple", phase(WavePhase::kWindow), "ns"},
        {"checkpoint_ns_per_tuple", phase(WavePhase::kCheckpoint), "ns"},
        {"migration_us_per_move", migration_ns / 1e3 / moves, "us"},
        {"round_p50_ms", Quantile(round_ms, 0.5), "ms"},
        {"plan_p50_ms", Quantile(job->planner->plan_ms(), 0.5), "ms"},
        {"e2e_p99_us", Mean(e2e_p99_us), "us"},
        {"queue_p99_us", Mean(queue_p99_us), "us"},
        {"rounds", static_cast<double>(rounds.size()), "count"},
        {"migrations", static_cast<double>(migrations), "count"},
        {"checkpoint_bytes_per_tuple",
         static_cast<double>(job->checkpoints->stats().snapshot_bytes) *
             per_tuple,
         "B"},
        {"load_distance_pct",
         rounds.empty() ? 0.0
                        : distance_sum / static_cast<double>(rounds.size()),
         "%"},
        {"collocation_pct",
         engine::CollocationPercent(tail.comm, job->engine->assignment()),
         "%"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace albic::perfbench

int main(int argc, char** argv) { return albic::perfbench::Main(argc, argv); }
