// Micro-benchmarks (google-benchmark) for the optimization substrates that
// power Figs 2-4: the multilevel graph partitioner and the assignment local
// search; plus the kernels of a steady controller round's boundary chunk, a
// converging local search and the TopK window fire, and steady's fan-out
// through the engine: one regular chunk and one window-fire cascade.

#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <vector>

#include "balance/local_search.h"
#include "balance/milp_rebalancer.h"
#include "common/rng.h"
#include "engine/batch.h"
#include "engine/local_engine.h"
#include "graph/partitioner.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/synthetic.h"

namespace albic {
namespace {

void BM_GraphPartitioner(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  std::vector<graph::Edge> edges;
  for (int v = 0; v < n; ++v) {
    for (int k = 0; k < 4; ++k) {
      int u = static_cast<int>(rng.Index(static_cast<size_t>(n)));
      if (u != v) edges.push_back({v, u, 1.0 + rng.NextDouble()});
    }
  }
  graph::Graph g = graph::Graph::FromEdges(n, edges);
  graph::PartitionOptions opts;
  opts.num_parts = 8;
  for (auto _ : state) {
    auto res = graph::PartitionGraph(g, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_GraphPartitioner)->Arg(200)->Arg(800)->Arg(2000);

// Runs to its 5 ms cap at every size: it times the cap, not the solver.
void BM_LocalSearchRebalance(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  workload::SyntheticOptions wopts;
  wopts.nodes = nodes;
  wopts.key_groups = nodes * 20;
  wopts.operators = std::max(1, nodes / 2);
  wopts.varies = 50.0;
  workload::SyntheticScenario s = workload::BuildSyntheticScenario(wopts);
  engine::SystemSnapshot snap;
  snap.topology = &s.topology;
  snap.cluster = &s.cluster;
  snap.assignment = s.assignment;
  snap.group_loads = s.group_loads;
  snap.migration_costs.assign(s.group_loads.size(), 1.0);
  balance::RebalanceConstraints cons;
  cons.max_migrations = 20;
  for (auto _ : state) {
    balance::LocalSearchOptions opts;
    opts.time_budget_ms = 5.0;
    auto res = balance::LocalSearchSolver::Solve(
        snap, balance::ItemsFromGroups(snap), cons, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_LocalSearchRebalance)->Arg(20)->Arg(40)->Arg(60);

// A steady-shaped controller round that converges far inside its cap: 54
// single-group items round-robin over 6 nodes, Zipf-shaped loads with a
// seeded jitter, 4 moves.
void BM_LocalSearchSteadyRound(benchmark::State& state) {
  constexpr int kGroups = 54;
  constexpr int kNodes = 6;
  engine::Topology topo;
  topo.AddOperator("op", kGroups, 1 << 20);
  engine::Cluster cluster(kNodes);
  engine::SystemSnapshot snap;
  snap.topology = &topo;
  snap.cluster = &cluster;
  snap.assignment = engine::Assignment(kGroups);
  Rng rng(101);
  for (engine::KeyGroupId g = 0; g < kGroups; ++g) {
    snap.assignment.set_node(g, g % kNodes);
    snap.group_loads.push_back(rng.Uniform(0.5, 1.5) * 60.0 / (1.0 + g % 18));
  }
  snap.migration_costs.assign(kGroups, 1.0);
  const std::vector<balance::BalanceItem> items =
      balance::ItemsFromGroups(snap);
  balance::RebalanceConstraints cons;
  cons.max_migrations = 4;
  balance::LocalSearchOptions opts;
  opts.time_budget_ms = 1000.0;
  for (auto _ : state) {
    auto res = balance::LocalSearchSolver::Solve(snap, items, cons, opts);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_LocalSearchSteadyRound);

// The steady window fire: 18 per-cell TopK groups (k = 32) holding one
// period of Zipf(0.8) edits over 20,000 articles, 65,536 tuples. Only the
// 18 OnWindow calls are timed; refilling the counts is not. From the second
// window on, every fire selects its top k from the ids that crossed half of
// the previous window's k-th count.
//
// With \p shifting, every other window spreads its tuples evenly over the
// articles instead, so the heavy set comes and goes: after a Zipf window,
// fewer than k ids reach the threshold and the fire falls back to the
// whole table; after an even one, the threshold is low and nearly every
// id is a candidate.
void TopKWindowFire(benchmark::State& state, bool shifting) {
  constexpr int kGroups = 18;
  constexpr int kArticles = 20000;
  Rng rng(7);
  const ZipfSampler zipf(kArticles, 0.8);
  std::vector<uint64_t> ids(kArticles);
  std::iota(ids.begin(), ids.end(), uint64_t{1});
  rng.Shuffle(&ids);
  const auto window = [&](bool even) {
    std::vector<std::vector<engine::Tuple>> per_group(kGroups);
    for (int i = 0; i < 65536; ++i) {
      engine::Tuple t;
      t.aux = ids[even ? rng.Index(kArticles) : zipf.Sample(&rng)];
      t.key = t.aux;
      per_group[t.aux % kGroups].push_back(t);
    }
    std::vector<engine::TupleBatch> batches;
    for (auto& tuples : per_group) batches.emplace_back(std::move(tuples));
    return batches;
  };
  std::vector<std::vector<engine::TupleBatch>> windows = {window(false)};
  if (shifting) windows.push_back(window(true));
  ops::WindowedTopKOperator op(kGroups, 32);
  struct : engine::Emitter {
    void Emit(const engine::Tuple&) override {}
  } discard;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::vector<engine::TupleBatch>& batches =
        windows[next++ % windows.size()];
    for (int g = 0; g < kGroups; ++g) op.ProcessBatch(batches[g], g, &discard);
    state.ResumeTiming();
    for (int g = 0; g < kGroups; ++g) op.OnWindow(g, &discard);
    benchmark::DoNotOptimize(op.last_window_top(0).data());
    benchmark::ClobberMemory();
  }
}

void BM_TopKWindowFire(benchmark::State& state) {
  TopKWindowFire(state, false);
}
BENCHMARK(BM_TopKWindowFire);

void BM_TopKWindowFireShiftingHeavySet(benchmark::State& state) {
  TopKWindowFire(state, true);
}
BENCHMARK(BM_TopKWindowFireShiftingHeavySet);

// Steady's data path through a LocalEngine with no controller: Real Job 1's
// geohash -> windowed top-k -> global top-k, 18 groups each over 6 nodes,
// full partitioning on both hops, k = 32, checkpointing off. One period is
// 65,536 Zipf(0.8) edits over 20,000 articles in 16 chunks of 4,096.
class SteadyFanOut {
 public:
  static constexpr int kGroups = 18;
  static constexpr int kPeriodTuples = 65536;
  static constexpr int kChunkTuples = 4096;
  static constexpr int64_t kPeriodUs = 1000000;

  explicit SteadyFanOut(int64_t window_every_us)
      : cluster_(6),
        geohash_(kGroups, 1024),
        topk_(kGroups, 32),
        global_(kGroups, 32, ops::TopKCountMode::kSumNum) {
    topo_.AddOperator("geohash", kGroups, 1 << 16);
    topo_.AddOperator("topk", kGroups, 1 << 18);
    topo_.AddOperator("global-topk", kGroups, 1 << 16);
    const auto full = engine::PartitioningPattern::kFullPartitioning;
    (void)topo_.AddStream(0, 1, full);
    (void)topo_.AddStream(1, 2, full);
    engine::Assignment assign(topo_.num_key_groups());
    for (engine::KeyGroupId g = 0; g < topo_.num_key_groups(); ++g) {
      assign.set_node(g, topo_.group_index_in_operator(g) % 6);
    }
    engine::LocalEngineOptions opts;
    opts.window_every_us = window_every_us;
    opts.max_batch_tuples = kChunkTuples;
    opts.serde_cost = 0.3;
    engine_ = std::make_unique<engine::LocalEngine>(
        &topo_, &cluster_, assign,
        std::vector<engine::StreamOperator*>{&geohash_, &topk_, &global_},
        opts);
    Rng rng(7);
    const ZipfSampler zipf(20000, 0.8);
    std::vector<uint64_t> ids(20000);
    std::iota(ids.begin(), ids.end(), uint64_t{1});
    rng.Shuffle(&ids);
    period_.resize(kPeriodTuples);
    for (int i = 0; i < kPeriodTuples; ++i) {
      period_[i].key = ids[zipf.Sample(&rng)];
      period_[i].ts = int64_t{i} * kPeriodUs / kPeriodTuples;
      period_[i].num = 1.0;
    }
  }

  /// Ingests chunk \p c (of 16) of period \p p and drains it.
  void SendChunk(int64_t p, int c) {
    chunk_.assign(period_.begin() + c * kChunkTuples,
                  period_.begin() + (c + 1) * kChunkTuples);
    for (engine::Tuple& t : chunk_) t.ts += p * kPeriodUs;
    (void)engine_->InjectBatch(0, chunk_.data(), chunk_.size());
    engine_->Flush();
  }

  /// Ingests one tuple at the start of period \p p and drains it.
  void SendFirstOf(int64_t p) {
    engine::Tuple t = period_[0];
    t.ts = p * kPeriodUs;
    (void)engine_->Inject(0, t);
    engine_->Flush();
  }

  const ops::WindowedTopKOperator& global() const { return global_; }

 private:
  engine::Topology topo_;
  engine::Cluster cluster_;
  ops::GeoHashOperator geohash_;
  ops::WindowedTopKOperator topk_;
  ops::WindowedTopKOperator global_;
  std::unique_ptr<engine::LocalEngine> engine_;
  std::vector<engine::Tuple> period_;
  std::vector<engine::Tuple> chunk_;
};

// One regular chunk, windows off: 18 geohash batches of about 228 tuples,
// each fanning out to the 18 top-k groups (324 runs of about 12.6).
void BM_SteadyFanOutChunk(benchmark::State& state) {
  SteadyFanOut job(/*window_every_us=*/0);
  for (int c = 0; c < 16; ++c) job.SendChunk(0, c);  // warm the tables
  int c = 0;
  for (auto _ : state) {
    job.SendChunk(0, c);
    c = (c + 1) % 16;
  }
  state.SetItemsProcessed(state.iterations() * SteadyFanOut::kChunkTuples);
}
BENCHMARK(BM_SteadyFanOutChunk);

// One window-fire cascade: a period's 16 chunks go in untimed, then the
// tuple that opens the next period fires the window: 18 top-k fires send
// their 576 tuples to the 18 global groups (324 runs of about 1.8), the
// global groups process them, and the 18 global fires close the window.
void BM_SteadyFanOutFire(benchmark::State& state) {
  SteadyFanOut job(SteadyFanOut::kPeriodUs);
  job.SendFirstOf(0);
  int64_t p = 0;
  for (auto _ : state) {
    state.PauseTiming();
    for (int c = 0; c < 16; ++c) job.SendChunk(p, c);
    state.ResumeTiming();
    job.SendFirstOf(++p);
    benchmark::DoNotOptimize(job.global().last_window_top(0).data());
  }
}
BENCHMARK(BM_SteadyFanOutFire);

}  // namespace
}  // namespace albic

BENCHMARK_MAIN();
