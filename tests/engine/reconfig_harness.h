#pragma once

/// \file
/// \brief Shared reconfiguration-test harness: the three-operator wiki
/// pipeline (geohash -> windowed top-k -> global top-k) behind the
/// migration-mode equivalence matrix and the randomized reconfiguration
/// soak test, plus the canonical-state capture both use to differentiate a
/// reconfigured run against a no-reconfiguration oracle bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "engine/checkpoint.h"
#include "engine/local_engine.h"
#include "ops/geohash.h"
#include "ops/topk.h"
#include "workload/streams.h"

namespace albic::testing {

/// Shape of a harness pipeline. The defaults mirror the checkpoint tests;
/// the soak test widens the cluster.
struct ReconfigOptions {
  int nodes = 4;
  int groups = 8;  ///< Key groups PER OPERATOR (three operators).
  int64_t window_every_us = 500LL * 1000;
  /// Optional registry the engine publishes into (soak test: counters must
  /// be live when traffic flowed).
  MetricsRegistry* metrics = nullptr;
};

/// The wiki pipeline over the batched runtime with optional checkpointing.
/// Every piece of state serializes canonically (sorted), so two runs that
/// agree on content agree on bytes — the property the differentials ride.
struct ReconfigPipeline {
  ReconfigOptions opts;
  engine::Topology topo;
  engine::Cluster cluster;
  ops::GeoHashOperator geohash;
  ops::WindowedTopKOperator topk;
  ops::WindowedTopKOperator global;
  engine::MemoryCheckpointStore store;
  std::unique_ptr<engine::CheckpointCoordinator> coordinator;
  std::unique_ptr<engine::LocalEngine> engine;

  explicit ReconfigPipeline(ReconfigOptions o = ReconfigOptions())
      : opts(o),
        cluster(o.nodes),
        geohash(o.groups, 256),
        topk(o.groups, 64),
        global(o.groups, 64, ops::TopKCountMode::kSumNum) {
    topo.AddOperator("geohash", opts.groups, 1 << 14);
    topo.AddOperator("topk", opts.groups, 1 << 14);
    topo.AddOperator("global", opts.groups, 1 << 14);
    EXPECT_TRUE(
        topo.AddStream(0, 1, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    EXPECT_TRUE(
        topo.AddStream(1, 2, engine::PartitioningPattern::kFullPartitioning)
            .ok());
    engine::Assignment assign(topo.num_key_groups());
    for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      assign.set_node(g, g % opts.nodes);
    }
    engine::LocalEngineOptions eopts;
    eopts.window_every_us = opts.window_every_us;
    eopts.metrics = opts.metrics;
    engine = std::make_unique<engine::LocalEngine>(
        &topo, &cluster, assign,
        std::vector<engine::StreamOperator*>{&geohash, &topk, &global},
        eopts);
  }

  void EnableCheckpointing(engine::CheckpointCoordinatorOptions copts = {}) {
    coordinator =
        std::make_unique<engine::CheckpointCoordinator>(&store, copts);
    ASSERT_TRUE(engine->EnableCheckpointing(coordinator.get()).ok());
  }

  engine::StreamOperator* op(engine::OperatorId id) {
    engine::StreamOperator* ops[] = {&geohash, &topk, &global};
    return ops[id];
  }

  /// Canonical serialized state of one key group.
  std::string StateOf(engine::KeyGroupId g) {
    return op(topo.group_operator(g))
        ->SerializeGroupState(topo.group_index_in_operator(g));
  }

  /// Canonical serialized state of every key group, in group order.
  std::vector<std::string> AllStates() {
    std::vector<std::string> out;
    out.reserve(static_cast<size_t>(topo.num_key_groups()));
    for (engine::KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
      out.push_back(StateOf(g));
    }
    return out;
  }

  /// Edit counts per article in the last closed window, merged over the
  /// global groups — the pipeline's end-to-end windowed output.
  std::map<uint64_t, int64_t> GlobalCounts() const {
    std::map<uint64_t, int64_t> out;
    for (int g = 0; g < opts.groups; ++g) {
      for (const auto& [article, count] : global.last_window_top(g)) {
        out[article] += count;
      }
    }
    return out;
  }
};

inline std::vector<engine::Tuple> MakeWikiStream(int tuples,
                                                 int articles = 250,
                                                 int seed = 101,
                                                 double rate = 2000.0) {
  workload::WikipediaEditStream edits(articles, seed, rate);
  std::vector<engine::Tuple> out;
  out.reserve(static_cast<size_t>(tuples));
  for (int i = 0; i < tuples; ++i) out.push_back(edits.Next());
  return out;
}

/// Bit-identity differential: every key group's canonical state and the
/// merged windowed output must match between the reconfigured pipeline and
/// its oracle. \p label names the failing configuration (e.g. the seed).
inline void ExpectSameOutputs(ReconfigPipeline* run,
                              ReconfigPipeline* oracle,
                              const std::string& label) {
  ASSERT_EQ(run->topo.num_key_groups(), oracle->topo.num_key_groups());
  for (engine::KeyGroupId g = 0; g < run->topo.num_key_groups(); ++g) {
    ASSERT_EQ(run->StateOf(g), oracle->StateOf(g))
        << label << ": group " << g << " state diverged from the oracle";
  }
  ASSERT_EQ(run->GlobalCounts(), oracle->GlobalCounts())
      << label << ": windowed output diverged from the oracle";
}

}  // namespace albic::testing
