#pragma once

/// \file
/// \brief ReferenceCascade, the test-only oracle of the engine's
/// semantics: a synchronous, depth-first, one-tuple-at-a-time cascade over
/// the same topology, assignment and operators. LocalEngine must match it
/// bit for bit — period statistics, operator state, windowed output and
/// direct-migration pause — however it batches, stages and drains.
///
/// The oracle models routing, work and serde accounting, windows and
/// direct migration only. Checkpointing, telemetry, migration buffering
/// and lease moves are out of its scope; their tests compare the engine
/// with itself (migration matrix, soak).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/assignment.h"
#include "engine/local_engine.h"
#include "engine/migration.h"
#include "engine/operator.h"
#include "engine/topology.h"

namespace albic::testing {

/// \brief Depth-first reference execution: every injected tuple cascades
/// through the whole DAG before the next one enters.
class ReferenceCascade {
 public:
  /// \p operators entries may be null for fan-out operators (routed, never
  /// processed). None of the pointers are owned.
  ReferenceCascade(const engine::Topology* topology, int num_nodes,
                   engine::Assignment assignment,
                   std::vector<engine::StreamOperator*> operators,
                   double serde_cost, int64_t window_every_us)
      : topology_(topology),
        num_nodes_(num_nodes),
        assignment_(std::move(assignment)),
        operators_(std::move(operators)),
        serde_cost_(serde_cost),
        window_every_us_(window_every_us) {
    ResetStats();
  }

  /// \brief Fires the windows \p tuple's event time closes, then runs the
  /// tuple through the DAG. A null source routes without doing work; a
  /// real one is charged like any other hop.
  void Inject(engine::OperatorId source_op, const engine::Tuple& tuple) {
    if (stats_.shard_ingested.empty()) stats_.shard_ingested.push_back(0);
    ++stats_.shard_ingested[0];
    if (tuple.ts >= event_time_us_) {
      FireWindows(tuple.ts);
      event_time_us_ = tuple.ts;
    }
    const int group = engine::LocalEngine::RouteKey(
        tuple.key, topology_->op(source_op).num_key_groups);
    if (operators_[source_op] == nullptr) {
      Route(source_op, group, tuple);
    } else {
      Deliver(source_op, group, tuple);
    }
  }

  /// \brief A direct move: the group's state round-trips through its
  /// serialized image, ownership flips to \p to, and the modeled pause is
  /// kEnginePauseUsPerByte × the image bytes.
  void Migrate(engine::KeyGroupId g, engine::NodeId to) {
    engine::StreamOperator* op = operators_[topology_->group_operator(g)];
    if (op != nullptr) {
      const int local = topology_->group_index_in_operator(g);
      const std::string image = op->SerializeGroupState(local);
      op->ClearGroupState(local);
      EXPECT_TRUE(op->DeserializeGroupState(local, image).ok());
      stats_.migration_pause_us +=
          engine::kEnginePauseUsPerByte * static_cast<double>(image.size());
    }
    assignment_.set_node(g, to);
  }

  /// \brief Returns the period's statistics and starts a new period.
  engine::EnginePeriodStats Harvest() {
    engine::EnginePeriodStats out = std::move(stats_);
    ResetStats();
    return out;
  }

  const engine::Assignment& assignment() const { return assignment_; }

 private:
  /// Routes an operator's emissions onward before Emit returns.
  class Forward : public engine::Emitter {
   public:
    Forward(ReferenceCascade* cascade, engine::OperatorId op, int group)
        : cascade_(cascade), op_(op), group_(group) {}
    void Emit(const engine::Tuple& tuple) override {
      cascade_->Route(op_, group_, tuple);
    }

   private:
    ReferenceCascade* cascade_;
    engine::OperatorId op_;
    int group_;
  };

  void ResetStats() {
    stats_ = engine::EnginePeriodStats();
    stats_.group_work.assign(
        static_cast<size_t>(topology_->num_key_groups()), 0.0);
    stats_.node_work.assign(static_cast<size_t>(num_nodes_), 0.0);
    stats_.comm = engine::CommMatrix(topology_->num_key_groups());
  }

  void ChargeNode(engine::NodeId node, double work) {
    if (node == engine::kInvalidNode) return;
    if (static_cast<size_t>(node) >= stats_.node_work.size()) {
      stats_.node_work.resize(static_cast<size_t>(node) + 1, 0.0);
    }
    stats_.node_work[node] += work;
  }

  /// Every boundary up to \p new_time closes operator by operator in
  /// topological order; each group's window output cascades fully before
  /// the next group fires. The first event only sets the window origin.
  void FireWindows(int64_t new_time) {
    if (window_every_us_ <= 0) return;
    if (!time_initialized_) {
      last_window_us_ = new_time;
      time_initialized_ = true;
      return;
    }
    while (new_time - last_window_us_ >= window_every_us_) {
      last_window_us_ += window_every_us_;
      for (const engine::OperatorId op : topology_->TopologicalOrder()) {
        if (operators_[op] == nullptr) continue;
        for (int gi = 0; gi < topology_->op(op).num_key_groups; ++gi) {
          Forward out(this, op, gi);
          operators_[op]->OnWindow(gi, &out);
        }
      }
    }
  }

  void Deliver(engine::OperatorId op, int group_index,
               const engine::Tuple& tuple) {
    const engine::KeyGroupId g = topology_->first_group(op) + group_index;
    const double cost = topology_->op(op).cost_per_tuple;
    stats_.group_work[g] += cost;
    ChargeNode(assignment_.node_of(g), cost);
    ++stats_.tuples_processed;
    if (operators_[op] == nullptr) {
      Route(op, group_index, tuple);
      return;
    }
    Forward out(this, op, group_index);
    operators_[op]->Process(tuple, group_index, &out);
  }

  void Route(engine::OperatorId from_op, int from_group,
             const engine::Tuple& tuple) {
    const engine::KeyGroupId src = topology_->first_group(from_op) + from_group;
    const engine::NodeId src_node = assignment_.node_of(src);
    for (const engine::StreamEdge& e : topology_->edges()) {
      if (e.from != from_op) continue;
      const int down_groups = topology_->op(e.to).num_key_groups;
      const bool by_group =
          e.pattern == engine::PartitioningPattern::kOneToOne ||
          e.pattern == engine::PartitioningPattern::kPartialMerge;
      const int target =
          by_group ? from_group % down_groups
                   : engine::LocalEngine::RouteKey(tuple.key, down_groups);
      const engine::KeyGroupId dst = topology_->first_group(e.to) + target;
      stats_.comm.Add(src, dst, 1.0);
      const engine::NodeId dst_node = assignment_.node_of(dst);
      if (src_node != dst_node && src_node != engine::kInvalidNode &&
          dst_node != engine::kInvalidNode) {
        // Serialization at the sender, deserialization at the receiver.
        ChargeNode(src_node, serde_cost_);
        ChargeNode(dst_node, serde_cost_);
      }
      Deliver(e.to, target, tuple);
    }
  }

  const engine::Topology* topology_;
  int num_nodes_;
  engine::Assignment assignment_;
  std::vector<engine::StreamOperator*> operators_;
  double serde_cost_;
  int64_t window_every_us_;
  engine::EnginePeriodStats stats_;
  int64_t event_time_us_ = 0;
  int64_t last_window_us_ = 0;
  bool time_initialized_ = false;
};

}  // namespace albic::testing
