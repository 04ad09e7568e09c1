#include "core/adaptation_framework.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/trace.h"

namespace albic::core {

namespace {
using engine::NodeId;
}  // namespace

AdaptationFramework::AdaptationFramework(balance::Rebalancer* rebalancer,
                                         scaling::ScalingPolicy* policy,
                                         AdaptationOptions options)
    : rebalancer_(rebalancer), policy_(policy), options_(options) {}

engine::SystemSnapshot AdaptationFramework::BuildSnapshot(
    const engine::Topology& topology, const engine::LoadModel& load_model,
    const std::vector<double>& group_proc_loads, const engine::CommMatrix* comm,
    const engine::Cluster& cluster, const engine::Assignment& assignment,
    const engine::MeasuredSignals* measured) const {
  engine::SystemSnapshot snap;
  snap.topology = &topology;
  snap.cluster = &cluster;
  snap.comm = comm;
  snap.assignment = assignment;
  snap.group_loads =
      load_model.ComputeGroupLoads(topology, group_proc_loads, comm, assignment);
  const engine::NodeLoads loads = load_model.ComputeNodeLoads(
      topology, group_proc_loads, comm, assignment, cluster);
  snap.node_loads = loads.bottleneck_loads();
  snap.migration_costs =
      engine::AllMigrationCosts(topology, options_.migration_model);
  if (measured != nullptr) {
    snap.group_service_share = measured->group_service_share;
    if (!measured->lease_available.empty()) {
      // Lease-available groups migrate by flipping their owner — zero
      // bytes move, so their mck is genuinely zero. Zeroing it keeps the
      // rebalancer's max_migration_cost budget from throttling moves that
      // cost nothing: a load spike whose byte-moving absorption would be
      // spread over several rounds by the budget is absorbed in one round
      // with leases.
      const size_t n = std::min(snap.migration_costs.size(),
                                measured->lease_available.size());
      for (size_t g = 0; g < n; ++g) {
        if (measured->lease_available[g] != 0) snap.migration_costs[g] = 0.0;
      }
    }
  }
  return snap;
}

Result<AdaptationRound> AdaptationFramework::RunRound(
    const engine::Topology& topology, const engine::LoadModel& load_model,
    const std::vector<double>& group_proc_loads, const engine::CommMatrix* comm,
    engine::Cluster* cluster, engine::Assignment* assignment,
    const engine::MeasuredSignals* measured) {
  AdaptationRound round;
  // Every keyGroupAlloc() call of the round runs here, timed and traced.
  const auto compute_plan = [&](const engine::SystemSnapshot& snap) -> Status {
    ALBIC_TRACE_SPAN("controller", "controller.plan");
    const auto start = std::chrono::steady_clock::now();
    ALBIC_ASSIGN_OR_RETURN(
        round.plan, rebalancer_->ComputePlan(snap, options_.constraints));
    round.plan_ms += std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    round.plan_capped = round.plan_capped || round.plan.capped;
    return Status::OK();
  };

  // Lines 1-3: terminate drained nodes marked in previous rounds.
  for (NodeId n : cluster->marked_nodes()) {
    if (assignment->count_on(n) == 0) {
      ALBIC_RETURN_NOT_OK(cluster->Terminate(n));
      ++round.nodes_terminated;
    }
  }

  // Line 4: potential allocation plan.
  engine::SystemSnapshot snap =
      BuildSnapshot(topology, load_model, group_proc_loads, comm, *cluster,
                    *assignment, measured);
  ALBIC_RETURN_NOT_OK(compute_plan(snap));

  // Line 5: scaling decision, informed by the potential plan.
  if (policy_ != nullptr) {
    round.scaling = policy_->Decide(snap, round.plan);
    if (round.scaling.any()) {
      for (int i = 0; i < round.scaling.add_nodes; ++i) {
        cluster->AddNode();
        ++round.nodes_added;
      }
      for (NodeId n : round.scaling.mark_for_removal) {
        ALBIC_RETURN_NOT_OK(cluster->MarkForRemoval(n));
        ++round.nodes_marked;
      }
      // Lines 6-7: recalculate the plan after scaling, integratively.
      snap = BuildSnapshot(topology, load_model, group_proc_loads, comm,
                           *cluster, *assignment, measured);
      ALBIC_RETURN_NOT_OK(compute_plan(snap));
    }
  }

  // Line 8: apply the plan.
  round.report = engine::ApplyMigrations(
      round.plan.migrations, topology, options_.migration_model, assignment);
  return round;
}

}  // namespace albic::core
