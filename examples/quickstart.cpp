// Quickstart: the smallest useful ALBIC program.
//
// Builds a 4-node cluster running a 2-operator job with 16 key groups,
// deliberately puts all load on one node, and lets the integrated MILP
// rebalancer fix it under a migration budget. Shows the core public API:
// Topology, Cluster, Assignment, SystemSnapshot, MilpRebalancer.

#include <cstdio>

#include "balance/milp_rebalancer.h"
#include "engine/assignment.h"
#include "engine/cluster.h"
#include "engine/load_model.h"
#include "engine/migration.h"
#include "engine/snapshot.h"
#include "engine/topology.h"

using namespace albic;  // NOLINT: example brevity

int main() {
  // 1. Describe the job: two operators, 8 key groups each.
  engine::Topology topology;
  engine::OperatorId parse = topology.AddOperator("parse", 8);
  engine::OperatorId aggregate = topology.AddOperator("aggregate", 8);
  if (Status st = topology.AddStream(parse, aggregate,
                                     engine::PartitioningPattern::kOneToOne);
      !st.ok()) {
    std::fprintf(stderr, "topology error: %s\n", st.ToString().c_str());
    return 1;
  }

  // 2. A 4-node cluster, with every key group (badly) on node 0.
  engine::Cluster cluster(4);
  engine::Assignment assignment(topology.num_key_groups());
  for (engine::KeyGroupId g = 0; g < topology.num_key_groups(); ++g) {
    assignment.set_node(g, 0);
  }

  // 3. The controller's view: measured per-group loads (percent of a
  //    reference node) and per-group migration costs.
  engine::SystemSnapshot snap;
  snap.topology = &topology;
  snap.cluster = &cluster;
  snap.assignment = assignment;
  snap.group_loads.assign(topology.num_key_groups(), 6.0);  // 96% on node 0
  snap.migration_costs =
      engine::AllMigrationCosts(topology, engine::MigrationCostModel());

  // 4. Plan with the integrated balancing MILP (its local search) under a
  //    migration budget.
  balance::MilpRebalancer rebalancer;
  balance::RebalanceConstraints constraints;
  constraints.max_migrations = 12;
  auto plan = rebalancer.ComputePlan(snap, constraints);
  if (!plan.ok()) {
    std::fprintf(stderr, "solve failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }

  std::printf("migrations planned: %zu (budget 12)\n",
              plan->migrations.size());
  std::printf("predicted load distance: %.2f%%\n",
              plan->predicted_load_distance);
  for (const engine::Migration& m : plan->migrations) {
    std::printf("  move group %d: node %d -> node %d\n", m.group, m.from,
                m.to);
  }

  // 5. Apply the plan.
  engine::MigrationReport report = engine::ApplyMigrations(
      plan->migrations, topology, engine::MigrationCostModel(), &assignment);
  std::printf("applied %d migrations, total pause %.1f s\n", report.count,
              report.total_pause_seconds);
  for (engine::NodeId n = 0; n < 4; ++n) {
    std::printf("node %d now holds %d key groups\n", n,
                assignment.count_on(n));
  }
  return 0;
}
