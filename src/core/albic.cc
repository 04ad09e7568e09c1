#include "core/albic.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/logging.h"
#include "common/union_find.h"
#include "graph/partitioner.h"

namespace albic::core {

namespace {
using balance::BalanceItem;
using engine::KeyGroupId;
using engine::NodeId;
}  // namespace

Albic::Albic(AlbicOptions options)
    : options_(options), milp_(options.milp), rng_(options.seed) {}

void Albic::CalculateScores(const engine::SystemSnapshot& snapshot,
                            double score_factor,
                            std::vector<ScoredPair>* collocated,
                            std::vector<ScoredPair>* to_be_collocated) {
  collocated->clear();
  to_be_collocated->clear();
  if (snapshot.comm == nullptr) return;
  const engine::Topology& topo = *snapshot.topology;

  // Downstream key-group count per operator (the avg denominator of
  // Algorithm 2 line 5).
  std::vector<int> downstream_groups(topo.num_operators(), 0);
  for (const engine::StreamEdge& e : topo.edges()) {
    downstream_groups[e.from] += topo.op(e.to).num_key_groups;
  }

  for (KeyGroupId gk = 0; gk < topo.num_key_groups(); ++gk) {
    const int dn = downstream_groups[topo.group_operator(gk)];
    if (dn == 0) continue;
    const double output = snapshot.comm->TotalOut(gk);
    if (output <= 0.0) continue;
    const double avg = output / static_cast<double>(dn);
    for (const engine::CommMatrix::Entry& e : snapshot.comm->row(gk)) {
      if (e.rate > avg * score_factor) {
        ScoredPair pair{gk, e.to, e.rate};
        if (snapshot.assignment.node_of(gk) ==
            snapshot.assignment.node_of(e.to)) {
          collocated->push_back(pair);
        } else {
          to_be_collocated->push_back(pair);
        }
      }
    }
  }
}

std::vector<std::vector<KeyGroupId>> Albic::MaintainCollocation(
    const engine::SystemSnapshot& snapshot,
    const std::vector<ScoredPair>& collocated,
    const balance::RebalanceConstraints& constraints,
    double max_partition_load) {
  std::vector<std::vector<KeyGroupId>> partitions;
  if (collocated.empty() || max_partition_load <= 0.0) return partitions;
  const engine::Topology& topo = *snapshot.topology;

  // calcSets: union all pairs; any two sets sharing a group merge.
  UnionFind uf(static_cast<size_t>(topo.num_key_groups()));
  for (const ScoredPair& p : collocated) {
    uf.Union(static_cast<size_t>(p.a), static_cast<size_t>(p.b));
  }
  std::map<size_t, std::vector<KeyGroupId>> sets;
  std::vector<char> in_pair(static_cast<size_t>(topo.num_key_groups()), 0);
  for (const ScoredPair& p : collocated) {
    in_pair[p.a] = 1;
    in_pair[p.b] = 1;
  }
  for (KeyGroupId g = 0; g < topo.num_key_groups(); ++g) {
    if (in_pair[g]) sets[uf.Find(static_cast<size_t>(g))].push_back(g);
  }

  for (auto& [root, members] : sets) {
    if (members.size() < 2) continue;
    double sum_mc = 0.0, sum_load = 0.0;
    for (KeyGroupId g : members) {
      sum_mc += snapshot.migration_costs[g];
      sum_load += snapshot.group_loads[g];
    }
    // p1: migration-cost bound; p2: partition-load bound (Alg. 2 lines
    // 16-17). Under a count limit, the cost analogue is the group count.
    int p1 = 1;
    if (constraints.CountLimited()) {
      if (constraints.max_migrations > 0) {
        p1 = static_cast<int>(std::ceil(
            static_cast<double>(members.size()) /
            static_cast<double>(constraints.max_migrations)));
      }
    } else if (constraints.max_migration_cost < 1e29) {
      p1 = static_cast<int>(
          std::ceil(sum_mc / constraints.max_migration_cost));
    }
    const int p2 =
        static_cast<int>(std::ceil(sum_load / max_partition_load));
    const int parts = std::max({p1, p2, 1});

    if (parts <= 1) {
      partitions.push_back(members);
      continue;
    }
    // Split with balanced graph partitioning; vertex weight follows the
    // binding constraint (migration cost when p1 dominates, load otherwise).
    std::unordered_map<KeyGroupId, int> local;
    for (size_t i = 0; i < members.size(); ++i) {
      local[members[i]] = static_cast<int>(i);
    }
    std::vector<graph::Edge> edges;
    for (KeyGroupId g : members) {
      for (const engine::CommMatrix::Entry& e : snapshot.comm->row(g)) {
        auto it = local.find(e.to);
        if (it != local.end() && e.rate > 0.0) {
          edges.push_back({local[g], it->second, e.rate});
        }
      }
    }
    std::vector<double> weights(members.size());
    const bool weigh_by_cost = p1 > p2;
    for (size_t i = 0; i < members.size(); ++i) {
      weights[i] = weigh_by_cost ? snapshot.migration_costs[members[i]]
                                 : snapshot.group_loads[members[i]];
      weights[i] = std::max(weights[i], 1e-9);
    }
    graph::Graph g = graph::Graph::FromEdges(
        static_cast<int>(members.size()), edges, std::move(weights));
    graph::PartitionOptions popt;
    popt.num_parts = std::min<int>(parts, static_cast<int>(members.size()));
    popt.seed = rng_.NextU64();
    auto res = graph::PartitionGraph(g, popt);
    if (!res.ok()) {
      // Degenerate split: fall back to singletons.
      for (KeyGroupId m : members) partitions.push_back({m});
      continue;
    }
    std::vector<std::vector<KeyGroupId>> split(
        static_cast<size_t>(popt.num_parts));
    for (size_t i = 0; i < members.size(); ++i) {
      split[res->assignment[i]].push_back(members[i]);
    }
    for (auto& part : split) {
      if (!part.empty()) partitions.push_back(std::move(part));
    }
  }
  return partitions;
}

Result<balance::RebalancePlan> Albic::SolveOnce(
    const engine::SystemSnapshot& snapshot,
    const balance::RebalanceConstraints& constraints,
    double max_partition_load) {
  // maxPL exhausted: pure MILP, no collocation at all (Algorithm 2, step 4).
  if (max_partition_load <= 0.0 || snapshot.comm == nullptr) {
    return milp_.ComputePlan(snapshot, constraints);
  }

  // Step 1.
  std::vector<ScoredPair> collocated, to_be;
  CalculateScores(snapshot, options_.score_factor, &collocated, &to_be);

  // Step 2.
  std::vector<std::vector<KeyGroupId>> partitions =
      MaintainCollocation(snapshot, collocated, constraints,
                          max_partition_load);
  std::vector<int> partition_of(
      static_cast<size_t>(snapshot.topology->num_key_groups()), -1);
  for (size_t p = 0; p < partitions.size(); ++p) {
    for (KeyGroupId g : partitions[p]) partition_of[g] = static_cast<int>(p);
  }

  // Build items: one per partition, singletons for the rest.
  std::vector<BalanceItem> items;
  std::vector<int> item_of(partition_of.size(), -1);
  const auto share_of = [&](KeyGroupId g) {
    return static_cast<size_t>(g) < snapshot.group_service_share.size()
               ? snapshot.group_service_share[g]
               : 0.0;
  };
  for (auto& part : partitions) {
    BalanceItem item;
    item.groups = part;
    for (KeyGroupId g : part) {
      item.load += snapshot.group_loads[g];
      item.service_share += share_of(g);
      item_of[g] = static_cast<int>(items.size());
    }
    items.push_back(std::move(item));
  }
  for (KeyGroupId g = 0; g < snapshot.topology->num_key_groups(); ++g) {
    if (item_of[g] >= 0) continue;
    BalanceItem item;
    item.groups = {g};
    item.load = snapshot.group_loads[g];
    item.service_share = share_of(g);
    item_of[g] = static_cast<int>(items.size());
    items.push_back(std::move(item));
  }

  // Step 3: pin random max-traffic toBeColGrps pairs (Algorithm 2 pins
  // exactly one per invocation; max_pairs_per_round > 1 accelerates
  // convergence for sweep benches).
  if (!to_be.empty()) {
    std::vector<const ScoredPair*> ordered;
    ordered.reserve(to_be.size());
    for (const ScoredPair& p : to_be) ordered.push_back(&p);
    std::sort(ordered.begin(), ordered.end(),
              [](const ScoredPair* x, const ScoredPair* y) {
                return x->rate > y->rate;
              });
    // Randomize among equal-rate pairs (the paper picks randomly among the
    // maxima).
    for (size_t lo = 0; lo < ordered.size();) {
      size_t hi = lo + 1;
      while (hi < ordered.size() &&
             ordered[hi]->rate >= ordered[lo]->rate * (1.0 - 1e-12)) {
        ++hi;
      }
      for (size_t i = hi - 1; i > lo; --i) {
        std::swap(ordered[i], ordered[lo + rng_.Index(i - lo + 1)]);
      }
      lo = hi;
    }
    // Each pinned pair consumes up to two migrations of the round's budget;
    // never pin more than the budget can absorb (half of it, leaving room
    // for balancing moves).
    int budget_cap = options_.max_pairs_per_round;
    if (constraints.CountLimited()) {
      budget_cap = std::max(1, constraints.max_migrations / 4);
    } else if (constraints.max_migration_cost < 1e29) {
      double avg_mc = 0.0;
      for (double mc : snapshot.migration_costs) avg_mc += mc;
      avg_mc /= std::max<size_t>(1, snapshot.migration_costs.size());
      if (avg_mc > 0.0) {
        budget_cap = std::max(
            1, static_cast<int>(constraints.max_migration_cost /
                                (4.0 * avg_mc)));
      }
    }
    const int pair_limit = std::min(options_.max_pairs_per_round, budget_cap);
    int pinned_pairs = 0;
    for (const ScoredPair* pickp : ordered) {
      if (pinned_pairs >= pair_limit) break;
      const ScoredPair& pick = *pickp;
      // Skip pairs touching an already-pinned item this round.
      if (items[item_of[pick.a]].pinned != engine::kInvalidNode ||
          items[item_of[pick.b]].pinned != engine::kInvalidNode) {
        continue;
      }
      const NodeId n1 = snapshot.assignment.node_of(pick.a);
      const NodeId n2 = snapshot.assignment.node_of(pick.b);
      const bool a_in = partition_of[pick.a] >= 0;
      const bool b_in = partition_of[pick.b] >= 0;
      NodeId target;
      if (a_in && !b_in) {
        target = n1;  // case 2: join the partition's node
      } else if (!a_in && b_in) {
        target = n2;  // case 2 mirrored
      } else {
        // Cases 1 and 3: the less-loaded of the two current nodes.
        const double l1 = n1 != engine::kInvalidNode
                              ? snapshot.node_loads[n1]
                              : 1e30;
        const double l2 = n2 != engine::kInvalidNode
                              ? snapshot.node_loads[n2]
                              : 1e30;
        target = l1 <= l2 ? n1 : n2;
      }
      if (target != engine::kInvalidNode &&
          snapshot.cluster->is_active(target) &&
          !snapshot.cluster->is_marked(target)) {
        items[item_of[pick.a]].pinned = target;
        items[item_of[pick.b]].pinned = target;
        ++pinned_pairs;
      }
    }
  }

  // Step 4.
  return milp_.ComputePlanForItems(snapshot, items, constraints);
}

Result<balance::RebalancePlan> Albic::ComputePlan(
    const engine::SystemSnapshot& snapshot,
    const balance::RebalanceConstraints& constraints) {
  double max_pl = options_.max_partition_load;
  Result<balance::RebalancePlan> best =
      Status::Internal("albic: no solve attempted");
  bool capped = false;  // any of the round's solves
  while (true) {
    auto plan = SolveOnce(snapshot, constraints, max_pl);
    if (plan.ok()) {
      capped = capped || plan->capped;
      plan->capped = capped;
    }
    if (plan.ok() &&
        plan->predicted_load_distance <= options_.max_load_distance) {
      return plan;
    }
    if (plan.ok()) best = std::move(plan);
    if (max_pl <= 0.0) break;
    max_pl -= options_.step_partition_load;
    if (max_pl < 0.0) max_pl = 0.0;
  }
  // No configuration met maxLD (very rare, §4.3.2): return the last (pure
  // MILP) solution rather than failing the round.
  return best;
}

}  // namespace albic::core
