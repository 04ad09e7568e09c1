#include "balance/local_search.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>

namespace albic::balance {

namespace {

using engine::NodeId;

constexpr double kEps = 1e-9;
/// Relative slack of a candidate's load-distance lower bound, far above
/// the few ulps by which Evaluate's rounding can undercut the exact value.
constexpr double kBoundMargin = 1e-12;

/// Mutable search state over items and nodes.
class Search {
 public:
  Search(const engine::SystemSnapshot& snap,
         const std::vector<BalanceItem>& items,
         const RebalanceConstraints& constraints,
         const LocalSearchOptions& options)
      : snap_(snap),
        items_(items),
        constraints_(constraints),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          options.time_budget_ms))) {
    retained_ = snap.cluster->retained_nodes();
    marked_ = snap.cluster->marked_nodes();
    num_nodes_ = static_cast<size_t>(snap.cluster->num_nodes_total());
    node_load_.assign(num_nodes_, 0.0);
    node_secondary_.assign(num_nodes_, 0.0);
    node_items_.resize(num_nodes_);
    item_node_.assign(items.size(), engine::kInvalidNode);

    // Evaluate's dense loads: retained_ then marked_; every active node
    // has a slot there.
    eval_loads_.resize(retained_.size() + marked_.size());
    eval_slot_.assign(num_nodes_, 0);
    for (size_t i = 0; i < retained_.size(); ++i) eval_slot_[retained_[i]] = i;
    for (size_t i = 0; i < marked_.size(); ++i) {
      eval_slot_[marked_[i]] = retained_.size() + i;
    }
    // The cost and count of placing each item on each node, summed in the
    // item's group order, so every candidate's DeltaFor is two loads.
    migration_to_.assign(items.size() * num_nodes_, MoveDelta{0.0, 0});
    for (size_t i = 0; i < items.size(); ++i) {
      for (size_t n = 0; n < num_nodes_; ++n) {
        MoveDelta& m = migration_to_[i * num_nodes_ + n];
        for (const engine::KeyGroupId g : items[i].groups) {
          if (snap.assignment.node_of(g) == static_cast<NodeId>(n)) continue;
          m.cost += snap.migration_costs[g];
          ++m.count;
        }
      }
    }
    // Each item's two retained nodes cheapest under the budget's measure,
    // so a step can skip an item whose cheapest move the budget rejects.
    cheapest_.resize(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const auto measure = [&](NodeId n) {
        return BudgetMeasure(MigrationTo(static_cast<int>(i), n));
      };
      std::array<NodeId, 2>& two = cheapest_[i];
      two = {engine::kInvalidNode, engine::kInvalidNode};
      for (const NodeId n : retained_) {
        if (two[0] == engine::kInvalidNode || measure(n) < measure(two[0])) {
          two = {n, two[0]};
        } else if (two[1] == engine::kInvalidNode ||
                   measure(n) < measure(two[1])) {
          two[1] = n;
        }
      }
    }

    // Candidate order: measured service-time share, heaviest first, when
    // the snapshot carries shares (measured-cost planning) — the migration
    // budget goes to the groups that measurably cost the most. Without
    // shares (telemetry off) the order is the item order, which keeps the
    // whole search bit-identical to the tuple-count path.
    item_order_.resize(items.size());
    std::iota(item_order_.begin(), item_order_.end(), 0);
    bool any_share = false;
    for (const BalanceItem& item : items) {
      if (item.service_share > 0.0) {
        any_share = true;
        break;
      }
    }
    if (any_share) {
      std::stable_sort(item_order_.begin(), item_order_.end(),
                       [&](int a, int b) {
                         return items[a].service_share >
                                items[b].service_share;
                       });
    }

    // Initial placement: pinned items at their pin, everything else at its
    // home node (falling back to the emptiest retained node if the home is
    // gone).
    for (size_t i = 0; i < items.size(); ++i) {
      NodeId n = items[i].pinned != engine::kInvalidNode
                     ? items[i].pinned
                     : ItemHomeNode(items[i], snap.assignment,
                                    snap.group_loads);
      if (n == engine::kInvalidNode || !snap.cluster->is_active(n)) {
        n = EmptiestRetained();
      }
      Place(static_cast<int>(i), n);
    }
  }

  /// False once the cap has expired, which marks the solve capped: every
  /// caller stops short of convergence on it.
  bool TimeLeft() {
    if (std::chrono::steady_clock::now() < deadline_) return true;
    capped_ = true;
    return false;
  }

  /// The paper's objective, lexicographically: minimize the load distance
  /// d = max_{n in A} |load_n - mean| with mean = (1/|A|) sum over ALL of N
  /// (Table 2), then the sum of squared deviations over A (a smooth stand-in
  /// for maximizing du + dl). Draining B is NOT a separate goal: because B's
  /// load inflates the mean while B is excluded from the deviations, the
  /// optimum only exists with B empty (Lemma 2), so drain moves fall out of
  /// d/ssq minimization — interleaved with urgent overload fixes, which is
  /// precisely the "integrated" behaviour Fig 5 measures. Moves INTO marked
  /// nodes are never generated (Lemma 1 holds structurally).
  struct Objective {
    double drain = 0.0;  ///< Residual load on B (reported, not optimized).
    double distance = 0.0;
    double ssq = 0.0;

    bool BetterThan(const Objective& o) const {
      if (distance < o.distance - kEps) return true;
      if (distance > o.distance + kEps) return false;
      return ssq < o.ssq - kEps;
    }
  };

  /// The objective of the current placement, with node \p a's load read as
  /// \p load_a and \p b's as \p load_b: a candidate move or swap is scored
  /// from its two substituted node loads without touching node_load_. The
  /// loads are summed in retained_ then marked_ order, and \p a wins when
  /// a == b.
  Objective Evaluate(NodeId a = engine::kInvalidNode, double load_a = 0.0,
                     NodeId b = engine::kInvalidNode, double load_b = 0.0) {
    const size_t num_retained = retained_.size();
    double* loads = eval_loads_.data();
    for (size_t i = 0; i < num_retained; ++i) {
      loads[i] = node_load_[retained_[i]];
    }
    for (size_t i = 0; i < marked_.size(); ++i) {
      loads[num_retained + i] = node_load_[marked_[i]];
    }
    if (b != engine::kInvalidNode) loads[eval_slot_[b]] = load_b;
    if (a != engine::kInvalidNode) loads[eval_slot_[a]] = load_a;
    Objective obj;
    double total = 0.0;
    for (size_t i = 0; i < num_retained; ++i) total += loads[i];
    for (size_t i = num_retained; i < eval_loads_.size(); ++i) {
      total += loads[i];
      obj.drain += loads[i];
    }
    const double mean = total / static_cast<double>(num_retained);
    for (size_t i = 0; i < num_retained; ++i) {
      const double dev = loads[i] - mean;
      obj.distance = std::max(obj.distance, std::fabs(dev));
      obj.ssq += dev * dev;
    }
    return obj;
  }

  // Applies the whole pipeline; returns the final solution.
  LocalSearchSolution Run() {
    Descend();
    Objective best_obj = Evaluate();
    std::vector<NodeId> best_placement = item_node_;

    // Perturbation sweep: from the best placement, try each feasible
    // single-item move (never into B, so Lemma 1 holds), re-descend, and
    // keep the result only if it is strictly better. The moves cycle
    // through item_order_ x retained_; the search has converged once a
    // whole cycle since the best placement last changed finds nothing
    // better. Every step is a function of the snapshot alone and the clock
    // only truncates the sequence: host speed decides how much of it runs,
    // and for a fixed speed a shorter cap runs a prefix of a longer cap's
    // steps, so best_obj never gets worse as the cap grows.
    // ForceDrainResidual runs after the best placement is chosen and is
    // outside that guarantee.
    const size_t positions = item_order_.size() * retained_.size();
    size_t next = 0;
    for (size_t untried = positions; untried > 0; --untried) {
      const int item = item_order_[next / retained_.size()];
      const NodeId dst = retained_[next % retained_.size()];
      next = (next + 1) % positions;
      if (items_[item].pinned != engine::kInvalidNode ||
          dst == item_node_[item] || !SecondaryAllows(item, dst)) {
        continue;
      }
      const MoveDelta delta = DeltaFor(item, dst);
      if (!BudgetAllows(delta.cost, delta.count)) continue;
      if (!TimeLeft()) break;
      Apply(item, dst);
      Descend();
      const Objective obj = Evaluate();
      if (obj.BetterThan(best_obj)) {
        best_obj = obj;
        best_placement = item_node_;
        untried = positions + 1;  // a whole cycle from the best, this move too
      } else {
        Restore(best_placement);
      }
    }

    Restore(best_placement);
    ForceDrainResidual();
    const Objective final_obj = Evaluate();
    LocalSearchSolution out;
    out.item_node = item_node_;
    out.load_distance = final_obj.distance;
    out.drain_load = final_obj.drain;
    out.used_cost = used_cost_;
    out.used_count = used_count_;
    out.capped = capped_;
    return out;
  }

 private:
  struct MoveDelta {
    double cost;
    int count;
  };

  // Migration cost and count of placing the item on n (ItemMoveCost and
  // ItemMoveCount together), from the table built at construction.
  const MoveDelta& MigrationTo(int item, NodeId n) const {
    return migration_to_[static_cast<size_t>(item) * num_nodes_ + n];
  }

  MoveDelta DeltaFor(int item, NodeId to) const {
    const MoveDelta& next = MigrationTo(item, to);
    const MoveDelta& now = MigrationTo(item, item_node_[item]);
    return {next.cost - now.cost, next.count - now.count};
  }

  NodeId EmptiestRetained() const {
    NodeId best = retained_.front();
    for (NodeId n : retained_) {
      if (node_load_[n] < node_load_[best]) best = n;
    }
    return best;
  }

  double LoadOn(NodeId n, double item_load) const {
    return item_load / snap_.cluster->capacity(n);
  }

  // Initial placement (no budget accounting for items already home).
  void Place(int item, NodeId n) {
    item_node_[item] = n;
    node_load_[n] += LoadOn(n, items_[item].load);
    node_secondary_[n] += items_[item].secondary_load;
    const MoveDelta m = MigrationTo(item, n);
    used_cost_ += m.cost;
    used_count_ += m.count;
  }

  // The quantity the budget limits: the move count when it is
  // count-limited, the cost otherwise. BudgetAllows is monotone in it.
  double BudgetMeasure(const MoveDelta& m) const {
    return constraints_.CountLimited() ? m.count : m.cost;
  }

  // The item's cheapest move under the budget's measure to a retained node
  // other than its own, if there is one. When the budget rejects it, it
  // rejects every move of the item.
  std::optional<MoveDelta> CheapestMove(int item) const {
    const std::array<NodeId, 2>& two = cheapest_[item];
    const NodeId to = two[0] != item_node_[item] ? two[0] : two[1];
    if (to == engine::kInvalidNode) return std::nullopt;
    return DeltaFor(item, to);
  }

  // A lower bound on the load distance of the current placement with node
  // a's load read as load_a and b's as load_b: half the spread of the
  // retained loads, since no mean sits closer than that to both the
  // largest and the smallest. Reads the step's by_load_ (retained nodes,
  // most loaded first), and shrinks by kBoundMargin so that Evaluate's
  // rounding never puts the distance it computes below the bound.
  double DistanceLowerBound(NodeId a, double load_a, NodeId b,
                            double load_b) const {
    double hi = -std::numeric_limits<double>::infinity();
    double lo = std::numeric_limits<double>::infinity();
    for (const NodeId n : by_load_) {
      if (n != a && n != b) {
        hi = node_load_[n];
        break;
      }
    }
    for (auto it = by_load_.rbegin(); it != by_load_.rend(); ++it) {
      if (*it != a && *it != b) {
        lo = node_load_[*it];
        break;
      }
    }
    const auto substitute = [&](NodeId n, double load) {
      if (eval_slot_[n] >= retained_.size()) return;  // a marked node
      hi = std::max(hi, load);
      lo = std::min(lo, load);
    };
    substitute(a, load_a);
    substitute(b, load_b);
    return (hi - lo) / 2.0 * (1.0 - kBoundMargin);
  }

  bool BudgetAllows(double cost_delta, int count_delta) const {
    if (constraints_.CountLimited()) {
      return used_count_ + count_delta <= constraints_.max_migrations;
    }
    return used_cost_ + cost_delta <=
           constraints_.max_migration_cost + kEps;
  }

  // Multi-dimensional extension (§4.3.1): a move may not push the target
  // node's secondary-resource usage past the cap.
  bool SecondaryAllows(int item, NodeId to) const {
    if (!constraints_.SecondaryLimited()) return true;
    return node_secondary_[to] + items_[item].secondary_load <=
           constraints_.max_secondary_per_node + kEps;
  }

  // Moves item to node n, updating budget accounting.
  void Apply(int item, NodeId n) {
    const NodeId cur = item_node_[item];
    if (cur == n) return;
    const MoveDelta delta = DeltaFor(item, n);
    node_load_[cur] -= LoadOn(cur, items_[item].load);
    node_load_[n] += LoadOn(n, items_[item].load);
    node_secondary_[cur] -= items_[item].secondary_load;
    node_secondary_[n] += items_[item].secondary_load;
    used_cost_ += delta.cost;
    used_count_ += delta.count;
    item_node_[item] = n;
  }

  void Restore(const std::vector<NodeId>& placement) {
    for (size_t i = 0; i < items_.size(); ++i) {
      if (item_node_[i] != placement[i]) Apply(static_cast<int>(i),
                                               placement[i]);
    }
  }

  // Best-improvement move steps, falling back to a swap step whenever no
  // move improves, until neither improves or the cap expires (checked after
  // each step, so every descent takes at least one).
  void Descend() {
    for (;;) {
      CollectNodeItems();
      if (!(ImproveOnce() || SwapOnce()) || !TimeLeft()) return;
    }
  }

  // Each node's unpinned items in candidate order, rebuilt once per step
  // for ImproveOnce and SwapOnce.
  void CollectNodeItems() {
    for (std::vector<int>& list : node_items_) list.clear();
    for (const int item : item_order_) {
      if (items_[item].pinned != engine::kInvalidNode) continue;
      node_items_[item_node_[item]].push_back(item);
    }
  }

  // Sorts *out to retained_ in the order \p before gives node loads. Each
  // sort starts from retained_'s order, so ties always break the same way.
  template <typename Before>
  void RetainedByLoad(std::vector<NodeId>* out, Before before) const {
    out->assign(retained_.begin(), retained_.end());
    std::sort(out->begin(), out->end(), [&](NodeId a, NodeId b) {
      return before(node_load_[a], node_load_[b]);
    });
  }

  // Source nodes worth moving load away from: all of B (drain), plus the
  // four most loaded retained nodes.
  void CollectSourceNodes() {
    RetainedByLoad(&by_load_, std::greater<double>());
    sources_.assign(marked_.begin(), marked_.end());
    const size_t top = std::min<size_t>(4, by_load_.size());
    sources_.insert(sources_.end(), by_load_.begin(), by_load_.begin() + top);
  }

  // Destination nodes: the six least loaded retained nodes.
  void CollectDestNodes() {
    RetainedByLoad(&dests_, std::less<double>());
    if (dests_.size() > 6) dests_.resize(6);
  }

  // One best-improvement single-item move. Returns true if a move was made.
  bool ImproveOnce() {
    CollectSourceNodes();
    CollectDestNodes();

    int best_item = -1;
    NodeId best_to = engine::kInvalidNode;
    Objective best_obj = Evaluate();
    for (NodeId src : sources_) {
      for (const int i : node_items_[src]) {
        const std::optional<MoveDelta> cheapest = CheapestMove(i);
        if (!cheapest || !BudgetAllows(cheapest->cost, cheapest->count)) {
          continue;
        }
        const double src_load = node_load_[src] - LoadOn(src, items_[i].load);
        for (NodeId dst : dests_) {
          if (dst == src) continue;
          if (!SecondaryAllows(i, dst)) continue;
          const MoveDelta delta = DeltaFor(i, dst);
          if (!BudgetAllows(delta.cost, delta.count)) continue;
          const double dst_load =
              node_load_[dst] + LoadOn(dst, items_[i].load);
          if (DistanceLowerBound(src, src_load, dst, dst_load) >
              best_obj.distance + kEps) {
            continue;  // cannot be BetterThan the best
          }
          const Objective obj = Evaluate(src, src_load, dst, dst_load);
          if (obj.BetterThan(best_obj)) {
            best_obj = obj;
            best_item = i;
            best_to = dst;
          }
        }
      }
    }
    if (best_item < 0) return false;
    Apply(best_item, best_to);
    return true;
  }

  // One best-improvement swap between a loaded and an unloaded node.
  bool SwapOnce() {
    RetainedByLoad(&by_load_, std::greater<double>());
    if (by_load_.size() < 2) return false;

    const size_t top = std::min<size_t>(2, by_load_.size());
    int best_a = -1, best_b = -1;
    Objective best_obj = Evaluate();
    for (size_t hi = 0; hi < top; ++hi) {
      const NodeId src = by_load_[hi];
      for (size_t lo = 0; lo < top; ++lo) {
        const NodeId dst = by_load_[by_load_.size() - 1 - lo];
        if (src == dst || node_items_[dst].empty()) continue;
        // No partner's move back to src is cheaper than the cheapest move
        // of the cheapest partner (src is another retained node, so every
        // partner has one).
        MoveDelta partner = *CheapestMove(node_items_[dst].front());
        for (const int b : node_items_[dst]) {
          const MoveDelta m = *CheapestMove(b);
          if (BudgetMeasure(m) < BudgetMeasure(partner)) partner = m;
        }
        for (const int a : node_items_[src]) {
          const MoveDelta da = DeltaFor(a, dst);
          if (!BudgetAllows(da.cost + partner.cost, da.count + partner.count)) {
            continue;
          }
          for (const int b : node_items_[dst]) {
            const MoveDelta db = DeltaFor(b, src);
            if (!BudgetAllows(da.cost + db.cost, da.count + db.count)) {
              continue;
            }
            if (constraints_.SecondaryLimited()) {
              const double sec_src = node_secondary_[src] -
                                     items_[a].secondary_load +
                                     items_[b].secondary_load;
              const double sec_dst = node_secondary_[dst] -
                                     items_[b].secondary_load +
                                     items_[a].secondary_load;
              if (sec_src > constraints_.max_secondary_per_node + kEps ||
                  sec_dst > constraints_.max_secondary_per_node + kEps) {
                continue;
              }
            }
            const double src_load =
                node_load_[src] + LoadOn(src, items_[b].load - items_[a].load);
            const double dst_load =
                node_load_[dst] + LoadOn(dst, items_[a].load - items_[b].load);
            if (DistanceLowerBound(src, src_load, dst, dst_load) >
                best_obj.distance + kEps) {
              continue;  // cannot be BetterThan the best
            }
            const Objective obj = Evaluate(src, src_load, dst, dst_load);
            if (obj.BetterThan(best_obj)) {
              best_obj = obj;
              best_a = a;
              best_b = b;
            }
          }
        }
      }
    }
    if (best_a < 0) return false;
    const NodeId na = item_node_[best_a];
    const NodeId nb = item_node_[best_b];
    Apply(best_a, nb);
    Apply(best_b, na);
    return true;
  }

  // Drain completion. Lemma 2 guarantees the true optimum leaves B empty,
  // but the descent can stall just short of it: once B's residual is small,
  // the mean is inflated by only residual / |A| — far below one item's
  // granularity — so every remaining drain move pushes its destination
  // above the mean, worsens d/ssq, and is rejected. That is a local
  // optimum, not the optimum (Fig 5's 1-overloaded-node setup parked one
  // marked node there forever). Scale-in must finish, so whatever budget
  // the improvement phases left is spent force-draining marked nodes,
  // heaviest item first, each to the destination that damages the balance
  // least — improvement is NOT required here. Never runs while urgent
  // rebalancing is consuming the budget (those phases ran first), so the
  // integrated drain-vs-balance trade-off is preserved.
  void ForceDrainResidual() {
    for (;;) {
      // Residual items still on marked nodes, heaviest first. Heavier items
      // are tried first (they finish nodes sooner), but an unaffordable
      // heavy item must not block a lighter one that still fits the
      // remaining budget or the secondary caps.
      std::vector<int> residual;
      for (size_t i = 0; i < items_.size(); ++i) {
        const NodeId n = item_node_[i];
        if (n == engine::kInvalidNode || !snap_.cluster->is_marked(n)) {
          continue;
        }
        if (items_[i].pinned != engine::kInvalidNode) continue;
        residual.push_back(static_cast<int>(i));
      }
      if (residual.empty()) return;  // B is empty
      std::sort(residual.begin(), residual.end(), [&](int a, int b) {
        if (items_[a].load != items_[b].load) {
          return items_[a].load > items_[b].load;
        }
        // Equal loads: prefer draining the measurably hotter group first
        // (no-op when telemetry is off — all shares are 0).
        return items_[a].service_share > items_[b].service_share;
      });
      bool moved = false;
      for (const int item : residual) {
        const NodeId cur = item_node_[item];
        const double cur_load =
            node_load_[cur] - LoadOn(cur, items_[item].load);
        NodeId best_to = engine::kInvalidNode;
        Objective best_obj;
        for (NodeId dst : retained_) {
          if (!SecondaryAllows(item, dst)) continue;
          const MoveDelta delta = DeltaFor(item, dst);
          if (!BudgetAllows(delta.cost, delta.count)) continue;
          const Objective obj =
              Evaluate(cur, cur_load, dst,
                       node_load_[dst] + LoadOn(dst, items_[item].load));
          if (best_to == engine::kInvalidNode || obj.BetterThan(best_obj)) {
            best_obj = obj;
            best_to = dst;
          }
        }
        if (best_to != engine::kInvalidNode) {
          Apply(item, best_to);
          moved = true;
          break;
        }
      }
      if (!moved) return;  // nothing affordable remains
    }
  }

  const engine::SystemSnapshot& snap_;
  const std::vector<BalanceItem>& items_;
  const RebalanceConstraints& constraints_;
  std::chrono::steady_clock::time_point deadline_;

  std::vector<NodeId> retained_;
  std::vector<NodeId> marked_;
  size_t num_nodes_ = 0;  ///< All node ids, terminated ones included.
  std::vector<MoveDelta> migration_to_;  ///< See MigrationTo().
  /// Per item: its two retained nodes cheapest under BudgetMeasure.
  std::vector<std::array<NodeId, 2>> cheapest_;
  std::vector<double> eval_loads_;       ///< See Evaluate().
  std::vector<size_t> eval_slot_;        ///< Node id -> eval_loads_ index.
  std::vector<NodeId> by_load_, sources_, dests_;  ///< Per-step node lists.
  std::vector<double> node_load_;
  std::vector<double> node_secondary_;
  std::vector<NodeId> item_node_;
  std::vector<int> item_order_;  ///< Candidate order (measured share desc).
  std::vector<std::vector<int>> node_items_;  ///< See CollectNodeItems().
  double used_cost_ = 0.0;
  int used_count_ = 0;
  bool capped_ = false;  ///< See TimeLeft().
};

}  // namespace

Result<LocalSearchSolution> LocalSearchSolver::Solve(
    const engine::SystemSnapshot& snapshot,
    const std::vector<BalanceItem>& items,
    const RebalanceConstraints& constraints,
    const LocalSearchOptions& options) {
  if (snapshot.cluster == nullptr || snapshot.topology == nullptr) {
    return Status::InvalidArgument("snapshot missing cluster or topology");
  }
  if (snapshot.cluster->retained_nodes().empty()) {
    return Status::InvalidArgument("no retained nodes to balance over");
  }
  for (const BalanceItem& item : items) {
    if (item.pinned != engine::kInvalidNode &&
        !snapshot.cluster->is_active(item.pinned)) {
      return Status::InvalidArgument("item pinned to inactive node");
    }
  }
  Search search(snapshot, items, constraints, options);
  return search.Run();
}

}  // namespace albic::balance
