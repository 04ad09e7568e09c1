#pragma once

/// \file
/// \brief StateArena: process-wide ownership of operator state, with a
/// LeaseTable that maps each key group to the node currently holding its
/// lease. Turns reconfiguration into an ownership flip instead of a data
/// relocation (STRETCH-style virtual partitions over shared-nothing
/// groups).

#include <cstdint>
#include <vector>

#include "engine/assignment.h"
#include "engine/operator.h"
#include "engine/topology.h"
#include "engine/types.h"

namespace albic::engine {

/// \brief Maps every (operator, key group) slot to the node holding its
/// lease, and counts ownership flips.
///
/// The table is the single mutation point for group ownership: every
/// reconfiguration — direct/indirect migration, lease flip, failure
/// recovery — lands in Flip(), which advances the group's lease epoch.
/// Flips happen only on the driving thread at quiescent instants (between
/// tuples, at wave barriers), which is what makes the routing change
/// atomic with respect to delivery: batches already in flight resolve the
/// new owner when they deliver.
class LeaseTable {
 public:
  LeaseTable() = default;
  explicit LeaseTable(Assignment initial)
      : assignment_(std::move(initial)),
        lease_epoch_(static_cast<size_t>(assignment_.num_groups()), 0) {}

  /// \brief Node currently holding the group's lease.
  NodeId owner_of(KeyGroupId g) const { return assignment_.node_of(g); }

  /// \brief Reassigns the group's lease to \p to and advances its lease
  /// epoch. Must be called from the driving thread at a quiescent instant.
  void Flip(KeyGroupId g, NodeId to) {
    assignment_.set_node(g, to);
    ++lease_epoch_[g];
    ++flips_;
  }

  /// \brief The underlying group -> node map (the paper's q matrix).
  const Assignment& assignment() const { return assignment_; }

  /// \brief How many times the group's lease changed hands.
  uint64_t lease_epoch(KeyGroupId g) const {
    return lease_epoch_[static_cast<size_t>(g)];
  }

  /// \brief Total ownership flips across all groups.
  int64_t flips() const { return flips_; }

 private:
  Assignment assignment_;
  std::vector<uint64_t> lease_epoch_;
  int64_t flips_ = 0;
};

/// \brief Owns the per-(operator, key group) state slots of a LocalEngine
/// plus the LeaseTable that says which node holds each slot's lease.
///
/// In the single-process runtime every operator instance is process-wide
/// and already keys its state by group, so the operator table IS the slot
/// table: "the state lives on node N" was always a bookkeeping fiction
/// maintained by the assignment. The arena makes that explicit — state
/// never moves between nodes, only leases do — which is what lets
/// MigrationMode::kLease reassign a group with zero bytes serialized.
/// The byte-moving modes (direct/indirect) are preserved unchanged
/// on top of the arena: they model the inter-node transfer a distributed
/// deployment would pay, and remain the recovery path across a FailNode
/// boundary where the slot's live state is gone.
class StateArena {
 public:
  /// \brief Takes ownership of the operator slot table (entries may be
  /// null for stateless sources) and the initial lease assignment.
  StateArena(const Topology* topology, std::vector<StreamOperator*> operators,
             Assignment initial);

  /// \brief The operator holding the slots of \p op (null for sources).
  StreamOperator* slot(OperatorId op) const {
    return operators_[static_cast<size_t>(op)];
  }

  /// \brief The whole slot table, indexed by OperatorId.
  const std::vector<StreamOperator*>& operators() const { return operators_; }

  /// \brief Node currently holding the group's lease.
  NodeId owner_of(KeyGroupId g) const { return leases_.owner_of(g); }

  /// \brief Reassigns the group's lease (see LeaseTable::Flip).
  void Flip(KeyGroupId g, NodeId to) { leases_.Flip(g, to); }

  /// \brief The current group -> node lease map.
  const Assignment& assignment() const { return leases_.assignment(); }

  const LeaseTable& leases() const { return leases_; }

 private:
  std::vector<StreamOperator*> operators_;
  LeaseTable leases_;
};

}  // namespace albic::engine
