#pragma once

/// \file
/// \brief TupleBatch, the unit of work of the batched runtime: a run
/// of tuples bound for one (operator, key-group) pair.

#include <cstddef>
#include <utility>
#include <vector>

#include "engine/tuple.h"

namespace albic::engine {

/// \brief A run of tuples destined for one (operator, key group) pair.
///
/// The unit of work of the batched runtime: routing, delivery accounting and
/// operator invocation all happen once per batch instead of once per tuple,
/// which is where the runtime's throughput comes from. Tuples within a
/// batch preserve their arrival order, so each key group sees its input in
/// FIFO order, as one tuple at a time would deliver it.
class TupleBatch {
 public:
  TupleBatch() = default;
  explicit TupleBatch(std::vector<Tuple> tuples) : tuples_(std::move(tuples)) {}

  void push_back(const Tuple& tuple) { tuples_.push_back(tuple); }
  void reserve(size_t n) { tuples_.reserve(n); }
  void clear() { tuples_.clear(); }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const Tuple& operator[](size_t i) const { return tuples_[i]; }

  std::vector<Tuple>::const_iterator begin() const { return tuples_.begin(); }
  std::vector<Tuple>::const_iterator end() const { return tuples_.end(); }

  std::vector<Tuple>& mutable_tuples() { return tuples_; }
  const std::vector<Tuple>& tuples() const { return tuples_; }

 private:
  std::vector<Tuple> tuples_;
};

}  // namespace albic::engine
