#pragma once

/// \file
/// \brief Typed metrics registry: counters, gauges and LogHistograms behind
/// a lock-sharded name+label index, with Prometheus-style text exposition
/// and a JSON snapshot. The observability substrate every subsystem
/// (engine, checkpointing, sharded sources, controller) publishes into.
///
/// Design contract: publishing never steers the computation — metric
/// objects are plain atomics (histograms a small mutex) that subsystems
/// update, and lookup (`Counter()`/`Gauge()`/`Histogram()`) is done once at
/// wiring time, never per tuple. Everything is off by default: subsystems
/// hold a `MetricsRegistry*` that is nullptr unless the caller opted in,
/// so the disabled cost is one pointer test on cold paths and zero on hot
/// paths (hot paths publish per period, not per tuple).

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/log_histogram.h"

namespace albic {

/// \brief Label set of one metric instance: sorted key=value pairs.
/// Sorted so the same labels always map to the same series regardless of
/// the order the caller wrote them in.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// \brief Monotonic counter (64-bit, relaxed atomics — totals only, no
/// ordering is implied between series).
class CounterMetric {
 public:
  void Increment() { Add(1); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief Point-in-time gauge. `SetMax` is a CAS loop, giving lock-free
/// high-water marks from many threads (SPSC occupancy, mailbox depth).
class GaugeMetric {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// \brief LogHistogram behind a mutex. Publishers record or merge whole
/// histograms once per period, so the lock is uncontended in practice; it
/// exists for the exposition reader.
class HistogramMetric {
 public:
  void Record(int64_t value_us) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Record(value_us);
  }
  void RecordN(int64_t value_us, int64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.RecordN(value_us, n);
  }
  void Merge(const LogHistogram& other) {
    std::lock_guard<std::mutex> lock(mu_);
    histogram_.Merge(other);
  }
  /// \brief Copy of the current histogram (for exposition / tests).
  LogHistogram Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return histogram_;
  }

 private:
  mutable std::mutex mu_;
  LogHistogram histogram_;
};

/// \brief Lock-sharded registry of named metrics.
///
/// Get-or-create returns a stable pointer (entries are never deleted or
/// moved), so publishers resolve their series once and then update through
/// the pointer without touching the registry again. The shard index is a
/// hash of the metric name: lookups of different names from different
/// threads contend only 1/kShards of the time, and exposition walks the
/// shards in order, holding one shard lock at a time.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// \brief Process-wide default instance (examples and benches); tests
  /// construct their own.
  static MetricsRegistry& Global();

  CounterMetric* Counter(const std::string& name,
                         const MetricLabels& labels = {});
  GaugeMetric* Gauge(const std::string& name, const MetricLabels& labels = {});
  HistogramMetric* Histogram(const std::string& name,
                             const MetricLabels& labels = {});

  /// \brief Prometheus-style text exposition: one `name{k="v"} value` line
  /// per counter/gauge series; histograms expose `_count`, `_sum` and
  /// percentile lines with a `quantile` label. Series are sorted by name
  /// then labels, so the output is deterministic.
  std::string TextExposition() const;

  /// \brief The same snapshot as one JSON object:
  /// `{"metrics":[{"name":...,"type":...,"labels":{...},"value":...},...]}`.
  std::string JsonSnapshot() const;

  /// \brief Number of distinct series currently registered.
  size_t NumSeries() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    std::string name;
    MetricLabels labels;
    Kind kind;
    CounterMetric counter;
    GaugeMetric gauge;
    HistogramMetric histogram;
  };

  struct Shard {
    mutable std::mutex mu;
    // Key: name + '\0' + serialized sorted labels. deque keeps pointers
    // stable across inserts.
    std::map<std::string, Entry*> index;
    std::deque<Entry> entries;
  };

  static constexpr size_t kShards = 8;

  Entry* GetOrCreate(const std::string& name, const MetricLabels& labels,
                     Kind kind);
  /// \brief Stable snapshot of every entry pointer, sorted by name+labels.
  std::vector<const Entry*> SortedEntries() const;

  Shard shards_[kShards];
};

}  // namespace albic
