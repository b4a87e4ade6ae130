#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "stats/histogram.h"

namespace kwikr::obs {

/// Label set identifying one series of an instrument, e.g.
/// {{"ac", "BE"}, {"arm", "kwikr"}}. Registries normalize labels by sorting
/// on key, so insertion order never matters.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic integer counter. Add is lock-free; merging two counters adds
/// their values, so shard-and-merge aggregation is exact and order-free.
class Counter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value instrument. The merge operation is max — the only combining
/// rule that is associative *and* commutative for a point-in-time value, so
/// merged snapshots stay worker-count-invariant. Use counters or histograms
/// for anything where max is not the right aggregate.
///
/// A never-written gauge is *unset* (internally a -inf sentinel): it reads
/// as 0.0, but merging treats it as the max identity, so negative values
/// survive shard-and-merge exactly (Max(-5) on a fresh gauge yields -5, not
/// a spurious default 0).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` when larger (the merge rule). On an unset
  /// gauge this adopts `v` unconditionally.
  void Max(double v);
  [[nodiscard]] double value() const {
    const double v = value_.load(std::memory_order_relaxed);
    return v == kUnset ? 0.0 : v;
  }
  /// False until the first Set/Max.
  [[nodiscard]] bool has_value() const {
    return value_.load(std::memory_order_relaxed) != kUnset;
  }

 private:
  static constexpr double kUnset = -std::numeric_limits<double>::infinity();
  std::atomic<double> value_{kUnset};
};

/// Histogram instrument: a mutex-guarded stats::Histogram sketch. Merging
/// adds bin counts, which is exact, so a merged cell equals the cell of the
/// concatenated samples for any sharding.
class HistogramCell {
 public:
  explicit HistogramCell(stats::Histogram::Config config)
      : histogram_(config) {}

  void Observe(double sample);
  void Merge(const stats::Histogram& other);
  /// Merge for untrusted input: returns false, leaving the cell unchanged,
  /// when `other` is not stats::Histogram::Mergeable into it.
  [[nodiscard]] bool TryMerge(const stats::Histogram& other);
  [[nodiscard]] stats::Histogram Snapshot() const;

 private:
  mutable std::mutex mutex_;
  stats::Histogram histogram_;
};

/// Thread-safe registry of labeled instruments.
///
/// Get* returns a stable reference: hold it across a hot loop instead of
/// re-resolving the (name, labels) key per event. The intended fleet pattern:
/// each worker records into its own registry and merges once when its task
/// finishes. Every merge rule (counter add, histogram bin add, gauge max) is
/// associative and commutative, so the merged registry — and its serialized
/// Prometheus text — is bit-identical for any worker count and completion
/// order, provided the per-task values themselves are task-deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(std::string_view name, Labels labels = {});
  Gauge& GetGauge(std::string_view name, Labels labels = {});
  /// `config` applies when the cell is created; later calls with the same
  /// (name, labels) return the existing cell regardless of config.
  HistogramCell& GetHistogram(std::string_view name, Labels labels = {},
                              stats::Histogram::Config config = {});

  /// Merges every instrument of `other` into this registry (creating
  /// missing ones). Safe against concurrent Get/record on both sides.
  void Merge(const MetricsRegistry& other);

  /// One serialized instrument, in deterministic (name, labels) order.
  struct Row {
    enum class Kind { kCounter, kGauge, kHistogram };
    std::string name;
    Labels labels;
    Kind kind = Kind::kCounter;
    std::uint64_t counter_value = 0;
    double gauge_value = 0.0;
    /// False for a gauge series that exists but was never Set/Max'd — the
    /// unset sentinel must survive serialization, or a cross-process merge
    /// would turn it into a spurious 0.0 that swallows negative maxima.
    bool gauge_set = true;
    stats::Histogram histogram;  ///< only meaningful for kHistogram.
  };

  /// Deterministically ordered snapshot of every instrument.
  [[nodiscard]] std::vector<Row> Snapshot() const;

  /// Number of registered series (all kinds).
  [[nodiscard]] std::size_t size() const;

 private:
  using SeriesKey = std::pair<std::string, Labels>;

  static Labels Normalize(Labels labels);

  mutable std::mutex mutex_;
  // node-based maps: values never move, so returned references are stable.
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
  std::map<SeriesKey, std::unique_ptr<HistogramCell>> histograms_;
};

/// sim::EventLoopProbe that feeds a MetricsRegistry: per-event-type
/// execution counters (`sim_events_total{type=...}`). Attach with
/// `loop.SetProbe(&probe)`; with no probe attached the loop's hot path is a
/// single null check.
///
/// Not thread-safe by itself (an EventLoop is single-threaded); use one
/// probe per loop.
class EventLoopMetricsProbe : public sim::EventLoopProbe {
 public:
  explicit EventLoopMetricsProbe(MetricsRegistry& registry)
      : registry_(&registry) {}

  void OnExecuted(const char* type, sim::Time at) override;

  /// Total events observed (== loop.executed() delta while attached).
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  MetricsRegistry* registry_;
  std::map<std::string, Counter*, std::less<>> by_type_;
  std::uint64_t total_ = 0;
};

}  // namespace kwikr::obs
