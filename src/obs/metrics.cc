#include "obs/metrics.h"

#include <algorithm>

namespace kwikr::obs {

void Gauge::Max(double v) {
  double current = value_.load(std::memory_order_relaxed);
  while (v > current && !value_.compare_exchange_weak(
                            current, v, std::memory_order_relaxed)) {
  }
}

void HistogramCell::Observe(double sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Add(sample);
}

void HistogramCell::Merge(const stats::Histogram& other) {
  std::lock_guard<std::mutex> lock(mutex_);
  histogram_.Merge(other);
}

bool HistogramCell::TryMerge(const stats::Histogram& other) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!histogram_.Mergeable(other)) return false;
  histogram_.Merge(other);
  return true;
}

stats::Histogram HistogramCell::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histogram_;
}

Labels MetricsRegistry::Normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

Counter& MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  SeriesKey key{std::string(name), Normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[std::move(key)];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  SeriesKey key{std::string(name), Normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[std::move(key)];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramCell& MetricsRegistry::GetHistogram(std::string_view name,
                                             Labels labels,
                                             stats::Histogram::Config config) {
  SeriesKey key{std::string(name), Normalize(std::move(labels))};
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[std::move(key)];
  if (slot == nullptr) slot = std::make_unique<HistogramCell>(config);
  return *slot;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  // Snapshot the source outside our own lock (the two registries have
  // independent mutexes; copying under the source lock, then writing under
  // ours, avoids holding both at once).
  struct GaugeCopy {
    SeriesKey key;
    bool set = false;
    double value = 0.0;
  };
  std::vector<std::pair<SeriesKey, std::uint64_t>> counters;
  std::vector<GaugeCopy> gauges;
  std::vector<std::pair<SeriesKey, stats::Histogram>> histograms;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    for (const auto& [key, counter] : other.counters_) {
      counters.emplace_back(key, counter->value());
    }
    for (const auto& [key, gauge] : other.gauges_) {
      gauges.push_back(GaugeCopy{key, gauge->has_value(), gauge->value()});
    }
    for (const auto& [key, cell] : other.histograms_) {
      histograms.emplace_back(key, cell->Snapshot());
    }
  }
  for (auto& [key, value] : counters) {
    GetCounter(key.first, key.second).Add(value);
  }
  for (auto& copy : gauges) {
    // Create the cell even when the source is unset (so series presence is
    // worker-count-invariant), but only an actually-set value participates
    // in the max — otherwise a default 0 would swallow negative maxima.
    Gauge& cell = GetGauge(copy.key.first, copy.key.second);
    if (copy.set) cell.Max(copy.value);
  }
  for (auto& [key, histogram] : histograms) {
    GetHistogram(key.first, key.second, histogram.config())
        .Merge(histogram);
  }
}

std::vector<MetricsRegistry::Row> MetricsRegistry::Snapshot() const {
  std::vector<Row> rows;
  std::lock_guard<std::mutex> lock(mutex_);
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, counter] : counters_) {
    Row row;
    row.name = key.first;
    row.labels = key.second;
    row.kind = Row::Kind::kCounter;
    row.counter_value = counter->value();
    rows.push_back(std::move(row));
  }
  for (const auto& [key, gauge] : gauges_) {
    Row row;
    row.name = key.first;
    row.labels = key.second;
    row.kind = Row::Kind::kGauge;
    row.gauge_value = gauge->value();
    row.gauge_set = gauge->has_value();
    rows.push_back(std::move(row));
  }
  for (const auto& [key, cell] : histograms_) {
    Row row;
    row.name = key.first;
    row.labels = key.second;
    row.kind = Row::Kind::kHistogram;
    row.histogram = cell->Snapshot();
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return rows;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void EventLoopMetricsProbe::OnExecuted(const char* type, sim::Time /*at*/) {
  auto it = by_type_.find(std::string_view(type));
  if (it == by_type_.end()) {
    Counter* count =
        &registry_->GetCounter("sim_events_total", {{"type", type}});
    it = by_type_.emplace(std::string(type), count).first;
  }
  it->second->Add();
  ++total_;
}

}  // namespace kwikr::obs
