#include "stats/histogram.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace kwikr::stats {

Histogram::Histogram() : Histogram(Config{}) {}

Histogram::Histogram(Config config) : config_(config) {
  assert(config_.bins > 0);
  assert(config_.lo < config_.hi);
  counts_.assign(config_.bins, 0);
}

double Histogram::BinWidth() const {
  return (config_.hi - config_.lo) / static_cast<double>(config_.bins);
}

void Histogram::Add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  ++count_;
  const double offset = (sample - config_.lo) / BinWidth();
  std::size_t bin = 0;
  if (offset > 0.0) {
    bin = std::min(static_cast<std::size_t>(offset), config_.bins - 1);
  }
  ++counts_[bin];
}

bool Histogram::Mergeable(const Histogram& other) const {
  return config_.lo == other.config_.lo && config_.hi == other.config_.hi &&
         config_.bins == other.config_.bins &&
         other.count_ <= std::numeric_limits<std::int64_t>::max() - count_;
}

void Histogram::Merge(const Histogram& other) {
  assert(Mergeable(other));
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

Histogram Histogram::FromParts(Config config, std::vector<std::int64_t> counts,
                               std::int64_t count, double min, double max) {
  Histogram histogram(config);
  assert(counts.size() == config.bins);
  histogram.counts_ = std::move(counts);
  histogram.count_ = count;
  histogram.min_ = min;
  histogram.max_ = max;
  return histogram;
}

double Histogram::min() const { return count_ > 0 ? min_ : 0.0; }

double Histogram::max() const { return count_ > 0 ? max_ : 0.0; }

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  // The extremes are tracked exactly, so report them exactly — this also
  // keeps clamped out-of-range samples honest at the tails.
  if (clamped == 0.0) return min_;
  if (clamped == 100.0) return max_;
  // Target cumulative count under the closest-rank convention; the result
  // is then clamped to the observed [min, max] so clamped edge bins cannot
  // report values outside the data.
  const double target =
      clamped / 100.0 * static_cast<double>(count_ - 1) + 1.0;
  std::int64_t cumulative = 0;
  for (std::size_t bin = 0; bin < counts_.size(); ++bin) {
    if (counts_[bin] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[bin];
    if (static_cast<double>(cumulative) >= target) {
      const double frac = (target - before) / static_cast<double>(counts_[bin]);
      const double value =
          config_.lo + (static_cast<double>(bin) + frac) * BinWidth();
      return std::clamp(value, min_, max_);
    }
  }
  return max_;
}

void Histogram::Reset() {
  counts_.assign(config_.bins, 0);
  count_ = 0;
  min_ = 0.0;
  max_ = 0.0;
}

}  // namespace kwikr::stats
