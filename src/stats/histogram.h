#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace kwikr::stats {

/// Fixed-bin histogram percentile sketch.
///
/// The mergeable counterpart of `Percentile`: each worker of a parallel
/// sweep accumulates samples into its own Histogram and the shards are
/// combined with `Merge` (exactly associative — a merged histogram equals
/// the histogram of the concatenated samples). Quantile queries interpolate
/// within a bin, so the error is bounded by one bin width inside [lo, hi];
/// samples outside the range are clamped into the edge bins but the exact
/// observed min/max are tracked so extreme quantiles stay honest.
class Histogram {
 public:
  struct Config {
    double lo = 0.0;
    double hi = 1000.0;
    std::size_t bins = 256;
  };

  Histogram();  ///< default binning (Config{}).
  explicit Histogram(Config config);

  void Add(double sample);

  /// Merges another histogram into this one. Both must share the same
  /// binning (lo/hi/bins); merging incompatible sketches is a logic error.
  void Merge(const Histogram& other);

  /// True when Merge(other) is well-defined: the same binning, and a merged
  /// count that fits in int64. Codecs check this before merging input read
  /// from a file.
  [[nodiscard]] bool Mergeable(const Histogram& other) const;

  /// Reconstructs a histogram from its serialized parts — the inverse of
  /// reading (config, counts, count, min, max) off an existing sketch. The
  /// cross-process spill/merge codecs depend on this to rebuild a worker's
  /// sketch exactly on the other side of a file. `counts` must have
  /// `config.bins` entries and sum to `count`; violating that is a logic
  /// error (the codecs validate before calling).
  static Histogram FromParts(Config config, std::vector<std::int64_t> counts,
                             std::int64_t count, double min, double max);

  /// p-th percentile estimate, p in [0, 100]. An empty histogram returns
  /// 0.0, matching `stats::Percentile` on an empty input.
  [[nodiscard]] double Percentile(double p) const;

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const std::vector<std::int64_t>& counts() const {
    return counts_;
  }

  void Reset();

 private:
  [[nodiscard]] double BinWidth() const;

  Config config_;
  std::vector<std::int64_t> counts_;
  std::int64_t count_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace kwikr::stats
