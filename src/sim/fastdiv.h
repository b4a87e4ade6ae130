#pragma once

#include <cstdint>

namespace kwikr::sim {

/// Exact division by a small runtime-constant divisor via one multiply and
/// one shift — no hardware divide. Built for the EDCA freeze sweep, where the
/// same divisor (the PHY slot duration) divides millions of small deltas per
/// second and the ~25-cycle unpipelined `div` was the single largest hidden
/// cost of the arbitration path.
///
/// Correctness: with magic = ceil(2^40 / d) we have magic * d = 2^40 + e,
/// 0 <= e < d, so for n >= 0
///     floor(n * magic / 2^40) = floor((n + n*e/2^40) / d)
/// and the error term n*e/2^40 < n*d/2^40 stays below 1 whenever
/// n < 2^24 and d <= 2^16 — in that window the result equals floor(n/d)
/// for EVERY n and d, not just on average. Outside the window (huge divisor
/// or huge dividend) Divide() falls back to the hardware divide, so the
/// class is exact unconditionally; the fast window just has to cover the
/// hot callers (EDCA deltas are < cw_max * slot ~ 9.2e6 with default
/// timing, comfortably inside 2^24).
class FastDiv {
 public:
  static constexpr std::int64_t kMaxFastDividend = std::int64_t{1} << 24;
  static constexpr std::int64_t kMaxFastDivisor = std::int64_t{1} << 16;

  FastDiv() = default;
  explicit FastDiv(std::int64_t divisor) : divisor_(divisor) {
    if (divisor_ >= 1 && divisor_ <= kMaxFastDivisor) {
      const std::uint64_t d = static_cast<std::uint64_t>(divisor_);
      magic_ = ((std::uint64_t{1} << 40) + d - 1) / d;  // setup-time div only
    }
  }

  [[nodiscard]] std::int64_t divisor() const { return divisor_; }

  /// floor(n / divisor) for n >= 0.
  [[nodiscard]] std::int64_t Divide(std::int64_t n) const {
    if (magic_ != 0 && n < kMaxFastDividend) {
      return static_cast<std::int64_t>(
          (static_cast<std::uint64_t>(n) * magic_) >> 40);
    }
    return n / divisor_;
  }

 private:
  std::uint64_t magic_ = 0;  ///< 0 = no fast path; always fall back.
  std::int64_t divisor_ = 1;
};

}  // namespace kwikr::sim
