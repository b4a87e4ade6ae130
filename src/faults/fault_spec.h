#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace kwikr::faults {

/// The fault classes the injector can toggle independently (mid-call
/// schedules address them by these names; see ParseFaultSpec).
enum class FaultKind {
  kGilbertElliott,  ///< "ge": bursty per-attempt frame loss on the medium.
  kReorder,         ///< "reorder": delivery-side extra latency (overtaking).
  kDuplicate,       ///< "duplicate": delivery-side frame duplication.
  kDrop,            ///< "drop": delivery-side frame vanishing (post-MAC).
  kWan,             ///< "wan": wired-downlink loss and jitter.
  kChurn,           ///< "churn": MAC-rate downshift churn on the client.
  kSkew,            ///< "skew": clock skew on probe timestamps.
  kWmm,             ///< "wmm": partial/absent WMM prioritization at the AP.
};
inline constexpr int kNumFaultKinds = 8;

/// Returns the schedule name of a fault kind ("ge", "reorder", ...).
const char* Name(FaultKind kind);

/// One mid-call schedule entry: at `at`, switch `kind` on or off.
struct FaultScheduleEntry {
  sim::Time at = 0;
  FaultKind kind = FaultKind::kGilbertElliott;
  bool enable = true;
};

/// A declarative, deterministic impairment plan. Every knob defaults to
/// inert; a default-constructed spec injects nothing (`any()` is false).
/// All randomness used to realize the plan flows from one sim::Rng handed
/// to the FaultInjector, so the same (seed, spec) reproduces the same
/// impairment trace bit for bit.
///
/// Specs parse from key=value text (one key per line, `#` comments):
///
///   # Bursty loss: Gilbert–Elliott with mean dwell times per state.
///   ge.enable=1
///   ge.mean_good_ms=400
///   ge.mean_bad_ms=40
///   ge.loss_good=0.0
///   ge.loss_bad=0.7
///   # Delivery-layer mangling after MAC success.
///   reorder.prob=0.02
///   reorder.delay_ms=4
///   duplicate.prob=0.01
///   drop.prob=0.001
///   # Wired-downlink impairments.
///   wan.loss_prob=0.001
///   wan.jitter_prob=0.2
///   wan.jitter_ms=2
///   # AP WMM behaviour: on | off | partial.
///   wmm.mode=partial
///   wmm.honor_prob=0.4
///   # MAC-rate downshift churn on the client station.
///   churn.period_ms=1500
///   churn.low_rate_bps=6500000
///   churn.low_error_prob=0.05
///   # Clock skew applied to probe timestamps.
///   skew.ppm=150
///   skew.offset_ms=30
///   # Mid-call schedule: "<at_ms> <fault> on|off". A configured fault is
///   # active from t=0 unless an entry at 0 disables it.
///   schedule=10000 ge off
///   schedule=20000 ge on
struct FaultSpec {
  struct GilbertElliottSpec {
    bool enable = false;
    double mean_good_ms = 400.0;  ///< mean dwell in the Good state (>= 1).
    double mean_bad_ms = 40.0;    ///< mean dwell in the Bad state (>= 1).
    double loss_good = 0.0;       ///< per-attempt loss prob, Good state.
    double loss_bad = 0.7;        ///< per-attempt loss prob, Bad state.
  };

  /// Delivery-layer mangling, applied after a frame wins the medium: the
  /// receiver-side pathologies (reordering, duplication, vanishing frames)
  /// that MAC-level retransmission cannot explain.
  struct MangleSpec {
    double reorder_prob = 0.0;
    double reorder_delay_ms = 3.0;  ///< extra latency of a reordered frame.
    double duplicate_prob = 0.0;
    double drop_prob = 0.0;
  };

  struct WanSpec {
    double loss_prob = 0.0;
    double jitter_prob = 0.0;
    double jitter_ms = 0.0;  ///< extra propagation delay when jitter hits.
  };

  enum class WmmMode {
    kHonest,   ///< AP honours TOS→AC mapping (when wmm_enabled).
    kOff,      ///< AP collapses all downlink traffic into Best Effort.
    kPartial,  ///< AP honours priority with probability `honor_prob`.
  };
  struct WmmSpec {
    WmmMode mode = WmmMode::kHonest;
    double honor_prob = 0.5;  ///< only meaningful in kPartial mode.
  };

  struct ChurnSpec {
    double period_ms = 0.0;  ///< 0 = disabled; toggles every period.
    std::int64_t low_rate_bps = 6'500'000;
    double low_error_prob = 0.0;  ///< frame error prob while downshifted.
  };

  struct SkewSpec {
    double ppm = 0.0;       ///< clock rate error, parts per million.
    double offset_ms = 0.0; ///< constant clock offset.
  };

  GilbertElliottSpec ge;
  MangleSpec mangle;
  WanSpec wan;
  WmmSpec wmm;
  ChurnSpec churn;
  SkewSpec skew;
  std::vector<FaultScheduleEntry> schedule;

  /// True when any fault class is configured (an all-defaults spec returns
  /// false and the experiment runs exactly as without a fault plan).
  [[nodiscard]] bool any() const;
};

/// Parses key=value text into `*spec` (on top of its current values).
/// Returns false and describes the first offending line in `*error` on
/// malformed input; `*spec` is unspecified in that case.
bool ParseFaultSpec(std::string_view text, FaultSpec* spec,
                    std::string* error);

}  // namespace kwikr::faults
