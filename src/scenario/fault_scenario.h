#pragma once

#include <string>
#include <string_view>

#include "core/ping_pair.h"
#include "core/wmm_detector.h"
#include "faults/injector.h"
#include "scenario/call_experiment.h"

namespace kwikr::scenario {

/// A self-contained, file-parseable scenario: one call experiment plus a
/// fault plan, optionally followed by a WMM-detection pass on the same
/// impaired AP. This is the unit of the golden corpus under tests/golden/ —
/// each `.scenario` file parses into one of these, runs deterministically,
/// and summarises into canonical JSON that is byte-compared against the
/// committed expectation.
///
/// File format: key=value lines, `#` comments. Experiment keys:
///
///   name=bursty_loss          # scenario id echoed into the summary
///   seed=7
///   duration_ms=30000
///   band=2.4                  # 2.4 | 5
///   wmm=1                     # AP advertises/honours WMM
///   client_rate_bps=26000000
///   be_queue_capacity=150
///   cross_stations=1
///   flows_per_station=8
///   congestion_start_ms=5000
///   congestion_end_ms=20000
///   probe_interval_ms=500
///   dual=0                    # dual ping-pair (Section 5.6 filters)
///   kwikr=0                   # adaptation arm of the call
///   wmm_detection=0           # also run the Section-5.5 detector
///
/// Bottleneck keys (the CC×qdisc grid). Naming any of them switches the
/// summary's "bottleneck" JSON section on; scenarios that omit them produce
/// the pre-existing summary bytes:
///
///   cc=reno                   # reno | cubic | westwood | bbr
///   qdisc=droptail            # droptail | codel | fq_codel
///   codel_target_ms=5
///   codel_interval_ms=100
///   fq_flows=64
///
/// Timeline keys (sim-time telemetry; all off by default so pre-timeline
/// scenarios keep their exact event schedule and summary bytes). The
/// anomaly thresholds only take effect with `timeline=1`:
///
///   timeline=1                # enable the series sampler + flight recorder
///   timeline_interval_ms=10
///   anomaly_tq_p95_ms=40      # postmortem when windowed Tq p95 exceeds
///   anomaly_retransmit_storm=50  # ... or this many retransmits in 1 s
///   anomaly_divergence=4      # ... or estimate/target ratio exceeds this
///
/// Fault keys are the faults::ParseFaultSpec keys with a `fault.` prefix
/// (repeatable `fault.schedule=` included):
///
///   fault.ge.enable=1
///   fault.ge.loss_bad=0.6
///   fault.schedule=10000 ge off
struct FaultScenario {
  std::string name = "unnamed";
  ExperimentConfig experiment;
  bool wmm_detection = false;
  /// True when the scenario named any cc=/qdisc= key; gates the summary's
  /// "bottleneck" section so the pre-grid corpus stays byte-identical.
  bool bottleneck_explicit = false;
};

/// Parses scenario text. Returns false with a one-line description of the
/// first offending line in `*error` on malformed input.
bool ParseFaultScenario(std::string_view text, FaultScenario* out,
                        std::string* error);

/// Everything the golden corpus asserts on, as plain data. All fields are
/// deterministic in the scenario alone (integer event counts, sim-time
/// percentiles, exact fault/discard counters).
struct FaultScenarioSummary {
  std::string name;

  // The call.
  double mean_rate_kbps = 0.0;
  double loss_pct = 0.0;
  double late_frame_pct = 0.0;

  // Ping-Pair delay decomposition percentiles, milliseconds.
  double tq_p50_ms = 0.0, tq_p95_ms = 0.0, tq_p99_ms = 0.0;
  double ta_p50_ms = 0.0, ta_p95_ms = 0.0, ta_p99_ms = 0.0;
  double tc_p50_ms = 0.0, tc_p95_ms = 0.0, tc_p99_ms = 0.0;

  // Probe accounting, including every discard reason (Section 5.6).
  core::PingPairStats probe;

  // What the injector did (exact counts).
  faults::FaultCounters fault_counters;

  // CC×qdisc bottleneck telemetry (meaningful only when the scenario named
  // a cc=/qdisc= key; the JSON section is omitted otherwise).
  bool bottleneck = false;
  std::string cc;     ///< congestion-control schedule name.
  std::string qdisc;  ///< queue-discipline schedule name.
  std::uint64_t qdisc_aqm_drops = 0;       ///< summed over ACs.
  std::uint64_t qdisc_overflow_drops = 0;  ///< summed over ACs.
  std::uint64_t ap_queue_drops = 0;        ///< summed over ACs.
  std::uint64_t tcp_retransmissions = 0;
  /// Sojourn time through the Best-Effort discipline, milliseconds.
  double sojourn_be_p50_ms = 0.0;
  double sojourn_be_p95_ms = 0.0;
  double sojourn_be_p99_ms = 0.0;

  // Environment.
  double channel_busy_pct = 0.0;
  /// Real event-loop dispatches. An implementation count, not behaviour:
  /// deliberately left out of ToCanonicalJson.
  std::uint64_t events_executed = 0;

  // WMM detection pass (only when the scenario asked for it).
  bool wmm_ran = false;
  core::WmmResult wmm;
};

/// Runs the scenario to completion. Deterministic in the scenario content.
FaultScenarioSummary RunFaultScenario(const FaultScenario& scenario);

/// Side artifacts of a scenario run that the summary doesn't carry: the
/// full metrics registry (for --metrics-out exports) and the timeline /
/// postmortem JSONL (for --timeline-out). Non-copyable (it owns a
/// registry); deterministic in the scenario content like the summary.
struct FaultScenarioArtifacts {
  obs::MetricsRegistry registry;
  std::string timeline_jsonl;        ///< empty unless timeline=1.
  std::string postmortem;            ///< empty unless a trigger fired.
  std::string postmortem_reason;
};

/// As above, additionally filling `*artifacts` (must be non-null).
FaultScenarioSummary RunFaultScenario(const FaultScenario& scenario,
                                      FaultScenarioArtifacts* artifacts);

/// Canonical JSON: fixed key order, fixed precision (%.3f for millisecond
/// and percentage values), newline-terminated — byte-stable across reruns,
/// worker counts and (toolchain-default IEEE arithmetic) compilers, which
/// is what lets the golden test compare bytes instead of parsing.
std::string ToCanonicalJson(const FaultScenarioSummary& summary);

}  // namespace kwikr::scenario
