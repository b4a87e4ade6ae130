#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kwikr.h"
#include "core/ping_pair.h"
#include "faults/fault_spec.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "rtc/controller.h"
#include "rtc/media.h"
#include "scenario/testbed.h"
#include "sim/time.h"
#include "transport/congestion_control.h"
#include "wifi/queue_discipline.h"
#include "wifi/rate_table.h"

namespace kwikr::scenario {

/// Parameters of one simulated AV call on a single-AP testbed, with optional
/// TCP cross-traffic, an optional always-on foreground TCP flow (Figure 1),
/// and an optional mid-call token-bucket throttle (Figure 9).
struct CallConfig {
  bool kwikr = false;  ///< enable Ping-Pair-informed adaptation.
  rtc::RateController::Config controller;  ///< profile (Skype default).
  std::int64_t start_rate_bps = 500'000;
  /// Kwikr noise-scaling factor (Equation 3); only meaningful with kwikr on.
  double beta = 4.0;
  /// Adaptation stack: Skype-style UKF (default) or GCC-style
  /// delay-gradient. With `kwikr` set, the UKF stack applies the Equation-3
  /// modulation and the GCC stack subtracts Tc from the delay signal.
  rtc::MediaReceiver::Adaptation adaptation =
      rtc::MediaReceiver::Adaptation::kUkfConservative;
};

struct ExperimentConfig {
  std::uint64_t seed = 1;
  sim::Duration duration = sim::Seconds(180);

  // Wi-Fi environment.
  wifi::Band band = wifi::Band::k2_4GHz;
  bool wmm_enabled = true;
  std::int64_t client_rate_bps = 26'000'000;  ///< client MCS rate.
  /// AP Best-Effort downlink queue depth (frames) — the bufferbloat knob.
  std::size_t be_queue_capacity = 150;

  // Cross traffic (0 stations = none).
  int cross_stations = 2;
  int flows_per_station = 20;
  sim::Time congestion_start = sim::Seconds(60);
  sim::Time congestion_end = sim::Seconds(120);
  /// Congestion control run by the cross-traffic (and foreground) TCP
  /// senders — the CC axis of the CC×qdisc grid.
  transport::CcAlgorithm cross_cc = transport::CcAlgorithm::kReno;

  /// AP downlink queue discipline — the AQM axis of the grid. The
  /// hash_seed field is overwritten here: the experiment derives it from
  /// `seed` through a dedicated sim::Rng::Fork stream so FQ-CoDel
  /// bucketing is deterministic and fleet-shard-stable.
  wifi::QdiscConfig qdisc;

  // Always-on foreground TCP flow on its own station (Figure 1).
  bool foreground_tcp = false;

  // Token-bucket throttle on the wired downlink (Figure 9). 0 = none.
  std::int64_t throttle_bps = 0;
  sim::Time throttle_start = 0;
  sim::Time throttle_end = 0;

  // Probing.
  sim::Duration probe_interval = sim::Millis(500);
  bool dual_ping_pair = false;
  core::MeasurementMode measurement_mode =
      core::MeasurementMode::kArrivalTimes;

  // Ground-truth sampling of the AP Best-Effort downlink queue.
  bool sample_queue = false;
  sim::Duration queue_sample_interval = sim::Millis(10);

  // Fault plan (default: inert). When any fault is configured a
  // faults::FaultInjector is built from `seed` (dedicated rng stream) and
  // attached to the channel, the AP, the wired downlink, every call
  // station and every prober; `wmm.mode=off` additionally forces
  // `wmm_enabled=false` on the AP. Fault counters land in `metrics` as
  // `fault_*` series. Deterministic like everything else in the config.
  faults::FaultSpec faults;

  // Observability (all optional; absent = zero overhead on the hot paths).
  //
  // `metrics` receives only deterministic series (counters of simulated
  // events, sim-time histograms, gauges of sim-derived values), so a merged
  // registry is bit-identical across worker counts.
  obs::MetricsRegistry* metrics = nullptr;
  /// Extra labels stamped on every series (e.g. {{"env", "3"}}).
  obs::Labels metric_labels = {};
  /// Attach an obs::EventLoopMetricsProbe (per-event-type counts) to the
  /// loop. Requires `metrics`.
  bool profile_loop = false;

  /// Sim-time timeline telemetry: a SeriesSampler over the experiment's
  /// probe surfaces (per-AC AP queue, qdisc sojourn, channel busy, TCP
  /// flight/cwnd/pacing, rate-control state, ping-pair Tq/Ta/Tc, GE fault
  /// state), an optional FlightRecorder on every drop/retransmit/discard
  /// path, and optional anomaly triggers that freeze + dump both as a
  /// postmortem. Everything sampled is sim-derived, so the serialized
  /// timeline is bit-identical across reruns and fleet worker counts.
  /// Disabled by default: no timer events, no recorder attach — the run's
  /// event schedule is exactly the pre-timeline one.
  struct TimelineOptions {
    bool enabled = false;
    sim::Duration interval = sim::Millis(10);
    std::size_t series_capacity = 2048;     ///< rows before decimation.
    bool flight_recorder = true;            ///< attach the event ring.
    std::size_t recorder_capacity = 512;    ///< events retained.
    // Anomaly triggers (each 0 = disabled; see obs::PostmortemMonitor).
    double anomaly_tq_p95_ms = 0.0;
    std::uint64_t anomaly_retransmit_storm = 0;
    double anomaly_divergence = 0.0;
    /// Where a triggered postmortem is written (empty = in-memory only,
    /// returned via ExperimentMetrics::postmortem).
    std::string postmortem_path;
    /// Where the run's Chrome trace is written after the run (empty =
    /// none): the retained series as counter tracks plus the flight
    /// recorder's events as instants, all on the simulated-time axis.
    std::string chrome_trace;
    /// Stamped as `"call":N` on every timeline line when >= 0 — the
    /// population layer sets it so concatenated per-call timelines stay
    /// attributable.
    std::int64_t call_index = -1;
  };
  TimelineOptions timeline;

  // The calls sharing this environment (usually one; two for Table 2).
  std::vector<CallConfig> calls = {CallConfig{}};
};

/// Per-call outcome.
struct CallMetrics {
  std::vector<double> rate_series_kbps;  ///< received kbps per second.
  double mean_rate_kbps = 0.0;           ///< over the whole call.
  double mean_rate_congested_kbps = 0.0; ///< within the congestion window.
  std::vector<double> rtt_ms;            ///< sender-side RTT samples.
  double loss_pct = 0.0;
  /// Share of packets that missed their playout deadline (jitter buffer).
  double late_frame_pct = 0.0;
  std::vector<core::PingPairSample> probe_samples;
  core::PingPairStats probe_stats;
};

/// Whole-experiment outcome.
struct ExperimentMetrics {
  std::vector<CallMetrics> calls;
  std::vector<double> tcp_rate_series_kbps;  ///< foreground TCP, per second.
  std::vector<std::size_t> queue_samples;    ///< BE queue depth series.
  double channel_busy_fraction = 0.0;
  std::int64_t cross_traffic_bytes = 0;
  /// Discrete events the experiment's loop dispatched — the denominator for
  /// scheduler-throughput accounting in the bench harness. Deterministic in
  /// the seed like every other field.
  std::uint64_t events_executed = 0;
  /// Canonical timeline JSONL (one "series" line per probe); empty unless
  /// `timeline.enabled`. Deterministic in the seed.
  std::string timeline_jsonl;
  /// Postmortem dump + trigger reason; empty unless an anomaly fired.
  std::string postmortem;
  std::string postmortem_reason;
};

/// Builds the testbed, runs the experiment to completion and returns the
/// metrics. Deterministic in `config.seed`.
ExperimentMetrics RunCallExperiment(const ExperimentConfig& config);

}  // namespace kwikr::scenario
