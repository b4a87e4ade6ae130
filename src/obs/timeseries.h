#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace kwikr::obs {

class ChromeTraceWriter;

/// Deterministic sim-time series sampler: a periodic EventLoop timer
/// snapshots every registered probe into per-probe ring buffers with a
/// shared clock. All probes are read at the same tick, so the series stay
/// column-aligned, and every sampled value must be sim-derived — then the
/// serialized timeline is bit-identical across reruns and fleet worker
/// counts, exactly like the metrics registry.
///
/// Bounded memory with deterministic decimation: when a series reaches
/// `capacity` samples the sampler keeps every second sample and doubles its
/// effective stride (the tick counter keeps absolute phase, so post-
/// decimation samples remain uniformly spaced). A 10-hour run costs the
/// same memory as a 10-second one; only the resolution differs — and the
/// decimation sequence depends only on tick counts, never on wall clock.
class SeriesSampler {
 public:
  struct Config {
    sim::Duration interval = sim::Millis(10);
    /// Samples retained per series before a decimation halves resolution.
    /// Rounded up to a power of two (minimum 16).
    std::size_t capacity = 2048;
  };

  SeriesSampler(sim::EventLoop& loop, Config config);
  SeriesSampler(const SeriesSampler&) = delete;
  SeriesSampler& operator=(const SeriesSampler&) = delete;

  /// Registers a probe. Call before Start; the callable must stay valid
  /// until the sampler stops (it runs inside loop events).
  void AddProbe(std::string name, std::function<double()> probe);

  /// Invoked after every recorded sample row — the anomaly monitor's
  /// evaluation point. Optional.
  void SetRowHook(std::function<void()> hook) { row_hook_ = std::move(hook); }

  void Start();
  void Stop();

  /// Effective sampling stride after decimations (= interval * 2^d).
  [[nodiscard]] sim::Duration stride() const {
    return config_.interval * static_cast<sim::Duration>(factor_);
  }
  [[nodiscard]] int decimations() const { return decimations_; }
  /// Sample rows currently retained (same for every series).
  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t series_count() const { return probes_.size(); }

  struct Series {
    std::string name;
    std::vector<double> values;  ///< values[i] sampled at i * stride.
  };
  [[nodiscard]] std::vector<Series> Snapshot() const;

  /// Canonical timeline JSONL: one `{"type":"series",...}` object per
  /// probe, values at fixed %.3f precision, registration order. When
  /// `call_index` >= 0 each line leads with `"call":N` so per-call lines
  /// from a population run stay attributable after concatenation.
  [[nodiscard]] std::string ToJsonl(std::int64_t call_index = -1) const;

  /// Second exporter: writes every retained sample as a Chrome-trace
  /// counter event ('C' phase, category "timeline"), one counter track per
  /// probe.
  void EmitCounters(ChromeTraceWriter& writer) const;

 private:
  void Tick();
  void Decimate();

  sim::EventLoop& loop_;
  Config config_;
  struct Probe {
    std::string name;
    std::function<double()> fn;
    std::vector<double> values;
  };
  std::vector<Probe> probes_;
  sim::PeriodicTimer timer_;
  std::function<void()> row_hook_;
  std::uint64_t tick_ = 0;    ///< timer firings since Start.
  std::uint64_t factor_ = 1;  ///< record every factor-th tick (power of 2).
  std::size_t rows_ = 0;
  int decimations_ = 0;
  bool started_ = false;
};

/// Anomaly triggers over the live sampler + flight recorder: when one
/// fires, the recorder is frozen and recorder + active series are dumped as
/// one canonical JSONL postmortem (deterministic — every line derives from
/// sim state, so the same scenario produces byte-identical dumps).
///
/// Three trigger classes, each disabled at its zero default:
///   - Tq p95 over a sliding window of ping-pair samples above a threshold
///     (the "FQ-CoDel just collapsed / bufferbloat just formed" signal);
///   - retransmit storm: too many kTcpRetransmit flight events inside a
///     window (subscribes to the recorder's listener hook);
///   - estimator divergence: the UKF bandwidth estimate and the controller
///     target disagree by more than a factor (fed from the sampler row).
/// One-shot: the first trigger freezes everything; later signals are
/// ignored so the dump reflects the first incident.
class PostmortemMonitor {
 public:
  struct Config {
    double tq_p95_ms = 0.0;            ///< 0 = trigger disabled.
    std::size_t tq_window = 32;        ///< sliding window (samples).
    std::size_t tq_min_samples = 8;    ///< don't judge a cold window.
    std::uint64_t retransmit_storm = 0;         ///< events; 0 = disabled.
    sim::Duration storm_window = sim::Seconds(1);
    double divergence_factor = 0.0;    ///< ratio either way; 0 = disabled.
    double divergence_floor_kbps = 64.0;  ///< ignore near-idle rates.
  };

  /// `recorder` may be null (then the storm trigger is inert and the dump
  /// carries only series). `dump_path` empty keeps the dump in memory only.
  PostmortemMonitor(sim::EventLoop& loop, SeriesSampler& sampler,
                    FlightRecorder* recorder, Config config,
                    std::string dump_path = {});

  PostmortemMonitor(const PostmortemMonitor&) = delete;
  PostmortemMonitor& operator=(const PostmortemMonitor&) = delete;

  /// Feed one ping-pair queueing-delay sample (ms).
  void OnTqSample(double tq_ms);
  /// Feed the estimator-vs-target pair (kbps), typically once per sampler
  /// row.
  void OnRateSample(double estimate_kbps, double target_kbps);

  [[nodiscard]] bool triggered() const { return triggered_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }
  /// The postmortem JSONL (empty until triggered).
  [[nodiscard]] const std::string& dump() const { return dump_; }

 private:
  void OnFlightEvent(const FlightEvent& event);
  void Trigger(const char* reason, double value, double threshold);

  sim::EventLoop& loop_;
  SeriesSampler& sampler_;
  FlightRecorder* recorder_;
  Config config_;
  std::string dump_path_;
  std::deque<double> tq_window_;
  std::deque<sim::Time> retransmits_;
  bool triggered_ = false;
  std::string reason_;
  std::string dump_;
};

}  // namespace kwikr::obs
