#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace kwikr::obs {

/// Numeric arguments attached to a trace event. Keys must be string
/// literals (or otherwise outlive the emitting call) — sinks copy what they
/// keep.
using SpanArgs = std::vector<std::pair<const char*, double>>;

/// Receiver of trace events. Implementations: ChromeTraceWriter
/// (obs/exporters.h) for chrome://tracing / Perfetto, or anything custom.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// A completed span: `begin`/`duration` are simulated time, `wall_us` is
  /// the wall-clock execution time (0 when not measured).
  virtual void OnSpan(const char* name, const char* category, sim::Time begin,
                      sim::Duration duration, double wall_us,
                      const SpanArgs& args) = 0;

  /// A point event at simulated time `at`.
  virtual void OnInstant(const char* name, const char* category, sim::Time at,
                         const SpanArgs& args) = 0;

  /// A counter sample (a set of named values at one instant) — rendered as
  /// a stacked time series by the Chrome trace viewer.
  virtual void OnCounter(const char* name, const char* category, sim::Time at,
                         const SpanArgs& values) = 0;
};

/// Front-end for span/instant/counter emission, carrying the simulated
/// clock. Zero-cost when no sink is attached: every emit path is a single
/// branch on `enabled()` and performs no clock reads or allocations.
/// Callers building non-trivial SpanArgs should guard with `enabled()`
/// themselves to keep the argument construction off the disabled path.
class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const sim::EventLoop* loop) : loop_(loop) {}

  /// Binds the simulated clock used by ScopedSpan and emission helpers.
  void BindLoop(const sim::EventLoop* loop) { loop_ = loop; }
  /// Attaches a sink (nullptr detaches and disables all emission).
  void SetSink(TraceSink* sink) { sink_ = sink; }

  [[nodiscard]] bool enabled() const { return sink_ != nullptr; }
  /// The attached sink (null when disabled) — lets batch exporters like
  /// SeriesSampler::EmitCounters replay into whatever the tracer feeds.
  [[nodiscard]] TraceSink* sink() const { return sink_; }
  [[nodiscard]] sim::Time now() const {
    return loop_ != nullptr ? loop_->now() : 0;
  }

  void Span(const char* name, const char* category, sim::Time begin,
            sim::Duration duration, double wall_us = 0.0,
            const SpanArgs& args = {}) {
    if (sink_ != nullptr) {
      sink_->OnSpan(name, category, begin, duration, wall_us, args);
    }
  }
  void Instant(const char* name, const char* category,
               const SpanArgs& args = {}) {
    if (sink_ != nullptr) sink_->OnInstant(name, category, now(), args);
  }
  void InstantAt(const char* name, const char* category, sim::Time at,
                 const SpanArgs& args = {}) {
    if (sink_ != nullptr) sink_->OnInstant(name, category, at, args);
  }
  void Counter(const char* name, const char* category,
               const SpanArgs& values) {
    if (sink_ != nullptr) sink_->OnCounter(name, category, now(), values);
  }

 private:
  const sim::EventLoop* loop_ = nullptr;
  TraceSink* sink_ = nullptr;
};

/// RAII span: records sim-time and wall-clock at construction and emits a
/// completed span on destruction. When the tracer is disabled at
/// construction, the object is inert — no clock reads, no allocations.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* category)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        category_(category) {
    if (tracer_ != nullptr) {
      begin_ = tracer_->now();
      wall_begin_ = std::chrono::steady_clock::now();
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    const double wall_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wall_begin_)
            .count();
    tracer_->Span(name_, category_, begin_, tracer_->now() - begin_, wall_us,
                  args_);
  }

  /// No-op when the span is inert.
  void AddArg(const char* key, double value) {
    if (tracer_ != nullptr) args_.emplace_back(key, value);
  }

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  sim::Time begin_ = 0;
  std::chrono::steady_clock::time_point wall_begin_;
  SpanArgs args_;
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
