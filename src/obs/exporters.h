#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"

namespace kwikr::obs {

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters (\uXXXX for the unprintables).
std::string JsonEscape(std::string_view text);

/// Serializes a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4). Counters and gauges map directly; histogram cells are
/// emitted as summaries (quantile series plus `_sum`/`_count`, the sum
/// approximated from bin midpoints). Output is deterministically ordered,
/// so two registries with equal contents serialize byte-identically.
std::string PrometheusText(const MetricsRegistry& registry);

/// Writes PrometheusText to `path`; returns false (and reports the reason
/// on stderr) when the file can't be opened.
bool WritePrometheus(const MetricsRegistry& registry, const std::string& path);

/// TraceSink producing Chrome trace_event JSON, loadable in
/// chrome://tracing or Perfetto. Simulated time maps to the trace `ts`
/// microsecond axis; wall-clock span durations are preserved under
/// `args.wall_us`.
class ChromeTraceWriter : public TraceSink {
 public:
  void OnSpan(const char* name, const char* category, sim::Time begin,
              sim::Duration duration, double wall_us,
              const SpanArgs& args) override;
  void OnInstant(const char* name, const char* category, sim::Time at,
                 const SpanArgs& args) override;
  void OnCounter(const char* name, const char* category, sim::Time at,
                 const SpanArgs& values) override;

  [[nodiscard]] std::size_t events() const { return events_.size(); }

  /// The complete trace as one JSON object {"traceEvents":[...]}.
  [[nodiscard]] std::string ToJson() const;

  /// Writes ToJson to `path`; returns false (stderr-reported) on failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct TraceEvent {
    char phase = 'X';  ///< 'X' complete, 'i' instant, 'C' counter.
    std::string name;
    std::string category;
    double ts_us = 0.0;
    double dur_us = 0.0;   ///< complete events only.
    double wall_us = -1.0; ///< < 0 = not measured.
    std::vector<std::pair<std::string, double>> args;
  };

  void Append(TraceEvent event);

  std::vector<TraceEvent> events_;
};

}  // namespace kwikr::obs
