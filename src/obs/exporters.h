#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/time.h"

namespace kwikr::obs {

/// Numeric arguments attached to a trace event. Keys must be string
/// literals (or otherwise outlive the emitting call) — the writer copies
/// what it keeps.
using SpanArgs = std::vector<std::pair<const char*, double>>;

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters (\uXXXX for the unprintables).
std::string JsonEscape(std::string_view text);

/// Decodes the JSON string literal whose body starts at `*pos` (just past
/// the opening quote) into `out` and leaves `*pos` past the closing quote.
/// Accepts every escape JsonEscape emits plus `\/`; returns false on an
/// unterminated literal, an unknown escape or a `\u` code point above 0xFF.
bool JsonUnescape(std::string_view text, std::size_t* pos, std::string* out);

/// Serializes a registry snapshot in the Prometheus text exposition format
/// (version 0.0.4). Counters and gauges map directly; histogram cells are
/// emitted as summaries (quantile series plus `_sum`/`_count`, the sum
/// approximated from bin midpoints). Output is deterministically ordered,
/// so two registries with equal contents serialize byte-identically.
std::string PrometheusText(const MetricsRegistry& registry);

/// Writes PrometheusText to `path`; returns false (and reports the reason
/// on stderr) when the file can't be opened.
bool WritePrometheus(const MetricsRegistry& registry, const std::string& path);

/// Chrome trace_event JSON, loadable in chrome://tracing or Perfetto. The
/// `at`/`begin` arguments map to the trace `ts` microsecond axis (simulated
/// time for the timeline exports); a span's `wall_us` is kept under
/// `args.wall_us`.
class ChromeTraceWriter {
 public:
  /// A completed span ('X'): `wall_us` < 0 means not measured.
  void OnSpan(const char* name, const char* category, sim::Time begin,
              sim::Duration duration, double wall_us, const SpanArgs& args);
  /// A point event ('i').
  void OnInstant(const char* name, const char* category, sim::Time at,
                 const SpanArgs& args);
  /// A counter sample ('C'): a set of named values at one instant, drawn
  /// as a stacked time series.
  void OnCounter(const char* name, const char* category, sim::Time at,
                 const SpanArgs& values);

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

  std::vector<TraceEvent> events_;
};

}  // namespace kwikr::obs
