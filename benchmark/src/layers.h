#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace kwikr::benchmark {

/// Heap allocations made through global operator new while counting was
/// enabled (the replacement operators live in layers.cc).
struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void SetAllocCounting(bool enabled);
AllocCount AllocsCounted();

/// Wall-clock spans kept in memory and written once, at exit, as Chrome
/// trace JSON. Spans are recorded by the benchmark around its calls into
/// each layer; the program itself is not instrumented.
class SpanLog {
 public:
  explicit SpanLog(std::string workload);

  /// Pre-sizes the store so recording never allocates (allocation counts
  /// taken while spans are recorded stay the program's own).
  void Reserve(std::size_t spans) { spans_.reserve(spans); }
  /// Opens a span and returns its id; `parent` is -1 for a root.
  int Begin(std::string name, int parent, double arg = -1.0);
  void End(int id);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Writes every span through obs::ChromeTraceWriter: `ts`/`dur` are wall
  /// microseconds since the log was created, and each event carries its
  /// id, parent id and workload (the category).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double arg = -1.0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::string workload_;
  std::vector<Span> spans_;
};

/// RAII span on an optional log (null = not traced).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int parent, double arg = -1.0)
      : log_(log), id_(log != nullptr ? log->Begin(std::move(name), parent, arg)
                                      : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Best-of-batches cost of three hot kernels, timed by calling each layer's
/// public API from outside: a frame-hop event chain through
/// sim::EventLoop, a saturated four-AC wifi::Channel, and
/// rtc::LeakyBucketUkf::Update.
struct KernelTimes {
  double dispatch_ns = 0.0;    ///< per dispatched event.
  double frame_ns = 0.0;       ///< per delivered frame.
  double ukf_update_ns = 0.0;  ///< per Update call.
};
KernelTimes RunKernels(SpanLog* spans, int parent);

/// Everything the per-layer metrics are derived from.
struct LayerInputs {
  const obs::MetricsRegistry* registry = nullptr;  ///< traced pass series.
  double sim_s = 0.0;            ///< simulated call-seconds per pass.
  double envs = 0.0;             ///< environments per pass.
  double result_events = 0.0;    ///< events reported by the env results.
  double timeline_bytes = 0.0;   ///< traced pass timeline bytes.
  double traced_cpu_s = 0.0;     ///< CPU time of the traced pass's envs.
  double fastest_untraced_cpu_s = 0.0;
  double env_ms_p50 = 0.0;       ///< untraced, as reported end to end.
  AllocCount pass_allocs;        ///< one untraced pass, counter on.
  double setup_cpu_s = 0.0;      ///< every env at duration 0.
  AllocCount setup_allocs;
  KernelTimes kernels;
};

/// Every per-layer metric of spec.h, in its order. A series that the
/// registry does not carry (a removed counter, or a per-type event count on
/// a workload that cannot attach the loop profiler) reads as 0, so removing
/// a counter from the program never breaks the benchmark's build.
std::vector<std::pair<std::string_view, double>> PerLayerMetrics(
    const LayerInputs& in);

}  // namespace kwikr::benchmark
