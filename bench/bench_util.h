#pragma once

// Shared formatting helpers for the reproduction harnesses. Each bench
// prints the rows/series of one table or figure from the paper; see
// EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Set KWIKR_CSV_DIR=<dir> to additionally dump every printed series/CDF as a
// plot-ready CSV file named after the experiment.

#include <atomic>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "stats/percentile.h"

namespace kwikr::bench {
namespace internal {

inline std::string& CurrentExperiment() {
  static std::string name;
  return name;
}

inline std::string Slug(const std::string& text) {
  std::string slug;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
    if (slug.size() >= 48) break;
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

/// Opens <KWIKR_CSV_DIR>/<experiment>_<kind>.csv, or nullptr when CSV export
/// is off. The caller fcloses. An unopenable path (missing directory, no
/// permission) is reported on stderr instead of silently dropping the dump.
inline std::FILE* OpenCsv(const char* kind) {
  const char* dir = std::getenv("KWIKR_CSV_DIR");
  if (dir == nullptr || *dir == '\0') return nullptr;
  // Atomic: fleet-backed benches may export from worker threads when run
  // with --jobs > 1.
  static std::atomic<int> sequence{0};
  char path[512];
  std::snprintf(path, sizeof(path), "%s/%s_%02d_%s.csv", dir,
                Slug(CurrentExperiment()).c_str(),
                sequence.fetch_add(1, std::memory_order_relaxed), kind);
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "KWIKR_CSV_DIR: cannot open %s for writing\n", path);
  }
  return file;
}

}  // namespace internal

// ------------------------------------------------ fleet execution flags ----

/// Checks argv against a bench's accepted flags: `valued` flags, each
/// followed by its value, and bare `switches`. Anything else — a misspelt
/// flag such as "--call-second", which would otherwise be ignored in favour
/// of the default — or a valued flag without its value exits with status 2
/// and a message naming it. Call before any flag is used.
inline void RejectUnknownFlags(
    int argc, char** argv, std::initializer_list<std::string_view> valued,
    std::initializer_list<std::string_view> switches = {}) {
  const auto listed = [](std::initializer_list<std::string_view> flags,
                         std::string_view arg) {
    for (const std::string_view flag : flags) {
      if (flag == arg) return true;
    }
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    if (listed(switches, argv[i])) continue;
    if (!listed(valued, argv[i])) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      std::exit(2);
    }
    if (++i == argc) {
      std::fprintf(stderr, "%s wants a value\n", argv[i - 1]);
      std::exit(2);
    }
  }
}

/// True when `flag` (e.g. "--compare-serial") appears in argv.
inline bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Parses `<flag> N` from argv; returns `fallback` when the flag is absent.
/// A value that is not a whole decimal integer >= `min` ("banana", "-5",
/// "10ms", or no value at all) exits with status 2 and a message naming the
/// flag.
inline int ParseIntFlag(int argc, char** argv, const char* flag, int fallback,
                        int min) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    const char* text = i + 1 < argc ? argv[i + 1] : "";
    const char* end = text + std::strlen(text);
    int value = 0;
    const auto [last, error] = std::from_chars(text, end, value);
    if (error != std::errc() || last != end || value < min) {
      std::fprintf(stderr, "%s wants an integer >= %d, got '%s'\n", flag, min,
                   text);
      std::exit(2);
    }
    return value;
  }
  return fallback;
}

/// Parses the shared `--jobs N` knob of the fleet-backed benches
/// (1 = serial, 0 = one worker per hardware thread).
inline int ParseJobs(int argc, char** argv, int fallback = 1) {
  return ParseIntFlag(argc, argv, "--jobs", fallback, 0);
}

// --------------------------------------------------- observability flags ---

/// Parses `<flag> <value>` from argv; returns `fallback` when absent.
inline const char* ParseStringFlag(int argc, char** argv, const char* flag,
                                   const char* fallback = nullptr) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// True when the shared `--metrics-out <file>` knob is present — benches use
/// this to decide whether to plumb a registry through the run at all.
inline bool MetricsRequested(int argc, char** argv) {
  return ParseStringFlag(argc, argv, "--metrics-out") != nullptr;
}

/// Handles `--metrics-out <file>`: serializes the registry in Prometheus
/// text format to the file ("-" = stdout). No-op without the flag.
inline void ExportMetrics(int argc, char** argv,
                          const obs::MetricsRegistry& registry) {
  const char* path = ParseStringFlag(argc, argv, "--metrics-out");
  if (path == nullptr) return;
  if (std::strcmp(path, "-") == 0) {
    std::fputs(obs::PrometheusText(registry).c_str(), stdout);
    return;
  }
  if (obs::WritePrometheus(registry, path)) {
    std::printf("metrics: wrote %zu series to %s\n", registry.size(), path);
  }
}

/// Chrome-trace path <KWIKR_TRACE_DIR>/<experiment>_trace.json, or empty
/// when the variable is unset/empty. Benches that support tracing set it as
/// one example call's `timeline.chrome_trace`.
inline std::string TracePath() {
  const char* dir = std::getenv("KWIKR_TRACE_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  return std::string(dir) + "/" +
         internal::Slug(internal::CurrentExperiment()) + "_trace.json";
}

/// Wall-clock stopwatch for the fleet timing records.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set of this process in kB (VmHWM from /proc/self/status);
/// 0 when unavailable. The container has no /usr/bin/time, so the bench
/// records report their own peak RSS.
inline unsigned long PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

/// Emits the machine-readable timing record of a fleet-backed bench — one
/// JSON object per line so the perf trajectory can be scraped with grep.
/// When a serial (jobs=1) reference time is supplied, the achieved speedup
/// is included and echoed human-readably. When the total dispatched-event
/// count is supplied, simulator events/sec rides along (the scheduler
/// throughput achieved inside a full scenario).
inline void PrintFleetTiming(const char* bench, int jobs, double wall_ms,
                             long calls, double serial_wall_ms = 0.0,
                             std::uint64_t events = 0) {
  std::printf("{\"bench\":\"%s\",\"jobs\":%d,\"wall_ms\":%.1f,\"calls\":%ld",
              bench, jobs, wall_ms, calls);
  if (events > 0 && wall_ms > 0.0) {
    std::printf(",\"events\":%llu,\"events_per_sec\":%.0f",
                static_cast<unsigned long long>(events),
                static_cast<double>(events) / (wall_ms / 1000.0));
  }
  if (serial_wall_ms > 0.0 && wall_ms > 0.0) {
    std::printf(",\"speedup_vs_serial\":%.2f", serial_wall_ms / wall_ms);
  }
  std::printf(",\"peak_rss_kb\":%lu}\n", PeakRssKb());
  if (serial_wall_ms > 0.0 && wall_ms > 0.0) {
    std::printf("fleet: jobs=%d ran %.1f ms vs %.1f ms serial (%.2fx)\n",
                jobs, wall_ms, serial_wall_ms, serial_wall_ms / wall_ms);
  }
}

inline void Header(const char* experiment, const char* description) {
  internal::CurrentExperiment() = experiment;
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("==============================================================\n");
}

/// Prints a time series as "t=<s>  <label0>=<v0> <label1>=<v1> ...", one row
/// per `stride` seconds. With KWIKR_CSV_DIR set, the full-resolution series
/// is also written as CSV.
inline void PrintSeries(std::span<const std::string> labels,
                        std::span<const std::vector<double>> series,
                        int stride = 2) {
  std::size_t length = 0;
  for (const auto& s : series) length = std::max(length, s.size());
  std::printf("%6s", "t(s)");
  for (const auto& label : labels) std::printf(" %12s", label.c_str());
  std::printf("\n");
  for (std::size_t t = 0; t < length; t += stride) {
    std::printf("%6zu", t);
    for (const auto& s : series) {
      if (t < s.size()) {
        std::printf(" %12.1f", s[t]);
      } else {
        std::printf(" %12s", "-");
      }
    }
    std::printf("\n");
  }

  if (std::FILE* csv = internal::OpenCsv("series")) {
    std::fprintf(csv, "t_s");
    for (const auto& label : labels) {
      std::fprintf(csv, ",%s", label.c_str());
    }
    std::fprintf(csv, "\n");
    for (std::size_t t = 0; t < length; ++t) {
      std::fprintf(csv, "%zu", t);
      for (const auto& s : series) {
        if (t < s.size()) {
          std::fprintf(csv, ",%g", s[t]);
        } else {
          std::fprintf(csv, ",");
        }
      }
      std::fprintf(csv, "\n");
    }
    std::fclose(csv);
  }
}

/// Prints the paper's percentile bars (50th/75th/90th/95th).
inline void PrintPercentiles(const char* label,
                             std::span<const double> samples) {
  std::printf("%-24s 50th=%8.2f 75th=%8.2f 90th=%8.2f 95th=%8.2f (n=%zu)\n",
              label, stats::Percentile(samples, 50.0),
              stats::Percentile(samples, 75.0),
              stats::Percentile(samples, 90.0),
              stats::Percentile(samples, 95.0), samples.size());
}

/// Prints a CDF as value rows at fixed cumulative fractions; with
/// KWIKR_CSV_DIR set, the full empirical CDF is also written as CSV.
inline void PrintCdf(const char* label, std::span<const double> samples) {
  stats::EmpiricalCdf cdf(std::vector<double>(samples.begin(), samples.end()));
  std::printf("%s CDF (n=%zu):\n", label, samples.size());
  for (double p : {5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    std::printf("  p%-4.0f %10.1f\n", p, cdf.Quantile(p));
  }
  if (std::FILE* csv = internal::OpenCsv("cdf")) {
    std::fprintf(csv, "value,fraction,label\n");
    for (const auto& [value, fraction] : cdf.Curve(512)) {
      std::fprintf(csv, "%g,%g,%s\n", value, fraction, label);
    }
    std::fclose(csv);
  }
}

}  // namespace kwikr::bench
