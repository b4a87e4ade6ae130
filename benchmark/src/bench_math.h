#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kwikr::benchmark {

/// Linear-interpolation percentile (numpy's default) of `values`, p in
/// [0, 100]; 0 for an empty input.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (method "exclusive") computes them,
/// so spreads reported here match the ones the acceptance check computes.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles ComputeQuartiles(std::vector<double> values);

/// 64-bit FNV-1a, continued from `hash`.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
std::uint64_t Fnv1a(std::string_view bytes, std::uint64_t hash = kFnvOffset);
std::string HexDigest(std::uint64_t hash);

/// Removes every `"events_executed"` / `"events"` key with its value from a
/// canonical per-environment text, so the behaviour digest pins simulated
/// results and not how many dispatches the scheduler needed for them.
std::string StripEventCounts(std::string_view text);

/// The timing end-to-end metrics of repeated passes over one input set.
/// Each environment's time is its fastest pass: the host's slow periods
/// come in bursts of a few seconds, and a per-environment minimum over
/// passes spaced seconds apart lands in a calm moment for nearly every
/// environment, where a whole pass rarely does. Every raw pass is still
/// printed.
struct PassSummary {
  double sim_speed = 0.0;   ///< call-s per CPU-s over the fastest env times.
  double env_ms_p50 = 0.0;  ///< median of the fastest env times.
  double env_ms_p90 = 0.0;  ///< 90th percentile of the same.
};
/// `env_ms[p][e]` is environment e's CPU ms in pass p; every pass runs the
/// same environments, `sim_s` simulated call-seconds in all.
PassSummary SummarizePasses(const std::vector<std::vector<double>>& env_ms,
                            double sim_s);

/// Outcome of comparing one metric over interleaved parent/change pairs,
/// by the gain and no-regression rules of the benchmark README.
enum class Verdict { kGain, kNoRegression, kRegression, kUnresolved };
const char* Name(Verdict verdict);

struct AbResult {
  Quartiles parent;
  Quartiles change;
  int wins = 0;    ///< pairs where the change reads better.
  int losses = 0;  ///< pairs where the parent reads better; ties are neither.
  Verdict verdict = Verdict::kUnresolved;
};
/// `parent[i]` and `change[i]` are the two runs of pair i. `bound` is the
/// metric's allowed worsening as a share of the parent median.
AbResult CompareAb(const std::vector<double>& parent,
                   const std::vector<double>& change, bool higher_is_better,
                   double bound);

}  // namespace kwikr::benchmark
