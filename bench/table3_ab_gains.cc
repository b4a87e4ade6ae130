// Table 3: bandwidth gains from the randomized A/B deployment, bucketed by
// the severity of cross-traffic-induced queueing delay (paper Section 8.4).
// Paired baseline/Kwikr calls run under common random numbers; gains are
// reported with one-sided Welch (mean) and Mann-Whitney (median) p-values.
#include "bench_util.h"
#include "scenario/wild_population.h"

using namespace kwikr;

int main(int argc, char** argv) {
  bench::Header("Table 3 — bandwidth gains from the A/B deployment",
                "Buckets by per-call 95th-pct cross-traffic delay.\n"
                "Paper: gains grow with cross-traffic severity (3.3%..8.6%),"
                " p <= 0.1.");

  scenario::WildConfig config;
  config.calls = bench::ParseIntFlag(argc, argv, "--calls", 150);
  config.base_seed = 1010;  // same population as Figure 10.
  config.call_duration = sim::Seconds(60);
  config.jobs = bench::ParseJobs(argc, argv);

  obs::MetricsRegistry registry;
  if (bench::MetricsRequested(argc, argv)) config.metrics = &registry;

  bench::WallTimer timer;
  const scenario::WildResults results = scenario::RunWildPopulation(config);
  const double wall_ms = timer.ElapsedMs();

  std::printf("%22s %10s %14s %10s %14s %10s %8s\n",
              "95th%ile cross (ms) >=", "% calls", "avg gain (%)", "p(Welch)",
              "median gain (%)", "p(MWU)", "n");
  for (double threshold : {75.0, 100.0, 150.0}) {
    const auto row = scenario::ComputeAbBucket(results, threshold);
    std::printf("%22.0f %10.1f %14.1f %10.3f %14.1f %10.3f %8d\n",
                row.threshold_ms, row.percent_calls_covered,
                row.avg_gain_percent, row.avg_gain_p_value,
                row.median_gain_percent, row.median_gain_p_value,
                row.calls_in_bucket);
  }

  // Whole-population safety check (paper: "no statistically significant
  // degradation in RTT or packet loss").
  double rtt_base = 0.0, rtt_kwikr = 0.0, loss_base = 0.0, loss_kwikr = 0.0;
  for (const auto& call : results.calls) {
    rtt_base += call.baseline_rtt_p50_ms / results.calls.size();
    rtt_kwikr += call.kwikr_rtt_p50_ms / results.calls.size();
    loss_base += call.baseline_loss_pct / results.calls.size();
    loss_kwikr += call.kwikr_loss_pct / results.calls.size();
  }
  std::printf("\nsafety: median-RTT mean %.1f -> %.1f ms; loss %.2f%% -> "
              "%.2f%%\n\n", rtt_base, rtt_kwikr, loss_base, loss_kwikr);

  double serial_wall_ms = 0.0;
  if (config.jobs != 1 && bench::HasFlag(argc, argv, "--compare-serial")) {
    scenario::WildConfig serial = config;
    serial.jobs = 1;
    // The reference run must not merge into the same registry twice.
    serial.metrics = nullptr;
    bench::WallTimer serial_timer;
    scenario::RunWildPopulation(serial);
    serial_wall_ms = serial_timer.ElapsedMs();
    bench::PrintFleetTiming("table3_ab_gains", 1, serial_wall_ms,
                            config.calls);
  }
  bench::PrintFleetTiming("table3_ab_gains", config.jobs, wall_ms,
                          config.calls, serial_wall_ms);
  bench::ExportMetrics(argc, argv, registry);
  return 0;
}
