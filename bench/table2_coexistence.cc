// Table 2: Kwikr flows co-existing with other flows (paper Section 8.3).
// 30 experiments of two simultaneous two-minute calls: both legacy, mixed,
// and both Kwikr. Cell (measured, background) reports the measured call's
// data rate +- 95% CI.
//
// Extended with the CC x qdisc grid (the "2026 bottleneck" question): one
// congested call per (congestion control, queue discipline) cell, reporting
// the Ping-Pair decomposition Tq/Ta/Tc so the attribution's survival under
// AQM is read straight off the table. Both halves are fleet-sharded
// (`--jobs N`, bit-identical for any worker count: every task derives its
// whole run from its index).
#include <vector>

#include "bench_util.h"
#include "fleet/fleet_runner.h"
#include "scenario/call_experiment.h"
#include "stats/summary.h"

using namespace kwikr;

namespace {

/// Runs one two-call experiment; returns the per-call mean rates.
std::pair<double, double> RunPair(bool kwikr_a, bool kwikr_b,
                                  std::uint64_t seed) {
  scenario::ExperimentConfig config;
  config.seed = seed;
  config.duration = sim::Seconds(120);
  config.cross_stations = 0;
  // Constrained link (low MCS), as on the paper's Android phones: the two
  // calls genuinely share capacity instead of both saturating their caps.
  config.client_rate_bps = 4'000'000;
  config.calls = {scenario::CallConfig{}, scenario::CallConfig{}};
  config.calls[0].kwikr = kwikr_a;
  config.calls[1].kwikr = kwikr_b;
  const auto metrics = scenario::RunCallExperiment(config);
  return {metrics.calls[0].mean_rate_kbps, metrics.calls[1].mean_rate_kbps};
}

/// One legacy-table task: pair kind (0 = both Skype, 1 = mixed, 2 = both
/// Kwikr) x iteration, seeded exactly as the original serial loop.
struct PairResult {
  double first = 0.0;
  double second = 0.0;
};

/// One CC x qdisc grid cell outcome.
struct GridResult {
  double rate_kbps = 0.0;
  double tq_p95_ms = 0.0;
  double ta_p95_ms = 0.0;
  double tc_p95_ms = 0.0;
  std::uint64_t aqm_drops = 0;
  std::uint64_t overflow_drops = 0;
};

double ProbeP95(const std::vector<core::PingPairSample>& samples,
                sim::Duration core::PingPairSample::*field) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) ms.push_back(sim::ToMillis(s.*field));
  return stats::Percentile(ms, 95.0);
}

constexpr transport::CcAlgorithm kCcAxis[] = {
    transport::CcAlgorithm::kReno, transport::CcAlgorithm::kCubic,
    transport::CcAlgorithm::kWestwood, transport::CcAlgorithm::kBbr};
constexpr wifi::QdiscKind kQdiscAxis[] = {
    wifi::QdiscKind::kDropTail, wifi::QdiscKind::kCoDel,
    wifi::QdiscKind::kFqCoDel};

GridResult RunGridCell(std::size_t index) {
  const auto cc = kCcAxis[index / std::size(kQdiscAxis)];
  const auto qdisc = kQdiscAxis[index % std::size(kQdiscAxis)];
  scenario::ExperimentConfig config;
  config.seed = 2200 + index;  // index-derived: fleet-determinism contract.
  config.duration = sim::Seconds(60);
  config.cross_stations = 1;
  config.flows_per_station = 6;
  config.congestion_start = sim::Seconds(10);
  config.congestion_end = sim::Seconds(50);
  config.cross_cc = cc;
  config.qdisc.kind = qdisc;
  obs::MetricsRegistry registry;
  config.metrics = &registry;
  const auto metrics = scenario::RunCallExperiment(config);
  const auto& call = metrics.calls.at(0);
  GridResult r;
  r.rate_kbps = call.mean_rate_congested_kbps;
  r.tq_p95_ms = ProbeP95(call.probe_samples, &core::PingPairSample::tq);
  r.ta_p95_ms = ProbeP95(call.probe_samples, &core::PingPairSample::ta);
  r.tc_p95_ms = ProbeP95(call.probe_samples, &core::PingPairSample::tc);
  for (int ac = 0; ac < wifi::kNumAccessCategories; ++ac) {
    const obs::Labels labels = {
        {"ac", wifi::Name(static_cast<wifi::AccessCategory>(ac))}};
    r.aqm_drops += registry.GetCounter("qdisc_aqm_drops_total", labels).value();
    r.overflow_drops +=
        registry.GetCounter("qdisc_overflow_drops_total", labels).value();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RejectUnknownFlags(argc, argv, {"--jobs"}, {"--compare-serial"});
  bench::Header("Table 2 — co-existence of Kwikr and legacy calls",
                "30 experiments x two simultaneous 2-min calls; mean rate "
                "+- 95% CI (kbps).\nPaper: co-existence has no significant "
                "impact on either side.");
  const int jobs = bench::ParseJobs(argc, argv);

  constexpr int kRuns = 10;
  bench::WallTimer timer;
  // Task layout: 3 pair kinds x kRuns iterations, seeds exactly as the
  // original serial loop (1300+i / 1400+i / 1500+i).
  const auto legacy = fleet::RunFleet(
      3 * kRuns, jobs, [](std::size_t index) -> PairResult {
        const auto kind = static_cast<int>(index / kRuns);
        const auto seed =
            static_cast<std::uint64_t>(1300 + 100 * kind + index % kRuns);
        const auto [a, b] =
            RunPair(/*kwikr_a=*/kind == 2, /*kwikr_b=*/kind >= 1, seed);
        return PairResult{a, b};
      });

  stats::RunningSummary skype_bg_skype;   // measured Skype, background Skype
  stats::RunningSummary skype_bg_kwikr;   // measured Skype, background Kwikr
  stats::RunningSummary kwikr_bg_skype;   // measured Kwikr, background Skype
  stats::RunningSummary kwikr_bg_kwikr;   // measured Kwikr, background Kwikr
  for (std::size_t index = 0; index < legacy.size(); ++index) {
    const auto& pair = legacy[index];  // index order: deterministic.
    switch (index / kRuns) {
      case 0:
        skype_bg_skype.Add(pair.first);
        skype_bg_skype.Add(pair.second);
        break;
      case 1:
        skype_bg_kwikr.Add(pair.first);
        kwikr_bg_skype.Add(pair.second);
        break;
      default:
        kwikr_bg_kwikr.Add(pair.first);
        kwikr_bg_kwikr.Add(pair.second);
        break;
    }
  }

  std::printf("%-22s | %-22s | %-22s\n", "Measured flow",
              "bg: Skype", "bg: Skype with Kwikr");
  std::printf("%-22s | %8.0f +- %-6.0f kbps | %8.0f +- %-6.0f kbps\n",
              "Skype", skype_bg_skype.mean(),
              skype_bg_skype.ci95_halfwidth(), skype_bg_kwikr.mean(),
              skype_bg_kwikr.ci95_halfwidth());
  std::printf("%-22s | %8.0f +- %-6.0f kbps | %8.0f +- %-6.0f kbps\n",
              "Skype with Kwikr", kwikr_bg_skype.mean(),
              kwikr_bg_skype.ci95_halfwidth(), kwikr_bg_kwikr.mean(),
              kwikr_bg_kwikr.ci95_halfwidth());

  // ---- CC x qdisc grid ----------------------------------------------------
  std::printf("\nCC x qdisc grid — congested call, Ping-Pair decomposition "
              "(p95, ms) + qdisc outcomes:\n");
  std::printf("%-10s %-10s | %10s %8s %8s %8s | %9s %9s\n", "cc", "qdisc",
              "rate_kbps", "Tq", "Ta", "Tc", "aqm_drop", "ovf_drop");
  constexpr std::size_t kCells = std::size(kCcAxis) * std::size(kQdiscAxis);
  const auto grid = fleet::RunFleet(kCells, jobs, RunGridCell);
  for (std::size_t index = 0; index < grid.size(); ++index) {
    const auto& cell = grid[index];
    std::printf(
        "%-10s %-10s | %10.0f %8.2f %8.2f %8.2f | %9llu %9llu\n",
        transport::Name(kCcAxis[index / std::size(kQdiscAxis)]),
        wifi::Name(kQdiscAxis[index % std::size(kQdiscAxis)]),
        cell.rate_kbps, cell.tq_p95_ms, cell.ta_p95_ms, cell.tc_p95_ms,
        static_cast<unsigned long long>(cell.aqm_drops),
        static_cast<unsigned long long>(cell.overflow_drops));
  }
  const double wall_ms = timer.ElapsedMs();

  double serial_wall_ms = 0.0;
  if (jobs != 1 && bench::HasFlag(argc, argv, "--compare-serial")) {
    bench::WallTimer serial_timer;
    const auto ref_legacy =
        fleet::RunFleet(3 * kRuns, 1, [](std::size_t index) -> PairResult {
          const auto kind = static_cast<int>(index / kRuns);
          const auto seed =
              static_cast<std::uint64_t>(1300 + 100 * kind + index % kRuns);
          const auto [a, b] =
              RunPair(/*kwikr_a=*/kind == 2, /*kwikr_b=*/kind >= 1, seed);
          return PairResult{a, b};
        });
    (void)ref_legacy;
    fleet::RunFleet(kCells, 1, RunGridCell);
    serial_wall_ms = serial_timer.ElapsedMs();
    bench::PrintFleetTiming("table2_coexistence", 1, serial_wall_ms,
                            3 * kRuns + static_cast<long>(kCells));
  }
  bench::PrintFleetTiming("table2_coexistence", jobs, wall_ms,
                          3 * kRuns + static_cast<long>(kCells),
                          serial_wall_ms);
  return 0;
}
