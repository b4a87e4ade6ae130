// Table 1: confusion matrices for congestion detection using Ping-Pair on
// the 2.4 GHz and 5 GHz bands (paper Section 8.1). Cross-traffic TCP flows
// ramp from 0 to 7; the instrumented AP's queue log provides ground truth
// ("persistent" = >= 90% of samples show a non-empty queue); a decision
// stump trained with 10-fold cross-validation recovers the ~5 ms threshold.
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/classifier.h"
#include "core/ping_pair.h"
#include "fleet/fleet_runner.h"
#include "scenario/testbed.h"
#include "sim/rng.h"
#include "transport/udp_stream.h"
#include "stats/confusion.h"
#include "stats/stump.h"
#include "wifi/rate_table.h"

using namespace kwikr;

namespace {

struct LabelledRun {
  std::vector<stats::LabelledSample> samples;  // (tq_ms, persistent).
};

/// One load step: `flows` TCP bulk flows (saturating -> persistent queue)
/// and/or a sub-saturation UDP stream (`udp_fraction` of the service rate,
/// non-persistent queue) to other stations on the same AP. 30 Ping-Pair
/// measurements, each labelled from the AP queue ground truth over the
/// surrounding second.
LabelledRun RunLoadStep(wifi::Band band, int flows, double udp_fraction,
                        std::uint64_t seed) {
  scenario::Testbed testbed(
      scenario::Testbed::Config{seed, wifi::PhyParams{}});
  scenario::Bss::Config bc;
  bc.ap.band = band;
  auto& bss = testbed.AddBss(bc);
  const std::int64_t rate = wifi::McsRates(band)[3];
  auto& client = bss.AddStation(testbed.NextStationAddress(), rate);
  for (int i = 0; i < flows; ++i) {
    auto& station = bss.AddStation(testbed.NextStationAddress(), rate);
    testbed.AddTcpBulkFlows(bss, station, 1);
  }
  std::unique_ptr<transport::UdpCbrSender> udp;
  if (udp_fraction > 0.0) {
    auto& station = bss.AddStation(testbed.NextStationAddress(), rate);
    transport::UdpCbrSender::Config cbr;
    cbr.src = 997;
    cbr.dst = station.address();
    cbr.flow = 60;
    cbr.packet_bytes = 1200;
    cbr.interval = sim::FromSeconds(
        1200.0 * 8.0 / (udp_fraction * static_cast<double>(rate)));
    udp = std::make_unique<transport::UdpCbrSender>(
        testbed.loop(), testbed.ids(), cbr,
        [&bss](net::Packet&& p) { bss.SendFromWan(std::move(p)); });
    udp->Start();
  }
  testbed.StartCrossTraffic();

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss.ap().address());
  core::PingPairProber::Config pcfg;
  pcfg.interval = sim::Millis(500);
  core::PingPairProber prober(testbed.loop(), transport, pcfg, 1);
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) prober.OnReply(p, at);
  });

  // Instrumented-AP ground truth: queue depth every 10 ms.
  std::vector<std::pair<sim::Time, bool>> queue_log;
  sim::PeriodicTimer sampler(testbed.loop(), sim::Millis(10), [&] {
    queue_log.emplace_back(
        testbed.loop().now(),
        bss.ap().DownlinkQueueLength(wifi::AccessCategory::kBestEffort) > 0);
  });
  sampler.Start();
  prober.Start();
  // Warm-up for TCP, then measure until ~30 samples are in.
  testbed.loop().RunUntil(sim::Seconds(22));
  prober.Stop();
  sampler.Stop();

  LabelledRun run;
  for (const auto& s : prober.samples()) {
    if (s.completed_at < sim::Seconds(5)) continue;  // warm-up.
    // Ground truth over the second surrounding the measurement.
    int nonempty = 0;
    int total = 0;
    for (const auto& [at, busy] : queue_log) {
      if (at >= s.completed_at - sim::Millis(1000) && at <= s.completed_at) {
        ++total;
        nonempty += busy ? 1 : 0;
      }
    }
    if (total == 0) continue;
    const bool persistent = nonempty >= total * 9 / 10;
    run.samples.push_back(
        stats::LabelledSample{sim::ToMillis(s.tq), persistent});
    if (run.samples.size() >= 30) break;
  }
  return run;
}

struct LoadStep {
  int flows = 0;
  double udp_fraction = 0.0;
};

std::size_t RunBand(wifi::Band band, const char* name,
                    std::uint64_t seed_base, int jobs,
                    obs::MetricsRegistry* registry) {
  // Light, non-saturating loads (idle and partial-rate UDP), then 1..7
  // saturating TCP cross flows, as in the paper's sweep.
  std::vector<LoadStep> steps;
  for (double udp_fraction : {0.0, 0.15, 0.3, 0.45, 0.55, 0.65}) {
    steps.push_back(LoadStep{0, udp_fraction});
  }
  for (int flows = 1; flows <= 7; ++flows) {
    steps.push_back(LoadStep{flows, 0.0});
  }

  // Each load step is an independent testbed seeded from its own stream, so
  // the sweep shards across workers; samples are concatenated in step order
  // regardless of which worker finished first.
  const sim::Rng seed_root(seed_base);
  const auto runs =
      fleet::RunFleet(steps.size(), jobs, [&](std::size_t i) {
        return RunLoadStep(band, steps[i].flows, steps[i].udp_fraction,
                           seed_root.Fork(i).Next());
      });
  std::vector<stats::LabelledSample> all;
  for (const auto& run : runs) {
    all.insert(all.end(), run.samples.begin(), run.samples.end());
  }

  double cv_accuracy = 0.0;
  const auto classifier = core::CongestionClassifier::Train(all, 10,
                                                            &cv_accuracy);
  stats::ConfusionMatrix matrix;
  for (const auto& s : all) {
    matrix.Add(s.positive, classifier.ClassifyMillis(s.feature));
  }

  std::printf("\n--- Table 1: %s band ---\n", name);
  std::printf("trained threshold: %.2f ms (paper: 5 ms), 10-fold CV "
              "accuracy %.1f%%\n", classifier.threshold_ms(),
              100.0 * cv_accuracy);
  std::printf("ground truth      n | classified non-persistent | persistent\n");
  std::printf("%s", matrix.ToTableRows().c_str());
  std::printf("overall accuracy: %.1f%% (paper: ~90%%)\n",
              100.0 * matrix.accuracy());

  if (registry != nullptr) {
    const obs::Labels labels = {{"band", name}};
    registry->GetCounter("table1_samples_total", labels).Add(all.size());
    std::uint64_t persistent = 0;
    for (const auto& s : all) persistent += s.positive ? 1 : 0;
    registry->GetCounter("table1_persistent_total", labels).Add(persistent);
    registry->GetCounter("table1_true_positives_total", labels)
        .Add(static_cast<std::uint64_t>(matrix.true_positives()));
    registry->GetCounter("table1_false_positives_total", labels)
        .Add(static_cast<std::uint64_t>(matrix.false_positives()));
    registry->GetGauge("table1_cv_accuracy", labels).Max(cv_accuracy);
    registry->GetGauge("table1_threshold_ms", labels)
        .Max(classifier.threshold_ms());
  }
  return steps.size();
}

}  // namespace

int main(int argc, char** argv) {
  bench::RejectUnknownFlags(argc, argv, {"--jobs", "--metrics-out"});
  bench::Header("Table 1 — congestion-detection confusion matrices",
                "0..7 TCP cross flows; 30 labelled Ping-Pair measurements "
                "per step;\nground truth: >= 90% non-empty AP queue samples.");
  const int jobs = bench::ParseJobs(argc, argv);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      bench::MetricsRequested(argc, argv) ? &registry : nullptr;
  bench::WallTimer timer;
  std::size_t steps = 0;
  steps += RunBand(wifi::Band::k2_4GHz, "2.4 GHz", 1100, jobs, metrics);
  steps += RunBand(wifi::Band::k5GHz, "5 GHz", 1200, jobs, metrics);
  std::printf("\n");
  bench::PrintFleetTiming("table1_confusion", jobs, timer.ElapsedMs(),
                          static_cast<long>(steps));
  bench::ExportMetrics(argc, argv, registry);
  return 0;
}
