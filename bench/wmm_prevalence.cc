// Section 5.5: checking for WMM prioritization. Reproduces (a) the six-AP
// accuracy test ("checking for reversal in at least 3 of 5 runs led to
// accurate detection"), (b) the mTurk-style prevalence survey over a
// population of APs with the paper's measured 77% WMM prior, and (c) an
// ablation showing the detector's conservative fallback on idle APs (no
// standing queue to observe; see core::WmmDetector documentation).
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/wmm_detector.h"
#include "fleet/fleet_runner.h"
#include "scenario/testbed.h"
#include "sim/rng.h"
#include "stats/confusion.h"
#include "wifi/rate_table.h"

using namespace kwikr;

namespace {

struct ApModel {
  const char* name;
  wifi::Band band;
  int mcs;  ///< client rate index.
  std::array<std::size_t, wifi::kNumAccessCategories> queues;
};

bool DetectOnce(const ApModel& model, bool wmm, bool ambient,
                std::uint64_t seed) {
  scenario::Testbed testbed(
      scenario::Testbed::Config{seed, wifi::PhyParams{}});
  scenario::Bss::Config bc;
  bc.ap.band = model.band;
  bc.ap.wmm_enabled = wmm;
  bc.ap.queue_capacity = model.queues;
  auto& bss = testbed.AddBss(bc);
  const std::int64_t rate = wifi::McsRates(model.band)[model.mcs];
  auto& client = bss.AddStation(testbed.NextStationAddress(), rate);
  auto& sink = bss.AddStation(testbed.NextStationAddress(), rate);

  if (ambient) {
    // Ambient downlink traffic (the environments the paper probed all had
    // some): TCP keeps a standing queue at any PHY rate.
    testbed.AddTcpBulkFlows(bss, sink, 6);
    testbed.StartCrossTraffic();
  }

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss.ap().address());
  core::WmmDetector detector(testbed.loop(), transport,
                             core::WmmDetector::Config{});
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) detector.OnReply(p, at);
  });
  core::WmmResult result;
  // Let the TCP flows fill the queue before probing.
  testbed.loop().RunUntil(sim::Seconds(8));
  detector.Run([&](const core::WmmResult& r) { result = r; });
  testbed.loop().RunUntil(sim::Seconds(14));
  return result.wmm_enabled;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RejectUnknownFlags(argc, argv, {"--jobs", "--metrics-out"});
  bench::Header("Section 5.5 — WMM prioritization detection",
                "Six AP models x 5 detection runs each; then a prevalence "
                "survey over\n171 APs (77% WMM prior, the paper's measured "
                "value).");
  const int jobs = bench::ParseJobs(argc, argv);
  obs::MetricsRegistry registry;
  obs::MetricsRegistry* metrics =
      bench::MetricsRequested(argc, argv) ? &registry : nullptr;
  bench::WallTimer timer;
  long detections = 0;

  const ApModel models[] = {
      {"Netgear-2.4", wifi::Band::k2_4GHz, 3, {64, 150, 64, 64}},
      {"Netgear-5", wifi::Band::k5GHz, 3, {64, 150, 64, 64}},
      {"LinkSys", wifi::Band::k2_4GHz, 4, {32, 100, 32, 32}},
      {"TP-Link", wifi::Band::k2_4GHz, 2, {64, 200, 64, 64}},
      {"Cisco", wifi::Band::k5GHz, 5, {128, 256, 128, 128}},
      {"D-Link", wifi::Band::k2_4GHz, 3, {64, 80, 64, 64}},
  };

  std::printf("\n--- six-AP accuracy (5 detections per AP and mode) ---\n");
  std::printf("%-14s %14s %14s\n", "AP model", "WMM detected", "FIFO detected");
  // One fleet task per AP model; runs within a model fork off the model's
  // seed streams (replacing the old `1400 + model*10 + run` arithmetic).
  struct ModelScore {
    int wmm_hits = 0;
    int fifo_hits = 0;
  };
  const sim::Rng accuracy_root(1400);
  const auto accuracy = fleet::RunFleet(
      std::size(models), jobs, [&](std::size_t m) {
        ModelScore score;
        for (std::size_t run = 0; run < 5; ++run) {
          const std::uint64_t wmm_seed =
              accuracy_root.Fork(m * 16 + run).Next();
          const std::uint64_t fifo_seed =
              accuracy_root.Fork(m * 16 + 8 + run).Next();
          if (DetectOnce(models[m], true, true, wmm_seed)) ++score.wmm_hits;
          if (!DetectOnce(models[m], false, true, fifo_seed)) {
            ++score.fifo_hits;
          }
        }
        return score;
      });
  int correct = 0;
  for (std::size_t m = 0; m < std::size(models); ++m) {
    const ModelScore& score = accuracy[m];
    correct += score.wmm_hits + score.fifo_hits;
    std::printf("%-14s %11d/5 %11d/5\n", models[m].name, score.wmm_hits,
                score.fifo_hits);
  }
  detections += static_cast<long>(std::size(models)) * 10;
  std::printf("overall accuracy: %.0f%% (paper: accurate detection in all "
              "six networks)\n",
              100.0 * correct / (static_cast<double>(std::size(models)) * 10));

  std::printf("\n--- prevalence survey: 171 APs, 77%% WMM prior ---\n");
  // The population draws stay serial (one shared stream defines who is
  // WMM-enabled); the 171 detections then shard across workers, and the
  // confusion matrix is tallied from their index-ordered results.
  constexpr int kSurveyAps = 171;
  struct SurveyAp {
    int model = 0;
    bool wmm = false;
  };
  sim::Rng population(2024);
  std::vector<SurveyAp> aps(kSurveyAps);
  for (auto& ap : aps) {
    ap.model = static_cast<int>(population.UniformInt(0, 5));
    ap.wmm = population.Bernoulli(0.77);
  }
  const sim::Rng survey_root(3000);
  const auto detected =
      fleet::RunFleet(aps.size(), jobs, [&](std::size_t ap) -> int {
        return DetectOnce(models[aps[ap].model], aps[ap].wmm, true,
                          survey_root.Fork(ap).Next())
                   ? 1
                   : 0;
      });
  stats::ConfusionMatrix survey;
  for (std::size_t ap = 0; ap < aps.size(); ++ap) {
    survey.Add(aps[ap].wmm, detected[ap] == 1);
  }
  const auto actually_wmm = survey.actual_positives();
  const auto detected_wmm = survey.true_positives() + survey.false_positives();
  detections += kSurveyAps;
  std::printf("ground truth WMM: %lld/171 (%.0f%%)  detected: %lld/171 "
              "(%.0f%%)\n",
              static_cast<long long>(actually_wmm),
              100.0 * static_cast<double>(actually_wmm) / 171.0,
              static_cast<long long>(detected_wmm),
              100.0 * static_cast<double>(detected_wmm) / 171.0);
  std::printf("false positives: %lld, misses: %lld (paper: 77%% of 171 APs "
              "WMM-enabled)\n",
              static_cast<long long>(survey.false_positives()),
              static_cast<long long>(survey.false_negatives()));

  if (metrics != nullptr) {
    metrics->GetCounter("wmm_accuracy_correct_total").Add(correct);
    metrics->GetCounter("wmm_accuracy_runs_total")
        .Add(static_cast<std::uint64_t>(std::size(models)) * 10);
    metrics->GetCounter("wmm_survey_aps_total").Add(kSurveyAps);
    metrics
        ->GetCounter("wmm_survey_outcomes_total", {{"cell", "true_positive"}})
        .Add(static_cast<std::uint64_t>(survey.true_positives()));
    metrics
        ->GetCounter("wmm_survey_outcomes_total", {{"cell", "false_positive"}})
        .Add(static_cast<std::uint64_t>(survey.false_positives()));
    metrics
        ->GetCounter("wmm_survey_outcomes_total", {{"cell", "false_negative"}})
        .Add(static_cast<std::uint64_t>(survey.false_negatives()));
    metrics
        ->GetCounter("wmm_survey_outcomes_total", {{"cell", "true_negative"}})
        .Add(static_cast<std::uint64_t>(survey.true_negatives()));
  }

  std::printf("\n--- ablation: idle AP (no ambient traffic) ---\n");
  const sim::Rng idle_root(5000);
  const auto idle = fleet::RunFleet(10, jobs, [&](std::size_t run) -> int {
    return DetectOnce(models[0], true, false, idle_root.Fork(run).Next())
               ? 1
               : 0;
  });
  int idle_detected = 0;
  for (const int hit : idle) idle_detected += hit;
  detections += 10;
  std::printf("WMM AP detected on idle network in %d/10 attempts — with no "
              "standing\nqueue the detector conservatively reports no-WMM "
              "and Kwikr falls back to\nbaseline behaviour (safe; paper "
              "Section 7.3).\n\n", idle_detected);
  bench::PrintFleetTiming("wmm_prevalence", jobs, timer.ElapsedMs(),
                          detections);
  bench::ExportMetrics(argc, argv, registry);
  return 0;
}
