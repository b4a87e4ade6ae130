#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <vector>

#include "core/channel_access.h"
#include "core/ping_pair.h"
#include "core/wmm_detector.h"
#include "scenario/call_experiment.h"
#include "scenario/fault_scenario.h"
#include "scenario/testbed.h"
#include "scenario/wild_population.h"
#include "stats/percentile.h"
#include "stats/ewma.h"
#include "stats/summary.h"
#include "transport/udp_stream.h"

namespace kwikr::scenario {
namespace {

/// A client station with a Ping-Pair prober attached, on a fresh testbed.
struct ProbedClient {
  Testbed testbed;
  Bss* bss = nullptr;
  wifi::Station* client = nullptr;
  wifi::Station* sink = nullptr;  ///< second station for queue preloading.
  std::unique_ptr<StationProbeTransport> transport;
  std::unique_ptr<core::PingPairProber> prober;

  explicit ProbedClient(std::uint64_t seed, bool wmm = true,
                        core::PingPairProber::Config probe_config = {})
      : testbed(Testbed::Config{seed, wifi::PhyParams{}}) {
    Bss::Config bc;
    bc.ap.wmm_enabled = wmm;
    bss = &testbed.AddBss(bc);
    client = &bss->AddStation(testbed.NextStationAddress(), 26'000'000);
    sink = &bss->AddStation(testbed.NextStationAddress(), 26'000'000);
    transport = std::make_unique<StationProbeTransport>(
        testbed.loop(), testbed.ids(), *client, bss->ap().address());
    prober = std::make_unique<core::PingPairProber>(
        testbed.loop(), *transport, probe_config, net::FlowId{1});
    client->AddReceiver([this](const net::Packet& p, sim::Time at) {
      if (p.protocol == net::Protocol::kIcmp) {
        prober->OnReply(p, at);
      } else {
        prober->OnFlowPacket(p, at);
      }
    });
  }

  /// Preloads the AP's Best-Effort downlink queue with `n` packets headed to
  /// the sink station.
  void PreloadQueue(int n, std::int32_t bytes = 1200) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.id = testbed.ids().Next();
      p.protocol = net::Protocol::kUdp;
      p.dst = sink->address();
      p.size_bytes = bytes;
      bss->ap().DeliverFromWan(std::move(p));
    }
  }
};

// --------------------------------------------------- Ping-Pair in vivo ----

TEST(PingPairSim, IdleApYieldsTinyDelay) {
  ProbedClient pc(1);
  pc.prober->ProbeOnce();
  pc.testbed.loop().RunUntil(sim::Millis(100));
  ASSERT_EQ(pc.prober->samples().size(), 1u);
  // With an empty queue the reply gap is about one frame service time.
  EXPECT_LT(pc.prober->samples()[0].tq, sim::Millis(3));
}

TEST(PingPairSim, StandingQueueMeasured) {
  ProbedClient pc(2);
  pc.PreloadQueue(40);
  pc.prober->ProbeOnce();
  pc.testbed.loop().RunUntil(sim::Millis(500));
  ASSERT_EQ(pc.prober->samples().size(), 1u);
  const auto& s = pc.prober->samples()[0];
  // 40 frames of 1200 B at 26 Mbps: >= 40 * ~0.45 ms of airtime.
  EXPECT_GT(s.tq, sim::Millis(10));
  EXPECT_LT(s.tq, sim::Millis(120));
  // None of that backlog belongs to the probed flow.
  EXPECT_EQ(s.sandwiched, 0);
  EXPECT_EQ(s.tc, s.tq);
}

class QueueSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(QueueSweepTest, TqScalesWithQueueDepth) {
  const int depth = GetParam();
  ProbedClient shallow(100 + depth);
  shallow.PreloadQueue(depth);
  shallow.prober->ProbeOnce();
  shallow.testbed.loop().RunUntil(sim::Seconds(1));

  ProbedClient deep(200 + depth);
  deep.PreloadQueue(depth * 2);
  deep.prober->ProbeOnce();
  deep.testbed.loop().RunUntil(sim::Seconds(1));

  ASSERT_EQ(shallow.prober->samples().size(), 1u);
  ASSERT_EQ(deep.prober->samples().size(), 1u);
  // Double the queue, roughly double the estimate.
  const double ratio =
      static_cast<double>(deep.prober->samples()[0].tq) /
      static_cast<double>(shallow.prober->samples()[0].tq);
  EXPECT_GT(ratio, 1.4) << "depth " << depth;
  EXPECT_LT(ratio, 2.9) << "depth " << depth;
}

INSTANTIATE_TEST_SUITE_P(Depths, QueueSweepTest,
                         ::testing::Values(10, 20, 40, 80));

TEST(PingPairSim, WithoutWmmHighPriorityGetsNoBoost) {
  // With WMM off the "high-priority" reply waits in the same FIFO: the
  // measured gap collapses to about one service time even with a deep queue,
  // which is why Kwikr under-estimates (and stays safe) on non-WMM APs
  // (Section 7.3).
  ProbedClient wmm(3, /*wmm=*/true);
  ProbedClient plain(3, /*wmm=*/false);
  for (auto* pc : {&wmm, &plain}) {
    pc->PreloadQueue(40);
    pc->prober->ProbeOnce();
    pc->testbed.loop().RunUntil(sim::Millis(500));
  }
  ASSERT_EQ(wmm.prober->samples().size(), 1u);
  ASSERT_EQ(plain.prober->samples().size(), 1u);
  EXPECT_LT(plain.prober->samples()[0].tq,
            wmm.prober->samples()[0].tq / 5);
}

TEST(PingPairSim, SelfTrafficAttributedToTa) {
  ProbedClient pc(4);
  // A 2 Mbps downlink UDP stream to the client is the flow of interest.
  transport::UdpCbrSender::Config cbr;
  cbr.src = 999;
  cbr.dst = pc.client->address();
  cbr.flow = 1;  // ProbedClient's flow of interest.
  cbr.packet_bytes = 1200;
  cbr.interval = sim::Millis(5);
  transport::UdpCbrSender sender(
      pc.testbed.loop(), pc.testbed.ids(), cbr,
      [&](net::Packet p) { pc.bss->SendFromWan(std::move(p)); });
  sender.Start();
  core::PingPairProber& prober = *pc.prober;
  prober.Start();
  pc.testbed.loop().RunUntil(sim::Seconds(10));
  sender.Stop();
  prober.Stop();

  ASSERT_GT(prober.stats().valid, 10u);
  // Some samples must sandwich stream packets and attribute delay to Ta.
  std::int64_t sandwiched_total = 0;
  for (const auto& s : prober.samples()) sandwiched_total += s.sandwiched;
  EXPECT_GT(sandwiched_total, 0);
  for (const auto& s : prober.samples()) {
    EXPECT_GE(s.tc, 0);
    EXPECT_LE(s.ta, s.tq + sim::Millis(5));
  }
}

TEST(PingPairSim, MostProbesValidUnderCongestion) {
  // The paper reports 98% of probes valid when the downlink is congested.
  ExperimentConfig config;
  config.seed = 11;
  config.duration = sim::Seconds(60);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(5);
  config.congestion_end = sim::Seconds(55);
  const auto metrics = RunCallExperiment(config);
  const auto& stats = metrics.calls[0].probe_stats;
  ASSERT_GT(stats.rounds, 50u);
  EXPECT_GT(static_cast<double>(stats.valid) /
                static_cast<double>(stats.rounds),
            0.90);
}

TEST(PingPairSim, PingTimeModeTracksArrivalMode) {
  // Section 7.3: the Android ping-utility mode gives estimates close to the
  // raw-socket arrival-time mode, congested or not.
  for (int congested = 0; congested <= 1; ++congested) {
    ExperimentConfig config;
    config.seed = 21 + congested;
    config.duration = sim::Seconds(40);
    config.cross_stations = congested ? 2 : 0;
    config.flows_per_station = 10;
    config.congestion_start = sim::Seconds(2);
    config.congestion_end = sim::Seconds(38);

    config.measurement_mode = core::MeasurementMode::kArrivalTimes;
    const auto arrival = RunCallExperiment(config);
    config.measurement_mode = core::MeasurementMode::kPingTimes;
    const auto ping = RunCallExperiment(config);

    auto median_tq = [](const CallMetrics& m) {
      std::vector<double> tq;
      for (const auto& s : m.probe_samples) tq.push_back(sim::ToMillis(s.tq));
      return stats::Percentile(tq, 50.0);
    };
    const double a = median_tq(arrival.calls[0]);
    const double p = median_tq(ping.calls[0]);
    if (congested) {
      EXPECT_NEAR(p, a, a * 0.5 + 2.0) << "congested";
    } else {
      EXPECT_NEAR(p, a, 3.0) << "uncongested";
    }
  }
}

// ------------------------------------------------------- WMM detection ----

/// Runs the WMM detector against an AP carrying ambient downlink traffic
/// (the paper's detection environments -- offices, homes, coffee shops --
/// all had a standing queue to observe; see WmmDetector's doc comment).
core::WmmResult DetectWithAmbientTraffic(std::uint64_t seed, bool wmm,
                                         bool ambient) {
  ProbedClient pc(seed, wmm);
  if (ambient) {
    // TCP bulk flows keep a standing downlink queue at any PHY rate.
    pc.testbed.AddTcpBulkFlows(*pc.bss, *pc.sink, 6);
    pc.testbed.StartCrossTraffic();
  }
  core::WmmDetector detector(pc.testbed.loop(), *pc.transport,
                             core::WmmDetector::Config{});
  pc.client->AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) detector.OnReply(p, at);
  });
  core::WmmResult result;
  pc.testbed.loop().RunUntil(sim::Seconds(5));  // queue fill.
  detector.Run([&](const core::WmmResult& r) { result = r; });
  pc.testbed.loop().RunUntil(sim::Seconds(10));
  EXPECT_FALSE(detector.running());
  return result;
}

TEST(WmmDetectorSim, DetectsWmmEnabledAp) {
  const auto result = DetectWithAmbientTraffic(5, true, true);
  EXPECT_TRUE(result.wmm_enabled)
      << "prioritized " << result.prioritized_runs << "/"
      << result.completed_runs;
}

TEST(WmmDetectorSim, RejectsFifoAp) {
  const auto result = DetectWithAmbientTraffic(6, false, true);
  EXPECT_FALSE(result.wmm_enabled)
      << "prioritized " << result.prioritized_runs << "/"
      << result.completed_runs;
}

TEST(WmmDetectorSim, IdleApConservativelyReportsNoWmm) {
  // Without any standing queue there is nothing for the high-priority reply
  // to jump: the detector must fall back to "no WMM" (the safe answer; see
  // paper Section 7.3) rather than a false positive.
  const auto result = DetectWithAmbientTraffic(7, true, false);
  EXPECT_FALSE(result.wmm_enabled);
}

class WmmSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(WmmSeedSweep, AccurateAcrossSeeds) {
  for (const bool wmm : {true, false}) {
    const auto result =
        DetectWithAmbientTraffic(1000 + GetParam(), wmm, true);
    EXPECT_EQ(result.wmm_enabled, wmm)
        << "seed " << GetParam() << " prioritized " << result.prioritized_runs
        << "/" << result.completed_runs;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WmmSeedSweep, ::testing::Range(0, 10));

// ----------------------------------------------- Channel access in vivo ----

TEST(ChannelAccessSim, MoreContendersMoreDelay) {
  auto run_with_contenders = [](int contenders) {
    ProbedClient pc(7 + contenders);
    // Contending stations each upload 1 packet/ms (Section 8.2).
    std::vector<std::unique_ptr<transport::UdpCbrSender>> senders;
    for (int i = 0; i < contenders; ++i) {
      auto& station =
          pc.bss->AddStation(pc.testbed.NextStationAddress(), 26'000'000);
      transport::UdpCbrSender::Config cbr;
      cbr.src = station.address();
      cbr.dst = 5000;
      cbr.packet_bytes = 1000;
      cbr.interval = sim::Millis(1);
      wifi::Station* sp = &station;
      senders.push_back(std::make_unique<transport::UdpCbrSender>(
          pc.testbed.loop(), pc.testbed.ids(), cbr,
          [sp](net::Packet p) { sp->Send(std::move(p)); }));
      senders.back()->Start();
    }
    core::ChannelAccessEstimator::Config cfg;
    cfg.interval = sim::Millis(20);
    core::ChannelAccessEstimator estimator(pc.testbed.loop(), *pc.transport,
                                           cfg, pc.testbed.channel().phy());
    pc.client->AddReceiver([&](const net::Packet& p, sim::Time at) {
      if (p.protocol == net::Protocol::kIcmp) estimator.OnReply(p, at);
    });
    estimator.Start();
    pc.testbed.loop().RunUntil(sim::Seconds(5));
    estimator.Stop();
    return sim::ToMicros(estimator.MeanEstimate());
  };

  const double idle = run_with_contenders(0);
  const double busy = run_with_contenders(4);
  EXPECT_GT(busy, idle * 1.5);
}

TEST(ChannelAccessSim, HighPriorityProbesSeeLessDelay) {
  auto run_with_tos = [](std::uint8_t tos) {
    ProbedClient pc(50 + tos);
    // Two contending uploaders.
    std::vector<std::unique_ptr<transport::UdpCbrSender>> senders;
    for (int i = 0; i < 3; ++i) {
      auto& station =
          pc.bss->AddStation(pc.testbed.NextStationAddress(), 26'000'000);
      transport::UdpCbrSender::Config cbr;
      cbr.src = station.address();
      cbr.dst = 5000;
      cbr.packet_bytes = 1000;
      cbr.interval = sim::Millis(1);
      wifi::Station* sp = &station;
      senders.push_back(std::make_unique<transport::UdpCbrSender>(
          pc.testbed.loop(), pc.testbed.ids(), cbr,
          [sp](net::Packet p) { sp->Send(std::move(p)); }));
      senders.back()->Start();
    }
    core::ChannelAccessEstimator::Config cfg;
    cfg.interval = sim::Millis(20);
    cfg.tos = tos;
    core::ChannelAccessEstimator estimator(pc.testbed.loop(), *pc.transport,
                                           cfg, pc.testbed.channel().phy());
    pc.client->AddReceiver([&](const net::Packet& p, sim::Time at) {
      if (p.protocol == net::Protocol::kIcmp) estimator.OnReply(p, at);
    });
    estimator.Start();
    pc.testbed.loop().RunUntil(sim::Seconds(5));
    estimator.Stop();
    return sim::ToMicros(estimator.MeanEstimate());
  };

  const double normal = run_with_tos(net::kTosBestEffort);
  const double high = run_with_tos(net::kTosVoice);
  EXPECT_LT(high, normal);
}

// ----------------------------------------------------- Experiment runner ----

TEST(CallExperiment, DeterministicForSameSeed) {
  ExperimentConfig config;
  config.seed = 31;
  config.duration = sim::Seconds(30);
  config.cross_stations = 1;
  config.flows_per_station = 5;
  config.congestion_start = sim::Seconds(5);
  config.congestion_end = sim::Seconds(25);
  const auto a = RunCallExperiment(config);
  const auto b = RunCallExperiment(config);
  EXPECT_EQ(a.calls[0].rate_series_kbps, b.calls[0].rate_series_kbps);
  EXPECT_EQ(a.calls[0].loss_pct, b.calls[0].loss_pct);
  EXPECT_EQ(a.calls[0].probe_samples.size(), b.calls[0].probe_samples.size());
}

TEST(CallExperiment, CrossTrafficActuallyFlows) {
  ExperimentConfig config;
  config.seed = 32;
  config.duration = sim::Seconds(30);
  config.cross_stations = 2;
  config.flows_per_station = 5;
  config.congestion_start = sim::Seconds(5);
  config.congestion_end = sim::Seconds(25);
  const auto metrics = RunCallExperiment(config);
  // 20 seconds of congestion on a ~15+ Mbps channel: at least 10 MB total.
  EXPECT_GT(metrics.cross_traffic_bytes, 10'000'000);
  EXPECT_GT(metrics.channel_busy_fraction, 0.2);
}

TEST(CallExperiment, QueueGroundTruthRespondsToCongestion) {
  ExperimentConfig config;
  config.seed = 33;
  config.duration = sim::Seconds(30);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(10);
  config.congestion_end = sim::Seconds(20);
  config.sample_queue = true;
  const auto metrics = RunCallExperiment(config);
  ASSERT_FALSE(metrics.queue_samples.empty());
  // Split samples into before/during congestion.
  const std::size_t per_second = metrics.queue_samples.size() / 30;
  std::size_t busy_nonempty = 0;
  std::size_t quiet_nonempty = 0;
  for (std::size_t i = 0; i < metrics.queue_samples.size(); ++i) {
    const double t = static_cast<double>(i) / per_second;
    if (t >= 11 && t < 19) {
      busy_nonempty += metrics.queue_samples[i] > 0;
    } else if (t < 9) {
      quiet_nonempty += metrics.queue_samples[i] > 0;
    }
  }
  EXPECT_GT(busy_nonempty, per_second * 7);  // >87% of the busy window.
  EXPECT_LT(quiet_nonempty, per_second * 3);
}

TEST(CallExperiment, ThrottleCausesSelfCongestionBackoff) {
  ExperimentConfig config;
  config.seed = 34;
  config.duration = sim::Seconds(90);
  config.cross_stations = 0;
  config.throttle_bps = 300'000;
  config.throttle_start = sim::Seconds(30);
  config.throttle_end = sim::Seconds(60);
  const auto metrics = RunCallExperiment(config);
  const auto& series = metrics.calls[0].rate_series_kbps;
  ASSERT_GE(series.size(), 85u);
  // Before the throttle the call ramps well above the cap; during the
  // throttle it must come down to respect it.
  double before = 0.0;
  double during = 0.0;
  for (int t = 20; t < 30; ++t) before += series[t] / 10.0;
  for (int t = 45; t < 60; ++t) during += series[t] / 15.0;
  EXPECT_GT(before, 450.0);
  EXPECT_LT(during, 400.0);
}

TEST(CallExperiment, TwoCallsShareTheAp) {
  ExperimentConfig config;
  config.seed = 35;
  config.duration = sim::Seconds(30);
  config.cross_stations = 0;
  config.calls = {CallConfig{}, CallConfig{}};
  const auto metrics = RunCallExperiment(config);
  ASSERT_EQ(metrics.calls.size(), 2u);
  EXPECT_GT(metrics.calls[0].mean_rate_kbps, 100.0);
  EXPECT_GT(metrics.calls[1].mean_rate_kbps, 100.0);
}

// --------------------------------------------------- Two-AP interference ----

TEST(Interference, NeighborCongestionRaisesProbeDelay) {
  Testbed::Config tc;
  tc.seed = 41;
  Testbed testbed(tc);
  Bss& bss1 = testbed.AddBss(Bss::Config{});
  Bss::Config bc2;
  bc2.ap.address = 2;
  Bss& bss2 = testbed.AddBss(bc2);

  wifi::Station& client =
      bss1.AddStation(testbed.NextStationAddress(), 26'000'000);
  StationProbeTransport transport(testbed.loop(), testbed.ids(), client,
                                  bss1.ap().address());
  core::PingPairProber::Config pcfg;
  pcfg.interval = sim::Millis(200);
  core::PingPairProber prober(testbed.loop(), transport, pcfg, 1);
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) prober.OnReply(p, at);
  });

  // Heavy TCP on the *neighbouring* co-channel BSS between t=20..40 s.
  for (int i = 0; i < 3; ++i) {
    wifi::Station& neighbor =
        bss2.AddStation(testbed.NextStationAddress(), 26'000'000);
    testbed.AddTcpBulkFlows(bss2, neighbor, 10);
  }
  testbed.ScheduleCrossTraffic(sim::Seconds(20), sim::Seconds(40));

  prober.Start();
  testbed.loop().RunUntil(sim::Seconds(60));
  prober.Stop();

  stats::RunningSummary quiet;
  stats::RunningSummary busy;
  for (const auto& s : prober.samples()) {
    const double tq_ms = sim::ToMillis(s.tq);
    if (s.completed_at < sim::Seconds(18)) {
      quiet.Add(tq_ms);
    } else if (s.completed_at > sim::Seconds(22) &&
               s.completed_at < sim::Seconds(38)) {
      busy.Add(tq_ms);
    }
  }
  ASSERT_GT(quiet.count(), 10);
  ASSERT_GT(busy.count(), 10);
  EXPECT_GT(busy.mean(), quiet.mean() * 2.0)
      << "quiet " << quiet.mean() << " busy " << busy.mean();
}

// ------------------------------------------------ Dual pair + mobility ----

TEST(DualPingPairSim, FiltersRetransmissionSpikesOnWeakLink) {
  ProbedClient* raw = nullptr;
  core::PingPairProber::Config pcfg;
  pcfg.dual = true;
  pcfg.interval = sim::Millis(200);
  ProbedClient pc(61, /*wmm=*/true, pcfg);
  raw = &pc;
  pc.testbed.InstallStationErrorModel();

  // Walk away (weak link with retransmissions) and back.
  auto& loop = pc.testbed.loop();
  loop.ScheduleAt(sim::Seconds(10), [raw] {
    raw->client->SetLinkQuality(
        wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 60.0));
  });
  loop.ScheduleAt(sim::Seconds(25), [raw] {
    raw->client->SetLinkQuality(
        wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 2.0));
  });

  pc.prober->Start();
  loop.RunUntil(sim::Seconds(35));
  pc.prober->Stop();

  const auto& st = pc.prober->stats();
  ASSERT_GT(st.valid, 20u);
  // The weak-link phase must have produced discarded measurements...
  EXPECT_GT(st.dual_gap + st.dual_divergence + st.timeouts, 0u);
  // ...and the EWMA-smoothed accepted series stays small throughout — the
  // property Figure 4 demonstrates. (Individual accepted samples can still
  // be inflated when head-of-line retries delay *both* pairs equally; the
  // paper's Section 5.6 analysis is probabilistic for exactly this case.)
  stats::Ewma smoothed(0.25);
  double max_smoothed = 0.0;
  for (const auto& s : pc.prober->samples()) {
    max_smoothed = std::max(max_smoothed,
                            smoothed.Update(sim::ToMillis(s.tq)));
  }
  EXPECT_LT(max_smoothed, 5.0);
}

// ------------------------------------------------------- scenario DSL ----

TEST(FaultScenarioDsl, RejectsOutOfRangeNumbers) {
  // Each row would otherwise overflow a sim::Duration, narrow an integer
  // into a garbage value, cast an out-of-range double, or re-arm a timer at
  // its own tick forever.
  const char* kRows[] = {
      "duration_ms=99999999999999",
      "congestion_start_ms=9223372036855",
      "probe_interval_ms=9223372036855",
      "probe_interval_ms=0",
      "cross_stations=3000000000",
      "flows_per_station=2147483648",
      "fq_flows=5000000000",
      "fq_flows=4294967296",  // would narrow to 0 buckets
      "anomaly_tq_p95_ms=inf",
      "anomaly_divergence=1e400",
      "fault.schedule=1e300 ge on",
      "fault.reorder.prob=7",
      "fault.drop.prob=nan",
  };
  for (const char* row : kRows) {
    FaultScenario parsed;
    std::string error;
    EXPECT_FALSE(ParseFaultScenario(row, &parsed, &error)) << row;
  }
  // The largest representable duration still parses.
  FaultScenario parsed;
  std::string error;
  EXPECT_TRUE(ParseFaultScenario("duration_ms=9223372036854", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.experiment.duration, sim::Millis(9223372036854));
}

// --------------------------------------------------------- Wild helper ----

TEST(WildPopulation, BucketArithmetic) {
  WildResults results;
  for (int i = 0; i < 10; ++i) {
    WildCallResult r;
    r.p95_tc_ms = i * 20.0;  // 0..180
    r.baseline_rate_kbps = 500.0;
    r.kwikr_rate_kbps = 550.0;
    results.calls.push_back(r);
  }
  const AbBucketRow row = ComputeAbBucket(results, 100.0);
  EXPECT_EQ(row.calls_in_bucket, 5);  // 100, 120, 140, 160, 180.
  EXPECT_DOUBLE_EQ(row.percent_calls_covered, 50.0);
  EXPECT_NEAR(row.avg_gain_percent, 10.0, 1e-9);
  EXPECT_NEAR(row.median_gain_percent, 10.0, 1e-9);
}

TEST(WildPopulation, EmptyBucketIsSafe) {
  WildResults results;
  WildCallResult r;
  r.p95_tc_ms = 1.0;
  results.calls.push_back(r);
  const AbBucketRow row = ComputeAbBucket(results, 100.0);
  EXPECT_EQ(row.calls_in_bucket, 0);
  EXPECT_DOUBLE_EQ(row.avg_gain_percent, 0.0);
}

TEST(WildPopulation, SmokeRunProducesPairedResults) {
  WildConfig config;
  config.calls = 6;
  config.base_seed = 77;
  config.call_duration = sim::Seconds(20);
  const WildResults results = RunWildPopulation(config);
  ASSERT_EQ(results.calls.size(), 6u);
  for (const auto& call : results.calls) {
    EXPECT_GT(call.baseline_rate_kbps, 0.0);
    EXPECT_GT(call.kwikr_rate_kbps, 0.0);
    EXPECT_GE(call.p95_tq_ms, 0.0);
    EXPECT_GE(call.p95_tc_ms, 0.0);
  }
}

}  // namespace
}  // namespace kwikr::scenario
