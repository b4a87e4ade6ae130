// Tests for the extension features: TXOP bursting in the EDCA model, the
// GCC-style delay-gradient controller (with and without the Ping-Pair
// cross-traffic hook), the link-quality hint detector, and raw IPv4 header
// construction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/handoff.h"
#include "core/kwikr.h"
#include "core/link_quality.h"
#include "net/checksum.h"
#include "net/wire.h"
#include "rtc/bandwidth_estimator.h"
#include "rtc/gcc.h"
#include "rtc/media.h"
#include "scenario/call_experiment.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "wifi/channel.h"

namespace kwikr {
namespace {

// ------------------------------------------------------------- TXOP --------

struct TxopFixture : public ::testing::Test {
  sim::EventLoop loop;
  wifi::Channel channel{loop, sim::Rng{42}};
  std::vector<sim::Time> deliveries;
  void OnDelivery(wifi::Frame) { deliveries.push_back(loop.now()); }
  wifi::OwnerId dst = channel.RegisterOwner(
      wifi::Channel::DeliveryHandler::Member<&TxopFixture::OnDelivery>(this));
  wifi::OwnerId src = channel.RegisterOwner(nullptr);

  wifi::ContenderId MakeContender(wifi::AccessCategory ac) {
    return channel.CreateContender(src, ac,
                                   wifi::DefaultEdcaParams()[Index(ac)]);
  }

  void EnqueueFrames(wifi::ContenderId c, int n, std::int32_t bytes = 200) {
    for (int i = 0; i < n; ++i) {
      wifi::Frame f;
      f.dest = dst;
      f.phy_rate_bps = 24'000'000;
      f.packet.size_bytes = bytes;
      channel.Enqueue(c, std::move(f));
    }
  }
};

TEST_F(TxopFixture, VoiceFramesBurstWithinTxop) {
  const auto vo = MakeContender(wifi::AccessCategory::kVoice);
  EnqueueFrames(vo, 4);
  loop.Run();
  ASSERT_EQ(deliveries.size(), 4u);
  EXPECT_GT(channel.txop_continuations(), 0u);
  // Burst frames are separated by exactly airtime + SIFS (no backoff).
  const wifi::PhyParams& phy = channel.phy();
  const sim::Duration spacing =
      phy.FrameAirtime(200, 24'000'000) + phy.sifs;
  EXPECT_EQ(deliveries[1] - deliveries[0], spacing);
  EXPECT_EQ(deliveries[2] - deliveries[1], spacing);
}

TEST_F(TxopFixture, BestEffortNeverBursts) {
  const auto be = MakeContender(wifi::AccessCategory::kBestEffort);
  EnqueueFrames(be, 10);
  loop.Run();
  ASSERT_EQ(deliveries.size(), 10u);
  EXPECT_EQ(channel.txop_continuations(), 0u);
  // Every gap includes a fresh AIFS (43 us) at minimum beyond the airtime.
  const wifi::PhyParams& phy = channel.phy();
  const sim::Duration airtime = phy.FrameAirtime(200, 24'000'000);
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i] - deliveries[i - 1],
              airtime + phy.Aifs(wifi::DefaultEdcaParams()[1]));
  }
}

TEST_F(TxopFixture, TxopLimitBoundsTheBurst) {
  // Voice TXOP is 1.504 ms; frames of ~0.6 ms airtime fit at most twice.
  const auto vo = MakeContender(wifi::AccessCategory::kVoice);
  EnqueueFrames(vo, 6, 1500);  // ~0.61 ms airtime each at 24 Mbps.
  loop.Run();
  ASSERT_EQ(deliveries.size(), 6u);
  // 6 frames, bursts of <= 2: at least 3 separate medium wins, so at most
  // 3 continuations.
  EXPECT_LE(channel.txop_continuations(), 3u);
  EXPECT_GT(channel.txop_continuations(), 0u);
}

TEST_F(TxopFixture, BurstFramesCarryConsecutiveSequenceNumbers) {
  std::vector<std::uint16_t> sequences;
  auto on_delivery = [&](wifi::Frame f) {
    sequences.push_back(f.packet.mac.sequence);
  };
  const wifi::OwnerId dst2 = channel.RegisterOwner(on_delivery);
  const auto vo = channel.CreateContender(
      src, wifi::AccessCategory::kVoice,
      wifi::DefaultEdcaParams()[Index(wifi::AccessCategory::kVoice)]);
  for (int i = 0; i < 3; ++i) {
    wifi::Frame f;
    f.dest = dst2;
    f.phy_rate_bps = 24'000'000;
    f.packet.size_bytes = 200;
    channel.Enqueue(vo, std::move(f));
  }
  loop.Run();
  ASSERT_EQ(sequences.size(), 3u);
  EXPECT_EQ(sequences[1], (sequences[0] + 1) & 0x0FFF);
  EXPECT_EQ(sequences[2], (sequences[1] + 1) & 0x0FFF);
}

// ------------------------------------------------------- Trendline ---------

TEST(Trendline, FlatDelayHasZeroSlope) {
  rtc::TrendlineEstimator trendline;
  for (int i = 0; i < 30; ++i) {
    trendline.OnSample(i * 20.0, 5.0);
  }
  EXPECT_NEAR(trendline.slope(), 0.0, 1e-9);
}

TEST(Trendline, RampHasPositiveSlope) {
  rtc::TrendlineEstimator trendline;
  for (int i = 0; i < 30; ++i) {
    trendline.OnSample(i * 20.0, i * 2.0);  // +2 ms per 20 ms.
  }
  EXPECT_GT(trendline.slope(), 0.05);
}

TEST(Trendline, DecliningDelayHasNegativeSlope) {
  rtc::TrendlineEstimator trendline;
  for (int i = 0; i < 30; ++i) {
    trendline.OnSample(i * 20.0, 100.0 - i * 2.0);
  }
  EXPECT_LT(trendline.slope(), -0.05);
}

TEST(Trendline, NeedsThreeSamples) {
  rtc::TrendlineEstimator trendline;
  trendline.OnSample(0.0, 0.0);
  trendline.OnSample(20.0, 50.0);
  EXPECT_DOUBLE_EQ(trendline.slope(), 0.0);
}

TEST(Trendline, WindowForgetsOldSamples) {
  rtc::TrendlineEstimator::Config config;
  config.window_size = 10;
  rtc::TrendlineEstimator trendline(config);
  // Ramp, then long flat: slope must come back down near zero.
  for (int i = 0; i < 10; ++i) trendline.OnSample(i * 20.0, i * 5.0);
  EXPECT_GT(trendline.slope(), 0.0);
  for (int i = 10; i < 60; ++i) trendline.OnSample(i * 20.0, 45.0);
  EXPECT_NEAR(trendline.slope(), 0.0, 0.01);
  EXPECT_EQ(trendline.samples(), 10);
}

// ----------------------------------------------------- GccController -------

rtc::GccController MakeGcc() {
  rtc::GccController::Config config;
  config.start_rate_bps = 1'000'000;
  return rtc::GccController(config);
}

void FeedSteady(rtc::GccController& gcc, sim::Time from, int packets,
                sim::Duration queueing = 0) {
  for (int i = 0; i < packets; ++i) {
    const sim::Time send = from + i * sim::Millis(20);
    gcc.OnPacket(send, send + sim::Millis(1) + queueing, 1000);
  }
}

TEST(Gcc, IncreasesWhenDelayFlat) {
  auto gcc = MakeGcc();
  FeedSteady(gcc, 0, 300);  // 6 seconds of clean delay.
  EXPECT_GT(gcc.target_rate_bps(), 1'200'000);
  EXPECT_EQ(gcc.usage(), rtc::BandwidthUsage::kNormal);
  EXPECT_EQ(gcc.decreases(), 0);
}

TEST(Gcc, RampingDelayTriggersDecrease) {
  auto gcc = MakeGcc();
  FeedSteady(gcc, 0, 100);  // warm-up, also sets the receive rate.
  // Now the delay ramps 4 ms per packet: a clear overuse signal.
  for (int i = 0; i < 100; ++i) {
    const sim::Time send = sim::Seconds(2) + i * sim::Millis(20);
    gcc.OnPacket(send, send + sim::Millis(1) + i * sim::Millis(4), 1000);
  }
  EXPECT_GT(gcc.decreases(), 0);
  EXPECT_LT(gcc.target_rate_bps(), 1'000'000);
}

TEST(Gcc, DecreaseTracksReceiveRate) {
  auto gcc = MakeGcc();
  FeedSteady(gcc, 0, 200);  // receive rate: 1000 B / 20 ms = 400 kbps.
  for (int i = 0; i < 100; ++i) {
    const sim::Time send = sim::Seconds(4) + i * sim::Millis(20);
    gcc.OnPacket(send, send + sim::Millis(1) + i * sim::Millis(4), 1000);
  }
  ASSERT_GT(gcc.decreases(), 0);
  // Target = decrease_factor x receive rate (~400 kbps), not a fraction of
  // the inflated pre-congestion target.
  EXPECT_NEAR(static_cast<double>(gcc.target_rate_bps()), 0.85 * 400'000.0,
              60'000.0);
}

TEST(Gcc, KwikrHookSuppressesCrossTrafficReaction) {
  auto plain = MakeGcc();
  auto informed = MakeGcc();
  double tc_ms = 0.0;
  informed.SetCrossTrafficProvider([&tc_ms] { return tc_ms / 1000.0; });
  FeedSteady(plain, 0, 100);
  FeedSteady(informed, 0, 100);
  // Cross-traffic-induced ramp: Tc tracks the whole delay.
  for (int i = 0; i < 100; ++i) {
    const sim::Time send = sim::Seconds(2) + i * sim::Millis(20);
    const sim::Duration queueing = i * sim::Millis(4);
    tc_ms = sim::ToMillis(queueing);
    plain.OnPacket(send, send + sim::Millis(1) + queueing, 1000);
    informed.OnPacket(send, send + sim::Millis(1) + queueing, 1000);
  }
  EXPECT_GT(plain.decreases(), 0);
  EXPECT_EQ(informed.decreases(), 0);
  EXPECT_GT(informed.target_rate_bps(), plain.target_rate_bps());
}

TEST(Gcc, RespectsRateClamps) {
  rtc::GccController::Config config;
  config.start_rate_bps = 500'000;
  config.max_rate_bps = 600'000;
  config.min_rate_bps = 400'000;
  rtc::GccController gcc(config);
  FeedSteady(gcc, 0, 1000);
  EXPECT_LE(gcc.target_rate_bps(), 600'000);
  for (int i = 0; i < 400; ++i) {
    const sim::Time send = sim::Seconds(20) + i * sim::Millis(20);
    gcc.OnPacket(send, send + sim::Millis(1) + i * sim::Millis(5), 1000);
  }
  EXPECT_GE(gcc.target_rate_bps(), 400'000);
}

TEST(Gcc, MediaReceiverUsesGccTargetInDelayGradientMode) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  rtc::MediaReceiver::Config config;
  config.flow = 5;
  config.adaptation = rtc::MediaReceiver::Adaptation::kDelayGradient;
  std::vector<net::Packet> feedback;
  rtc::MediaReceiver receiver(loop, ids, config, [&](net::Packet p) {
    feedback.push_back(std::move(p));
  });
  net::Packet media;
  media.protocol = net::Protocol::kUdp;
  media.flow = 5;
  media.size_bytes = 1000;
  for (int i = 0; i < 50; ++i) {
    media.udp.sequence = i;
    media.udp.sender_timestamp = i * sim::Millis(20);
    receiver.OnPacket(media, i * sim::Millis(20) + sim::Millis(1));
  }
  EXPECT_EQ(receiver.target_rate_bps(), receiver.gcc().target_rate_bps());
  receiver.Start();
  loop.RunUntil(sim::Millis(150));
  receiver.Stop();
  ASSERT_FALSE(feedback.empty());
  EXPECT_EQ(feedback[0].rtc_feedback.target_rate_bps,
            receiver.gcc().target_rate_bps());
}

// ---------------------------------------------------- LinkQuality ----------

net::Packet MacPacket(std::int64_t rate, bool retry) {
  net::Packet p;
  p.mac.data_rate_bps = rate;
  p.mac.retry = retry;
  p.mac.transmissions = retry ? 2 : 1;
  return p;
}

TEST(LinkQuality, SilentUntilMinSamples) {
  core::LinkQualityDetector detector;
  for (int i = 0; i < 10; ++i) {
    detector.OnPacket(MacPacket(6'500'000, true), i);
  }
  EXPECT_FALSE(detector.degraded());
}

TEST(LinkQuality, HighRetryFractionDegrades) {
  core::LinkQualityDetector detector;
  for (int i = 0; i < 60; ++i) {
    detector.OnPacket(MacPacket(65'000'000, i % 2 == 0), i);
  }
  EXPECT_TRUE(detector.degraded());  // 50% retries.
  EXPECT_GT(detector.smoothed_retry_fraction(), 0.25);
}

TEST(LinkQuality, LowRateDegrades) {
  core::LinkQualityDetector detector;
  for (int i = 0; i < 60; ++i) {
    detector.OnPacket(MacPacket(6'500'000, false), i);
  }
  EXPECT_TRUE(detector.degraded());
}

TEST(LinkQuality, CleanFastLinkIsHealthy) {
  core::LinkQualityDetector detector;
  for (int i = 0; i < 60; ++i) {
    detector.OnPacket(MacPacket(65'000'000, false), i);
  }
  EXPECT_FALSE(detector.degraded());
}

TEST(LinkQuality, HintsFireOnlyOnTransitions) {
  core::LinkQualityDetector detector;
  std::vector<core::LinkQualityHint> hints;
  detector.AddHintCallback([&](const core::LinkQualityHint& h) {
    hints.push_back(h);
  });
  // Healthy -> degraded -> healthy again.
  for (int i = 0; i < 50; ++i) detector.OnPacket(MacPacket(65'000'000, false), i);
  for (int i = 0; i < 80; ++i) {
    detector.OnPacket(MacPacket(65'000'000, true), 50 + i);
  }
  for (int i = 0; i < 200; ++i) {
    detector.OnPacket(MacPacket(65'000'000, false), 130 + i);
  }
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_TRUE(hints[0].degraded);
  EXPECT_FALSE(hints[1].degraded);
}

TEST(LinkQuality, IgnoresPacketsWithoutMacMetadata) {
  core::LinkQualityDetector detector;
  net::Packet p;  // no MAC rate.
  for (int i = 0; i < 100; ++i) detector.OnPacket(p, i);
  EXPECT_EQ(detector.samples(), 0);
}

TEST(LinkQuality, DetectsMobilityEpisodeInSim) {
  // End to end: a downlink stream while the client walks away and back —
  // the detector must flag the weak-link phase from MAC metadata alone.
  scenario::Testbed testbed(scenario::Testbed::Config{77, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& client = bss.AddStation(testbed.NextStationAddress(), 65'000'000);
  testbed.InstallStationErrorModel();

  core::LinkQualityDetector detector;
  std::vector<core::LinkQualityHint> hints;
  detector.AddHintCallback([&](const core::LinkQualityHint& h) {
    hints.push_back(h);
  });
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    detector.OnPacket(p, at);
  });

  // 100 pkt/s downlink stream.
  sim::PeriodicTimer stream(testbed.loop(), sim::Millis(10), [&] {
    net::Packet p;
    p.id = testbed.ids().Next();
    p.protocol = net::Protocol::kUdp;
    p.dst = client.address();
    p.size_bytes = 1000;
    bss.ap().DeliverFromWan(std::move(p));
  });
  stream.Start();
  testbed.loop().ScheduleAt(sim::Seconds(10), [&] {
    client.SetLinkQuality(
        wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 70.0));
  });
  testbed.loop().ScheduleAt(sim::Seconds(20), [&] {
    client.SetLinkQuality(
        wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 2.0));
  });

  testbed.loop().RunUntil(sim::Seconds(8));
  EXPECT_FALSE(detector.degraded());  // near the AP: healthy.
  testbed.loop().RunUntil(sim::Seconds(18));
  EXPECT_TRUE(detector.degraded());   // far away: degraded.
  testbed.loop().RunUntil(sim::Seconds(30));
  EXPECT_FALSE(detector.degraded());  // back near the AP: recovered.

  ASSERT_GE(hints.size(), 2u);
  EXPECT_TRUE(hints[0].degraded);
  EXPECT_GT(hints[0].at, sim::Seconds(9));
  EXPECT_LT(hints[0].at, sim::Seconds(14));
  EXPECT_FALSE(hints.back().degraded);
}

// ------------------------------------------------------ IPv4 header --------

TEST(Ipv4Header, SerializeParsesBackCorrectly) {
  net::Ipv4Header header;
  header.tos = net::kTosVoice;
  header.total_length = 84;
  header.identification = 0x1234;
  header.ttl = 64;
  header.protocol = 1;
  header.src = 0xC0A80102;
  header.dst = 0xC0A80101;
  const auto wire = header.Serialize();
  ASSERT_EQ(wire.size(), 20u);
  const auto view = net::Ipv4HeaderView::Parse(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->tos, net::kTosVoice);
  EXPECT_EQ(view->ttl, 64);
  EXPECT_EQ(view->protocol, 1);
  EXPECT_EQ(view->src, 0xC0A80102u);
  EXPECT_EQ(view->dst, 0xC0A80101u);
}

TEST(Ipv4Header, ChecksumIsValid) {
  net::Ipv4Header header;
  header.src = 0x0A000001;
  header.dst = 0x0A000002;
  header.total_length = 100;
  const auto wire = header.Serialize();
  EXPECT_TRUE(net::ChecksumIsValid(wire));
}

TEST(Ipv4Header, SerializeWithPayloadFillsLength) {
  net::Ipv4Header header;
  header.src = 1;
  header.dst = 2;
  const std::vector<std::uint8_t> payload(44, 0xAB);
  const auto wire = header.SerializeWithPayload(payload);
  ASSERT_EQ(wire.size(), 64u);
  EXPECT_EQ(wire[2], 0u);
  EXPECT_EQ(wire[3], 64u);  // total length.
  EXPECT_TRUE(net::ChecksumIsValid(std::span(wire).first(20)));
  EXPECT_EQ(wire[20], 0xAB);
}

TEST(Ipv4Header, FullProbeDatagramRoundTrips) {
  // The paper's Windows tool builds the entire probe: IP header with the
  // priority TOS plus the ICMP echo.
  net::IcmpEchoWire echo;
  echo.ident = 0x5050;
  echo.sequence = 3;
  echo.payload.assign(28, 0);
  const auto icmp = echo.Serialize();

  net::Ipv4Header header;
  header.tos = net::kTosBestEffort;
  header.src = 0xC0A80164;
  header.dst = 0xC0A80101;
  const auto datagram = header.SerializeWithPayload(icmp);

  const auto view = net::Ipv4HeaderView::Parse(datagram);
  ASSERT_TRUE(view.has_value());
  const auto parsed = net::IcmpEchoWire::Parse(
      std::span(datagram).subspan(view->ihl_bytes));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ident, 0x5050);
  EXPECT_EQ(parsed->sequence, 3);
}

// ------------------------------------------ GCC in the full scenario -------

TEST(GccScenario, DelayGradientCallAdaptsUnderCongestion) {
  scenario::ExperimentConfig config;
  config.seed = 404;
  config.duration = sim::Seconds(90);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(30);
  config.congestion_end = sim::Seconds(60);
  config.calls[0].adaptation = rtc::MediaReceiver::Adaptation::kDelayGradient;
  const auto metrics = scenario::RunCallExperiment(config);
  const auto& series = metrics.calls[0].rate_series_kbps;
  ASSERT_GE(series.size(), 85u);
  double before = 0.0;
  double during = 0.0;
  for (int t = 20; t < 30; ++t) before += series[t] / 10.0;
  for (int t = 40; t < 60; ++t) during += series[t] / 20.0;
  EXPECT_GT(before, 600.0);   // ramped up on the clean link.
  EXPECT_LT(during, before);  // backed off under congestion.
}

TEST(GccScenario, KwikrInformedGccKeepsHigherRate) {
  scenario::ExperimentConfig config;
  config.seed = 405;
  config.duration = sim::Seconds(90);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(30);
  config.congestion_end = sim::Seconds(60);
  config.calls[0].adaptation = rtc::MediaReceiver::Adaptation::kDelayGradient;

  config.calls[0].kwikr = false;
  const auto plain = scenario::RunCallExperiment(config);
  config.calls[0].kwikr = true;
  const auto informed = scenario::RunCallExperiment(config);

  EXPECT_GT(informed.calls[0].mean_rate_congested_kbps,
            plain.calls[0].mean_rate_congested_kbps);
  // Safety: loss not meaningfully worse.
  EXPECT_LT(informed.calls[0].loss_pct, plain.calls[0].loss_pct + 2.0);
}


// --------------------------------------------------- Handoff / roaming ----

TEST(Handoff, StationRoamSwitchesGatewayAndBss) {
  scenario::Testbed testbed(scenario::Testbed::Config{88, wifi::PhyParams{}});
  auto& bss1 = testbed.AddBss(scenario::Bss::Config{});
  scenario::Bss::Config bc2;
  bc2.ap.address = 2;
  auto& bss2 = testbed.AddBss(bc2);
  auto& client = bss1.AddStation(testbed.NextStationAddress(), 26'000'000);
  EXPECT_EQ(client.gateway(), 1u);

  std::vector<net::Address> roams;
  client.AddRoamCallback([&](net::Address gw) { roams.push_back(gw); });
  client.Roam(bss2.ap(), wifi::LinkQuality{65'000'000, 0.0});
  EXPECT_EQ(client.gateway(), 2u);
  ASSERT_EQ(roams.size(), 1u);
  EXPECT_EQ(roams[0], 2u);

  // Downlink via the new AP reaches the client; the old AP no longer
  // routes to it.
  int received = 0;
  client.AddReceiver([&](const net::Packet&, sim::Time) { ++received; });
  net::Packet p;
  p.dst = client.address();
  p.size_bytes = 300;
  bss2.ap().DeliverFromWan(net::Packet(p));
  bss1.ap().DeliverFromWan(net::Packet(p));
  testbed.loop().Run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(bss1.ap().unroutable_drops(), 1u);
}

TEST(Handoff, RoamToSameApIsNoop) {
  scenario::Testbed testbed(scenario::Testbed::Config{89, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& client = bss.AddStation(testbed.NextStationAddress(), 26'000'000);
  int roams = 0;
  client.AddRoamCallback([&](net::Address) { ++roams; });
  client.Roam(bss.ap(), wifi::LinkQuality{26'000'000, 0.0});
  EXPECT_EQ(roams, 0);
}

TEST(Handoff, DetectorEmitsHintAndRunsResetHooksFirst) {
  sim::EventLoop loop;
  core::HandoffDetector detector([&loop] { return loop.now(); });
  detector.SetInitialGateway(1);
  std::vector<std::string> order;
  detector.AddResetHook([&] { order.push_back("reset"); });
  detector.AddHintCallback([&](const core::HandoffHint& h) {
    order.push_back("hint");
    EXPECT_EQ(h.old_gateway, 1u);
    EXPECT_EQ(h.new_gateway, 2u);
  });
  detector.OnGatewayChange(2);
  detector.OnGatewayChange(2);  // duplicate: no second hint.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "reset");
  EXPECT_EQ(order[1], "hint");
  EXPECT_EQ(detector.handoffs(), 1);
}

TEST(Handoff, EstimatorPathResetRelearnsDelayBaseline) {
  rtc::BandwidthEstimator estimator;
  // Old path: 100 ms propagation baseline.
  for (int i = 0; i < 50; ++i) {
    const sim::Time send = i * sim::Millis(20);
    estimator.OnPacket(send, send + sim::Millis(100), 1000);
  }
  // New path: 10 ms baseline. Without a reset the estimator would read
  // every new-path packet as 0 queueing (min stays 10... actually the min
  // *adapts down* here; the dangerous direction is a HIGHER new baseline).
  rtc::BandwidthEstimator no_reset = estimator;
  estimator.OnPathChange();
  for (int i = 50; i < 60; ++i) {
    const sim::Time send = i * sim::Millis(20);
    estimator.OnPacket(send, send + sim::Millis(150), 1000);
    no_reset.OnPacket(send, send + sim::Millis(150), 1000);
  }
  // With the reset, 150 ms is the new baseline -> queueing reads 0.
  EXPECT_NEAR(estimator.last_observed_delay_s(), 0.0, 1e-9);
  // Without it, the stale 100 ms minimum misreads 50 ms of queueing.
  EXPECT_NEAR(no_reset.last_observed_delay_s(), 0.050, 1e-9);
}

TEST(Handoff, KwikrAdapterResetForgetsSmoothedState) {
  sim::EventLoop loop;
  core::KwikrAdapter adapter(loop);
  core::PingPairSample sample;
  sample.completed_at = 0;
  sample.tq = sim::Millis(50);
  sample.tc = sim::Millis(40);
  adapter.OnSample(sample);
  EXPECT_GT(adapter.SmoothedTcSeconds(), 0.0);
  EXPECT_TRUE(adapter.CurrentlyCongested());
  adapter.Reset();
  EXPECT_DOUBLE_EQ(adapter.SmoothedTcSeconds(), 0.0);
  EXPECT_FALSE(adapter.CurrentlyCongested());
}

TEST(Handoff, EndToEndRoamMidStream) {
  // A UDP stream plays while the client roams from AP1 to AP2; the scenario
  // reroutes the wired feed on the roam callback (upstream routing
  // convergence) and the Ping-Pair prober retargets the new gateway.
  scenario::Testbed testbed(scenario::Testbed::Config{90, wifi::PhyParams{}});
  auto& bss1 = testbed.AddBss(scenario::Bss::Config{});
  scenario::Bss::Config bc2;
  bc2.ap.address = 2;
  auto& bss2 = testbed.AddBss(bc2);
  auto& client = bss1.AddStation(testbed.NextStationAddress(), 26'000'000);

  scenario::Bss* serving = &bss1;
  core::HandoffDetector detector(
      [&testbed] { return testbed.loop().now(); });
  detector.SetInitialGateway(client.gateway());
  client.AddRoamCallback([&](net::Address gw) {
    serving = &bss2;  // upstream reroute.
    detector.OnGatewayChange(gw);
  });

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, client.gateway());
  core::PingPairProber::Config pcfg;
  pcfg.interval = sim::Millis(200);
  core::PingPairProber prober(testbed.loop(), transport, pcfg, 1);
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) prober.OnReply(p, at);
  });

  // Downlink stream through whichever BSS currently serves the client.
  std::uint64_t delivered = 0;
  client.AddReceiver([&](const net::Packet& p, sim::Time) {
    if (p.protocol == net::Protocol::kUdp) ++delivered;
  });
  sim::PeriodicTimer stream(testbed.loop(), sim::Millis(20), [&] {
    net::Packet p;
    p.id = testbed.ids().Next();
    p.protocol = net::Protocol::kUdp;
    p.dst = client.address();
    p.size_bytes = 800;
    serving->SendFromWan(std::move(p));
  });
  stream.Start();
  prober.Start();

  testbed.loop().ScheduleAt(sim::Seconds(10), [&] {
    client.Roam(bss2.ap(), wifi::LinkQuality{65'000'000, 0.0});
  });
  testbed.loop().RunUntil(sim::Seconds(20));

  EXPECT_EQ(detector.handoffs(), 1);
  // Stream kept flowing on both sides of the roam (>80% of 1000 packets).
  EXPECT_GT(delivered, 800u);
  // The prober kept producing valid samples after the handoff, now against
  // AP2's echo responder.
  std::uint64_t samples_after = 0;
  for (const auto& s : prober.samples()) {
    if (s.completed_at > sim::Seconds(11)) ++samples_after;
  }
  EXPECT_GT(samples_after, 30u);
  EXPECT_GT(bss2.ap().echo_replies_sent(), 30u);
}

}  // namespace
}  // namespace kwikr
