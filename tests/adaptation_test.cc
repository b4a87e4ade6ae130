// Tests for ARF rate adaptation (policy, error surface, in-sim convergence)
// and the adaptive jitter buffer.
#include <gtest/gtest.h>

#include <memory>

#include "rtc/jitter_buffer.h"
#include "scenario/call_experiment.h"
#include "scenario/testbed.h"
#include "sim/rng.h"
#include "transport/udp_stream.h"
#include "wifi/rate_adaptation.h"
#include "wifi/rate_table.h"

namespace kwikr {
namespace {

// --------------------------------------------------------- error surface ---

TEST(ErrorSurface, MonotoneInRate) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  double prev = -1.0;
  for (const auto rate : rates) {
    const double e =
        wifi::ErrorProbForRate(wifi::Band::k2_4GHz, 30.0, rate);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(ErrorSurface, MonotoneInDistance) {
  const auto rate = wifi::McsRates(wifi::Band::k2_4GHz)[5];
  double prev = -1.0;
  for (double d : {2.0, 10.0, 20.0, 40.0, 80.0}) {
    const double e = wifi::ErrorProbForRate(wifi::Band::k2_4GHz, d, rate);
    EXPECT_GE(e, prev) << d;
    prev = e;
  }
}

TEST(ErrorSurface, CleanNearApAtAnyRate) {
  for (const auto rate : wifi::McsRates(wifi::Band::k2_4GHz)) {
    EXPECT_LT(wifi::ErrorProbForRate(wifi::Band::k2_4GHz, 2.0, rate), 0.01);
  }
}

TEST(ErrorSurface, SustainableRateAgreesWithLinkQuality) {
  // ErrorProbForRate must be low exactly at the rate LinkQualityAtDistance
  // picks, and high one step above it.
  for (double d : {15.0, 30.0, 50.0}) {
    const auto quality = wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, d);
    EXPECT_LE(wifi::ErrorProbForRate(wifi::Band::k2_4GHz, d,
                                     quality.rate_bps), 0.05)
        << d;
    const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
    for (std::size_t i = 0; i + 1 < rates.size(); ++i) {
      if (rates[i] == quality.rate_bps) {
        EXPECT_GE(wifi::ErrorProbForRate(wifi::Band::k2_4GHz, d,
                                         rates[i + 1]), 0.05)
            << d;
      }
    }
  }
}

// ------------------------------------------------------------- ArfPolicy ---

TEST(Arf, StepsUpAfterConsecutiveCleanDeliveries) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  wifi::ArfPolicy arf(rates, 2);
  for (int i = 0; i < 10; ++i) arf.OnOutcome(true, 1);
  EXPECT_EQ(arf.index(), 3u);
  EXPECT_EQ(arf.steps_up(), 1);
}

TEST(Arf, RetriedDeliveryBreaksTheStreak) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  wifi::ArfPolicy arf(rates, 2);
  for (int i = 0; i < 9; ++i) arf.OnOutcome(true, 1);
  arf.OnOutcome(true, 3);  // delivered but needed retries.
  EXPECT_EQ(arf.index(), 2u);
  for (int i = 0; i < 9; ++i) arf.OnOutcome(true, 1);
  EXPECT_EQ(arf.index(), 2u);  // streak restarted, one short.
}

TEST(Arf, StepsDownAfterConsecutiveFailures) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  wifi::ArfPolicy arf(rates, 4);
  arf.OnOutcome(false, 7);
  EXPECT_EQ(arf.index(), 4u);  // one failure is tolerated.
  arf.OnOutcome(true, 2);      // retried delivery also counts as failure.
  EXPECT_EQ(arf.index(), 3u);
  EXPECT_EQ(arf.steps_down(), 1);
}

TEST(Arf, ProbeFailureFallsBackImmediately) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  wifi::ArfPolicy arf(rates, 2);
  for (int i = 0; i < 10; ++i) arf.OnOutcome(true, 1);
  ASSERT_EQ(arf.index(), 3u);
  arf.OnOutcome(false, 7);  // the probe at the new rate fails.
  EXPECT_EQ(arf.index(), 2u);  // single failure suffices right after a step.
}

TEST(Arf, BoundedAtTableEdges) {
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  wifi::ArfPolicy arf(rates, 0);
  for (int i = 0; i < 20; ++i) arf.OnOutcome(false, 7);
  EXPECT_EQ(arf.index(), 0u);  // cannot go below the table.
  wifi::ArfPolicy top(rates, rates.size() - 1);
  for (int i = 0; i < 100; ++i) top.OnOutcome(true, 1);
  EXPECT_EQ(top.index(), rates.size() - 1);  // cannot exceed it.
}

// -------------------------------------------------------- ARF in the sim ---

TEST(ArfSim, UplinkConvergesToSustainableRate) {
  scenario::Testbed testbed(scenario::Testbed::Config{31, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& station = bss.AddStation(testbed.NextStationAddress(), 65'000'000);
  station.SetDistance(30.0);
  station.EnableRateAdaptation(wifi::Band::k2_4GHz);
  testbed.InstallDistanceErrorModel();

  // Steady uplink traffic gives ARF outcomes to learn from.
  transport::UdpCbrSender::Config cbr;
  cbr.src = station.address();
  cbr.dst = 5000;
  cbr.packet_bytes = 1000;
  cbr.interval = sim::Millis(5);
  transport::UdpCbrSender sender(testbed.loop(), testbed.ids(), cbr,
                                 [&station](net::Packet p) {
                                   station.Send(std::move(p));
                                 });
  sender.Start();
  testbed.loop().RunUntil(sim::Seconds(20));
  sender.Stop();

  ASSERT_NE(station.arf(), nullptr);
  // The sustainable MCS at 30 m (2.4 GHz) per the link model.
  const auto sustainable =
      wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 30.0).rate_bps;
  const auto rates = wifi::McsRates(wifi::Band::k2_4GHz);
  std::size_t sustainable_index = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] == sustainable) sustainable_index = i;
  }
  // ARF oscillates around the sustainable index (probing one above).
  EXPECT_GE(station.arf()->index() + 1, sustainable_index);
  EXPECT_LE(station.arf()->index(), sustainable_index + 1);
  EXPECT_GT(station.arf()->steps_down(), 0);
}

TEST(ArfSim, DownlinkAdaptsPerStation) {
  scenario::Testbed testbed(scenario::Testbed::Config{32, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  bss.ap().EnableRateAdaptation();
  auto& near_station =
      bss.AddStation(testbed.NextStationAddress(), 65'000'000);
  near_station.SetDistance(2.0);
  auto& far_station =
      bss.AddStation(testbed.NextStationAddress(), 65'000'000);
  far_station.SetDistance(45.0);
  testbed.InstallDistanceErrorModel();

  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.size_bytes = 1000;
  sim::PeriodicTimer stream(testbed.loop(), sim::Millis(5), [&] {
    p.dst = near_station.address();
    bss.ap().DeliverFromWan(net::Packet(p));
    p.dst = far_station.address();
    bss.ap().DeliverFromWan(net::Packet(p));
  });
  stream.Start();
  testbed.loop().RunUntil(sim::Seconds(20));

  const wifi::ArfPolicy* near_arf = bss.ap().ArfFor(near_station.address());
  const wifi::ArfPolicy* far_arf = bss.ap().ArfFor(far_station.address());
  ASSERT_NE(near_arf, nullptr);
  ASSERT_NE(far_arf, nullptr);
  // The near station's downlink climbs to the top of the table; the far
  // station's settles several steps lower.
  EXPECT_GT(near_arf->index(), far_arf->index() + 1);
  EXPECT_EQ(bss.ap().ArfFor(9999), nullptr);
}

// ----------------------------------------------------------- JitterBuffer --

TEST(JitterBuffer, CleanStreamPlaysEverything) {
  rtc::JitterBuffer buffer;
  for (int i = 0; i < 500; ++i) {
    const sim::Time send = i * sim::Millis(20);
    EXPECT_TRUE(buffer.OnPacket(send, send + sim::Millis(5)));
  }
  EXPECT_EQ(buffer.late(), 0);
  EXPECT_DOUBLE_EQ(buffer.late_fraction(), 0.0);
  // With nothing late the buffer shrinks toward its floor.
  EXPECT_LE(buffer.buffer_delay_ms(), 15.0);
}

TEST(JitterBuffer, GrowsUnderJitterThenAbsorbsIt) {
  rtc::JitterBuffer buffer;
  sim::Rng rng(77);
  int late_early = 0;
  int late_late = 0;
  for (int i = 0; i < 2000; ++i) {
    const sim::Time send = i * sim::Millis(20);
    const auto jitter = sim::Millis(rng.UniformInt(0, 80));
    const bool played = buffer.OnPacket(send, send + sim::Millis(2) + jitter);
    if (i < 200) {
      late_early += played ? 0 : 1;
    } else if (i >= 1000) {
      late_late += played ? 0 : 1;
    }
  }
  // After adaptation the buffer covers most of the jitter range.
  EXPECT_GT(buffer.buffer_delay_ms(), 50.0);
  EXPECT_LT(static_cast<double>(late_late) / 1000.0,
            static_cast<double>(late_early) / 200.0 + 0.05);
}

TEST(JitterBuffer, RespectsDelayBounds) {
  rtc::JitterBuffer::Config config;
  config.min_delay = sim::Millis(20);
  config.max_delay = sim::Millis(60);
  rtc::JitterBuffer buffer(config);
  // Huge jitter: the buffer saturates at max.
  for (int i = 0; i < 500; ++i) {
    const sim::Time send = i * sim::Millis(20);
    buffer.OnPacket(send, send + sim::Millis(i % 2 == 0 ? 1 : 500));
  }
  EXPECT_LE(buffer.buffer_delay_ms(), 60.0);
  // Now a clean stream: it floors at min.
  for (int i = 500; i < 2000; ++i) {
    const sim::Time send = i * sim::Millis(20);
    buffer.OnPacket(send, send + sim::Millis(1));
  }
  EXPECT_GE(buffer.buffer_delay_ms(), 20.0);
  EXPECT_LE(buffer.buffer_delay_ms(), 21.0);
}

TEST(JitterBuffer, PathChangeRelearnsBaseline) {
  rtc::JitterBuffer buffer;
  for (int i = 0; i < 100; ++i) {
    const sim::Time send = i * sim::Millis(20);
    buffer.OnPacket(send, send + sim::Millis(10));  // baseline 10 ms.
  }
  // New path with a 150 ms baseline: without a reset every packet would
  // read as 140 ms of jitter and play late for a long stretch.
  buffer.OnPathChange();
  const sim::Time send = 100 * sim::Millis(20);
  EXPECT_TRUE(buffer.OnPacket(send, send + sim::Millis(150)));
}

TEST(JitterBuffer, LateFractionReflectsCongestionEpisode) {
  // End to end: a congested call misses more playout deadlines than a
  // clean one.
  scenario::ExperimentConfig config;
  config.seed = 606;
  config.duration = sim::Seconds(60);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(20);
  config.congestion_end = sim::Seconds(40);
  const auto congested = scenario::RunCallExperiment(config);
  config.cross_stations = 0;
  const auto clean = scenario::RunCallExperiment(config);
  EXPECT_LT(clean.calls[0].late_frame_pct, 0.5);
  EXPECT_GT(congested.calls[0].late_frame_pct,
            clean.calls[0].late_frame_pct);
}

}  // namespace
}  // namespace kwikr
