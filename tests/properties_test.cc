// Parameterized property sweeps: invariants that must hold across whole
// parameter ranges, not just single examples.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/ping_pair.h"
#include "net/wired_link.h"
#include "rtc/media.h"
#include "rtc/ukf.h"
#include "scenario/testbed.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "stats/summary.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "wifi/channel.h"

namespace kwikr {
namespace {

// ------------------------------------------------ TokenBucket conformance --

class TokenBucketRateSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TokenBucketRateSweep, SustainedOutputMatchesConfiguredRate) {
  const std::int64_t rate = GetParam();
  sim::EventLoop loop;
  std::int64_t bytes_out = 0;
  transport::TokenBucket::Config config;
  config.rate_bps = rate;
  config.burst_bytes = 4'000;
  config.queue_capacity_packets = 1'000'000;
  transport::TokenBucket bucket(loop, config, [&](net::Packet p) {
    bytes_out += p.size_bytes;
  });
  // Offer 2x the configured rate for 20 seconds.
  const auto interval = sim::FromSeconds(500.0 * 8.0 / (2.0 * rate));
  sim::PeriodicTimer offer(loop, interval, [&] {
    net::Packet p;
    p.size_bytes = 500;
    bucket.Send(net::Packet(p));
  });
  offer.Start();
  loop.RunUntil(sim::Seconds(20));
  const double achieved_bps = static_cast<double>(bytes_out) * 8.0 / 20.0;
  EXPECT_NEAR(achieved_bps, static_cast<double>(rate), 0.05 * rate)
      << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, TokenBucketRateSweep,
                         ::testing::Values(100'000, 500'000, 2'000'000,
                                           10'000'000));

// ------------------------------------------------------- UKF convergence --

class UkfBandwidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(UkfBandwidthSweep, ConvergesToTruePathBandwidthUnderOverload) {
  const double true_bw_bps = GetParam();
  rtc::LeakyBucketUkf::Config config;
  config.initial_bandwidth_bps = true_bw_bps * 3.0;  // badly wrong start.
  config.max_bandwidth_bps = 1e9;
  rtc::LeakyBucketUkf ukf(config);
  // Offer 1.3x the true bandwidth: the queue's delay slope reveals it.
  const double interval = 0.02;
  const double bytes = 1.3 * true_bw_bps / 8.0 * interval;
  double queue = 0.0;
  for (int i = 0; i < 1500; ++i) {
    queue = std::max(0.0, queue + bytes - true_bw_bps / 8.0 * interval);
    const double delay = queue / (true_bw_bps / 8.0);
    ukf.Update(delay, bytes, interval);
  }
  EXPECT_NEAR(ukf.bandwidth_bps(), true_bw_bps, 0.25 * true_bw_bps)
      << "true " << true_bw_bps;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, UkfBandwidthSweep,
                         ::testing::Values(200'000.0, 800'000.0, 2'000'000.0,
                                           5'000'000.0));

// ------------------------------------------------------- EDCA fairness -----

class EdcaFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(EdcaFairnessSweep, SaturatedPeersShareTheMediumEvenly) {
  const int stations = GetParam();
  sim::EventLoop loop;
  wifi::Channel channel(loop,
                        sim::Rng{static_cast<std::uint64_t>(900 + stations)});
  std::vector<std::uint64_t> delivered(stations, 0);
  const wifi::OwnerId sink = channel.RegisterOwner(nullptr);

  std::vector<wifi::ContenderId> contenders;
  for (int s = 0; s < stations; ++s) {
    const wifi::OwnerId owner = channel.RegisterOwner(nullptr);
    contenders.push_back(channel.CreateContender(
        owner, wifi::AccessCategory::kBestEffort,
        wifi::DefaultEdcaParams()[1], 4096));
  }
  // Saturate everyone, run a fixed horizon, compare deliveries.
  for (int s = 0; s < stations; ++s) {
    for (int i = 0; i < 4000; ++i) {
      wifi::Frame f;
      f.dest = sink;
      f.phy_rate_bps = 24'000'000;
      f.packet.size_bytes = 1000;
      channel.Enqueue(contenders[s], std::move(f));
    }
  }
  loop.RunUntil(sim::Seconds(2));
  for (int s = 0; s < stations; ++s) {
    delivered[s] = channel.Delivered(contenders[s]);
  }
  const double total = static_cast<double>(
      std::accumulate(delivered.begin(), delivered.end(), 0ull));
  ASSERT_GT(total, 500.0);
  // Jain's fairness index: 1.0 = perfectly even.
  double sum_sq = 0.0;
  for (auto d : delivered) sum_sq += static_cast<double>(d) * d;
  const double jain = total * total / (stations * sum_sq);
  EXPECT_GT(jain, 0.95) << "stations " << stations;
}

INSTANTIATE_TEST_SUITE_P(Stations, EdcaFairnessSweep,
                         ::testing::Values(2, 3, 5, 8));

// ------------------------------------------------------- TCP fairness ------

class TcpFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(TcpFairnessSweep, FlowsShareTheBottleneck) {
  const int flows = GetParam();
  sim::EventLoop loop;
  net::PacketIdAllocator ids;

  struct Flow {
    std::unique_ptr<transport::TcpRenoSender> sender;
    std::unique_ptr<transport::TcpRenoReceiver> receiver;
  };
  std::vector<Flow> pipes(flows);
  // Shared bottleneck link.
  std::unique_ptr<net::WiredLink> bottleneck;
  net::WiredLink::Config link;
  link.rate_bps = 20'000'000;
  link.propagation = sim::Millis(10);
  link.queue_capacity_packets = 120;
  auto on_bottleneck = [&](net::Packet p) {
    pipes[p.flow - 1].receiver->OnSegment(p, loop.now());
  };
  bottleneck = std::make_unique<net::WiredLink>(loop, link, on_bottleneck);

  for (int i = 0; i < flows; ++i) {
    const net::FlowId flow = i + 1;
    pipes[i].sender = std::make_unique<transport::TcpRenoSender>(
        loop, flow, 10 + flow, 20 + flow, ids, [&](net::Packet p) {
          bottleneck->Send(std::move(p));
        });
    transport::TcpRenoSender* sender = pipes[i].sender.get();
    pipes[i].receiver = std::make_unique<transport::TcpRenoReceiver>(
        flow, 20 + flow, 10 + flow, ids, [&loop, sender](net::Packet p) {
          loop.ScheduleIn(sim::Millis(10), [sender, p] { sender->OnAck(p); });
        });
    pipes[i].sender->Start();
  }
  loop.RunUntil(sim::Seconds(20));
  for (auto& pipe : pipes) pipe.sender->Stop();

  double total = 0.0;
  double sum_sq = 0.0;
  for (auto& pipe : pipes) {
    const double bytes = static_cast<double>(pipe.receiver->bytes_received());
    total += bytes;
    sum_sq += bytes * bytes;
  }
  // Aggregate utilization >= 70% of the bottleneck.
  EXPECT_GT(total * 8.0 / 20.0, 0.7 * 20'000'000.0) << "flows " << flows;
  // Jain fairness across the competing Reno flows.
  const double jain = total * total / (flows * sum_sq);
  EXPECT_GT(jain, 0.75) << "flows " << flows;
}

INSTANTIATE_TEST_SUITE_P(Flows, TcpFairnessSweep, ::testing::Values(2, 3, 4));

// ------------------------------------------------ Ping-Pair vs ground truth

class PingPairCompositionSweep
    : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(PingPairCompositionSweep, EstimateTracksQueueDrainTime) {
  // Whatever the backlog's packet size mix, Tq must approximate the time
  // the preloaded queue takes to drain.
  const std::int32_t packet_bytes = GetParam();
  scenario::Testbed testbed(
      scenario::Testbed::Config{700 + static_cast<std::uint64_t>(packet_bytes),
                                wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& client = bss.AddStation(testbed.NextStationAddress(), 26'000'000);
  auto& sink = bss.AddStation(testbed.NextStationAddress(), 26'000'000);

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss.ap().address());
  core::PingPairProber prober(testbed.loop(), transport,
                              core::PingPairProber::Config{}, 1);
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) prober.OnReply(p, at);
  });

  constexpr int kFrames = 30;
  for (int i = 0; i < kFrames; ++i) {
    net::Packet p;
    p.id = testbed.ids().Next();
    p.protocol = net::Protocol::kUdp;
    p.dst = sink.address();
    p.size_bytes = packet_bytes;
    bss.ap().DeliverFromWan(std::move(p));
  }
  prober.ProbeOnce();
  testbed.loop().RunUntil(sim::Seconds(2));

  ASSERT_EQ(prober.samples().size(), 1u);
  // Expected drain: kFrames x (airtime + access overhead).
  const wifi::PhyParams& phy = testbed.channel().phy();
  const double per_frame_s =
      sim::ToSeconds(phy.FrameAirtime(packet_bytes, 26'000'000)) + 100e-6;
  const double expected_s = kFrames * per_frame_s;
  const double measured_s = sim::ToSeconds(prober.samples()[0].tq);
  EXPECT_NEAR(measured_s, expected_s, 0.5 * expected_s)
      << "packet size " << packet_bytes;
}

INSTANTIATE_TEST_SUITE_P(PacketSizes, PingPairCompositionSweep,
                         ::testing::Values(200, 600, 1200, 1500));

// ------------------------------------------------- MediaSender conformance -

class MediaRateSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MediaRateSweep, EmitsWithinFivePercentOfTarget) {
  const std::int64_t rate = GetParam();
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::int64_t bytes = 0;
  rtc::MediaSender::Config config;
  config.start_rate_bps = rate;
  rtc::MediaSender sender(loop, ids, config, [&](net::Packet p) {
    bytes += p.size_bytes;
  });
  sender.Start();
  loop.RunUntil(sim::Seconds(20));
  sender.Stop();
  const double achieved = static_cast<double>(bytes) * 8.0 / 20.0;
  // Tiny rates are floored by the one-packet-per-frame minimum.
  const double floor_bps = 120.0 * 8.0 / 0.02;
  const double expected = std::max(static_cast<double>(rate), floor_bps);
  EXPECT_NEAR(achieved, expected, 0.05 * expected) << "rate " << rate;
}

INSTANTIATE_TEST_SUITE_P(Rates, MediaRateSweep,
                         ::testing::Values(30'000, 160'000, 500'000,
                                           1'500'000, 2'500'000));

// --------------------------------------------------- WiredLink utilization -

class WiredLinkRateSweep : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(WiredLinkRateSweep, SaturatedLinkDeliversAtLineRate) {
  const std::int64_t rate = GetParam();
  sim::EventLoop loop;
  std::int64_t bytes = 0;
  net::WiredLink::Config config;
  config.rate_bps = rate;
  config.queue_capacity_packets = 64;
  auto on_arrival = [&](net::Packet p) { bytes += p.size_bytes; };
  net::WiredLink wire(loop, config, on_arrival);
  // Offer far more than line rate.
  sim::PeriodicTimer offer(loop, sim::FromSeconds(1000.0 * 8.0 / (3.0 * rate)),
                           [&] {
                             net::Packet p;
                             p.size_bytes = 1000;
                             wire.Send(net::Packet(p));
                           });
  offer.Start();
  loop.RunUntil(sim::Seconds(10));
  const double achieved = static_cast<double>(bytes) * 8.0 / 10.0;
  EXPECT_NEAR(achieved, static_cast<double>(rate), 0.03 * rate)
      << "rate " << rate;
  EXPECT_GT(wire.dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, WiredLinkRateSweep,
                         ::testing::Values(1'000'000, 10'000'000,
                                           100'000'000));

// ------------------------------------------------ Determinism everywhere ---

class DeterminismSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSweep, SameSeedSameCongestedOutcome) {
  auto run = [&] {
    scenario::Testbed testbed(
        scenario::Testbed::Config{GetParam(), wifi::PhyParams{}});
    auto& bss = testbed.AddBss(scenario::Bss::Config{});
    auto& station = bss.AddStation(testbed.NextStationAddress(), 26'000'000);
    testbed.AddTcpBulkFlows(bss, station, 3);
    testbed.StartCrossTraffic();
    testbed.loop().RunUntil(sim::Seconds(5));
    return testbed.CrossTrafficBytesReceived();
  };
  const auto first = run();
  EXPECT_GT(first, 0);
  EXPECT_EQ(first, run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1u, 99u, 31337u));

}  // namespace
}  // namespace kwikr
