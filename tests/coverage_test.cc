// Edge-path coverage: bounds, counters, wrap-arounds and lifecycle corners
// that the behavioural suites don't reach.
#include <gtest/gtest.h>

#include <vector>

#include "core/kwikr.h"
#include "core/ping_pair.h"
#include "core/wmm_detector.h"
#include "net/packet.h"
#include "net/wired_link.h"
#include "rtc/media.h"
#include "scenario/testbed.h"
#include "sim/event_loop.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "wifi/access_point.h"
#include "wifi/station.h"

namespace kwikr {
namespace {

// --------------------------------------------------------- EventLoop -------

TEST(EventLoopEdge, EventExactlyAtDeadlineRuns) {
  sim::EventLoop loop;
  bool ran = false;
  loop.ScheduleAt(sim::Millis(10), [&] { ran = true; });
  loop.RunUntil(sim::Millis(10));
  EXPECT_TRUE(ran);
}

TEST(EventLoopEdge, CancelFromInsideAnotherEvent) {
  sim::EventLoop loop;
  bool second_ran = false;
  const sim::EventId second =
      loop.ScheduleAt(sim::Millis(20), [&] { second_ran = true; });
  loop.ScheduleAt(sim::Millis(10), [&] { EXPECT_TRUE(loop.Cancel(second)); });
  loop.Run();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoopEdge, SelfReschedulingTimerStoppedFromCallback) {
  sim::EventLoop loop;
  int fires = 0;
  sim::PeriodicTimer timer(loop, sim::Millis(5), [&] {
    if (++fires == 3) {
      // Stopping from inside the callback must take effect.
      loop.ScheduleIn(0, [&] { timer.Stop(); });
    }
  });
  timer.Start();
  loop.RunUntil(sim::Seconds(1));
  EXPECT_EQ(fires, 3);
}

// ------------------------------------------------------------ Packet -------

TEST(PacketDescribe, CoversAllProtocols) {
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  EXPECT_NE(net::Describe(p).find("UDP"), std::string::npos);
  p.protocol = net::Protocol::kTcp;
  EXPECT_NE(net::Describe(p).find("TCP"), std::string::npos);
}

// --------------------------------------------------------- WiredLink -------

TEST(WiredLinkEdge, PropagationOverlapsSerialization) {
  sim::EventLoop loop;
  std::vector<sim::Time> arrivals;
  net::WiredLink::Config config;
  config.rate_bps = 8'000'000;       // 1 ms per 1000 B.
  config.propagation = sim::Millis(50);  // long pipe.
  auto on_arrival = [&](net::Packet) { arrivals.push_back(loop.now()); };
  net::WiredLink link(loop, config, on_arrival);
  net::Packet p;
  p.size_bytes = 1000;
  link.Send(net::Packet(p));
  link.Send(net::Packet(p));
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Pipelined: second arrives 1 ms (serialization) after the first, not
  // 50 ms later.
  EXPECT_EQ(arrivals[1] - arrivals[0], sim::Millis(1));
}

// -------------------------------------------------------- TokenBucket ------

TEST(TokenBucketEdge, BurstDoesNotAccumulateBeyondCap) {
  sim::EventLoop loop;
  int forwarded = 0;
  transport::TokenBucket::Config config;
  config.rate_bps = 8'000'000;
  config.burst_bytes = 2'000;
  transport::TokenBucket bucket(loop, config, [&](net::Packet) {
    ++forwarded;
  });
  // A long idle period must not bank more than burst_bytes of credit.
  loop.RunUntil(sim::Seconds(10));
  net::Packet p;
  p.size_bytes = 1'000;
  for (int i = 0; i < 5; ++i) bucket.Send(net::Packet(p));
  EXPECT_EQ(forwarded, 2);  // only the burst passes instantly.
}

// ------------------------------------------------------------ TcpReno ------

TEST(TcpRenoEdge, MaxInFlightCapsTheWindow) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  int in_flight_max = 0;
  int outstanding = 0;
  transport::TcpRenoSender::Config config;
  config.max_in_flight = 10;
  std::unique_ptr<transport::TcpRenoSender> sender;
  sender = std::make_unique<transport::TcpRenoSender>(
      loop, 1, 10, 20, ids,
      [&](net::Packet p) {
        ++outstanding;
        in_flight_max = std::max(in_flight_max, outstanding);
        // Ack everything after 10 ms.
        loop.ScheduleIn(sim::Millis(10), [&, p] {
          --outstanding;
          net::Packet ack;
          ack.protocol = net::Protocol::kTcp;
          ack.flow = 1;
          ack.tcp.is_ack = true;
          ack.tcp.ack = p.tcp.seq + 1;
          sender->OnAck(ack);
        });
      },
      config);
  sender->Start();
  loop.RunUntil(sim::Seconds(2));
  sender->Stop();
  EXPECT_LE(in_flight_max, 11);
  EXPECT_GT(sender->segments_acked(), 100);
}

// ---------------------------------------------------------- AP corners -----

TEST(ApEdge, PerAcQueueCapacitiesEnforced) {
  sim::EventLoop loop;
  wifi::Channel channel(loop, sim::Rng{5});
  wifi::AccessPoint::Config config;
  config.address = 1;
  config.queue_capacity = {2, 3, 2, 2};
  wifi::AccessPoint ap(channel, config);
  wifi::Station station(channel, ap, {.address = 100,
                                      .rate_bps = 26'000'000});
  net::Packet p;
  p.dst = 100;
  p.size_bytes = 500;
  // Best effort, capacity 3.
  for (int i = 0; i < 10; ++i) ap.DeliverFromWan(net::Packet(p));
  EXPECT_EQ(ap.DownlinkQueueLength(wifi::AccessCategory::kBestEffort), 3u);
  EXPECT_EQ(ap.downlink_queue_drops(), 7u);
}

TEST(ApEdge, EchoRequestForOtherStationIsRelayedNotAnswered) {
  sim::EventLoop loop;
  wifi::Channel channel(loop, sim::Rng{6});
  wifi::AccessPoint ap(channel, wifi::AccessPoint::Config{});
  wifi::Station a(channel, ap, {.address = 100, .rate_bps = 26'000'000});
  wifi::Station b(channel, ap, {.address = 101, .rate_bps = 26'000'000});
  std::vector<net::Packet> at_b;
  b.AddReceiver([&](const net::Packet& p, sim::Time) { at_b.push_back(p); });

  net::Packet ping;
  ping.protocol = net::Protocol::kIcmp;
  ping.src = 100;
  ping.dst = 101;  // another station, not the AP.
  ping.size_bytes = 64;
  ping.icmp.type = net::IcmpType::kEchoRequest;
  a.Send(net::Packet(ping));
  loop.Run();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].icmp.type, net::IcmpType::kEchoRequest);  // relayed.
  EXPECT_EQ(ap.echo_replies_sent(), 0u);
}

TEST(ApEdge, UplinkQueueDropCounterCounts) {
  sim::EventLoop loop;
  wifi::Channel channel(loop, sim::Rng{7});
  wifi::AccessPoint ap(channel, wifi::AccessPoint::Config{});
  wifi::Station station(channel, ap, {.address = 100,
                                      .rate_bps = 1'000'000});
  // The default uplink queue holds 512 frames; the 2000-frame burst
  // overflows it.
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.src = 100;
  p.dst = 5000;
  p.size_bytes = 1000;
  for (int i = 0; i < 2000; ++i) station.Send(net::Packet(p));
  EXPECT_GT(station.uplink_queue_drops(), 0u);
}

// --------------------------------------------------------- Ping-Pair -------

struct RecordingTransport : public core::ProbeTransport {
  struct Sent {
    std::uint8_t tos;
    std::uint16_t sequence;
  };
  void SendEcho(std::uint8_t tos, std::uint16_t /*ident*/,
                std::uint16_t sequence, std::int32_t /*size*/) override {
    sent.push_back({tos, sequence});
  }
  std::vector<Sent> sent;
};

net::Packet ReplyFor(const RecordingTransport::Sent& request,
                     std::uint16_t ident = 0x5050) {
  net::Packet reply;
  reply.protocol = net::Protocol::kIcmp;
  reply.icmp.type = net::IcmpType::kEchoReply;
  reply.icmp.ident = ident;
  reply.icmp.sequence = request.sequence;
  reply.tos = request.tos;
  return reply;
}

TEST(PingPairEdge, SequenceNumbersWrapAfter16kRounds) {
  sim::EventLoop loop;
  RecordingTransport transport;
  core::PingPairProber::Config config;
  config.max_samples = 1 << 20;
  core::PingPairProber prober(loop, transport, config, 1);
  // Burn through 0x4000 rounds so the 16-bit sequence space wraps. Only the
  // last round (still live) gets replies.
  for (int round = 0; round < 0x4000; ++round) {
    prober.ProbeOnce();
    loop.RunFor(sim::Seconds(1));  // let earlier rounds time out.
  }
  prober.ProbeOnce();
  const auto& sent = transport.sent;
  ASSERT_EQ(sent.size(), (0x4001u) * 2);
  // The wrapped round reuses sequence numbers 0 and 1.
  EXPECT_EQ(sent[sent.size() - 2].sequence, 0);
  EXPECT_EQ(sent[sent.size() - 1].sequence, 1);
  prober.OnReply(ReplyFor(sent[sent.size() - 1]), loop.now() + sim::Millis(1));
  prober.OnReply(ReplyFor(sent[sent.size() - 2]), loop.now() + sim::Millis(4));
  // The reply resolves to the live (wrapped) round, not the long-dead
  // round 0.
  EXPECT_EQ(prober.stats().valid, 1u);
}

TEST(PingPairEdge, MaxSamplesBoundsMemory) {
  sim::EventLoop loop;
  RecordingTransport transport;
  core::PingPairProber::Config config;
  config.max_samples = 5;
  core::PingPairProber prober(loop, transport, config, 1);
  for (int round = 0; round < 12; ++round) {
    prober.ProbeOnce();
    const auto& sent = transport.sent;
    prober.OnReply(ReplyFor(sent[sent.size() - 1]),
                   loop.now() + sim::Millis(1));
    prober.OnReply(ReplyFor(sent[sent.size() - 2]),
                   loop.now() + sim::Millis(3));
    loop.RunFor(sim::Millis(10));
  }
  EXPECT_EQ(prober.samples().size(), 5u);       // capped...
  EXPECT_EQ(prober.stats().valid, 12u);         // ...but stats keep counting.
}

TEST(PingPairEdge, FlowLogForgetsOldPackets) {
  sim::EventLoop loop;
  RecordingTransport transport;
  core::PingPairProber prober(loop, transport,
                              core::PingPairProber::Config{}, 7);
  // A flow packet far in the past must not be counted as sandwiched even if
  // its timestamp falls in the window numerically (it was trimmed).
  net::Packet old_flow;
  old_flow.protocol = net::Protocol::kUdp;
  old_flow.flow = 7;
  old_flow.size_bytes = 1000;
  prober.OnFlowPacket(old_flow, sim::Millis(5));
  loop.RunUntil(sim::Seconds(10));
  prober.OnFlowPacket(old_flow, loop.now());  // triggers trimming.

  prober.ProbeOnce();
  const auto& sent = transport.sent;
  prober.OnReply(ReplyFor(sent[1]), loop.now() + sim::Millis(1));
  // One flow packet lands inside the reply window; the ancient one from
  // t=5 ms would also fall "between" numerically had it not been trimmed.
  prober.OnFlowPacket(old_flow, loop.now() + sim::Millis(10));
  prober.OnReply(ReplyFor(sent[0]), loop.now() + sim::Millis(30));
  ASSERT_EQ(prober.samples().size(), 1u);
  EXPECT_EQ(prober.samples()[0].sandwiched, 1);
}

TEST(PingPairEdge, StopPreventsFurtherRounds) {
  sim::EventLoop loop;
  RecordingTransport transport;
  core::PingPairProber prober(loop, transport,
                              core::PingPairProber::Config{}, 1);
  prober.Start();
  loop.RunUntil(sim::Millis(600));
  prober.Stop();
  const auto rounds = prober.stats().rounds;
  loop.RunUntil(sim::Seconds(5));
  EXPECT_EQ(prober.stats().rounds, rounds);
}

// -------------------------------------------------------- WmmDetector ------

TEST(WmmDetectorEdge, StaleReplyFromTimedOutRunIgnored) {
  sim::EventLoop loop;
  RecordingTransport transport;
  core::WmmDetector::Config config;
  config.runs = 2;
  core::WmmDetector detector(loop, transport, config);
  core::WmmResult result;
  detector.Run([&](const core::WmmResult& r) { result = r; });
  // Run 0's pair goes out immediately (no burst). Let it time out.
  ASSERT_EQ(transport.sent.size(), 2u);
  const auto run0_normal = transport.sent[0];
  const auto run0_high = transport.sent[1];
  loop.RunUntil(sim::Millis(400));  // run 0 timed out; run 1 started.
  // Stale replies for run 0 arrive now, during run 1.
  net::Packet reply = ReplyFor(run0_high, config.ident);
  detector.OnReply(reply, loop.now());
  reply = ReplyFor(run0_normal, config.ident);
  detector.OnReply(reply, loop.now() + sim::Millis(5));
  loop.RunUntil(sim::Seconds(2));
  ASSERT_FALSE(detector.running());
  EXPECT_EQ(result.completed_runs, 0);  // stale replies never counted.
}

// ------------------------------------------------------- KwikrAdapter ------

TEST(KwikrAdapterEdge, FreshSampleRevivesStaleProvider) {
  sim::EventLoop loop;
  core::KwikrAdapter adapter(loop);
  core::PingPairSample sample;
  sample.completed_at = 0;
  sample.tc = sim::Millis(30);
  adapter.OnSample(sample);
  loop.RunUntil(sim::Seconds(10));
  EXPECT_DOUBLE_EQ(adapter.SmoothedTcSeconds(), 0.0);  // stale.
  sample.completed_at = loop.now();
  sample.tc = sim::Millis(10);
  adapter.OnSample(sample);
  EXPECT_GT(adapter.SmoothedTcSeconds(), 0.0);  // revived.
}

// ------------------------------------------------------ MediaReceiver ------

TEST(MediaReceiverEdge, ClockOffsetDoesNotBiasEstimator) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  rtc::MediaReceiver::Config with_offset;
  with_offset.flow = 3;
  with_offset.clock_offset = sim::Seconds(500);
  rtc::MediaReceiver skewed(loop, ids, with_offset, [](net::Packet) {});
  rtc::MediaReceiver::Config no_offset;
  no_offset.flow = 3;
  rtc::MediaReceiver aligned(loop, ids, no_offset, [](net::Packet) {});

  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.flow = 3;
  p.size_bytes = 1000;
  for (int i = 0; i < 100; ++i) {
    p.udp.sequence = i;
    p.udp.sender_timestamp = i * sim::Millis(20);
    const sim::Time arrival = i * sim::Millis(20) + sim::Millis(4);
    skewed.OnPacket(p, arrival);
    aligned.OnPacket(p, arrival);
  }
  EXPECT_NEAR(skewed.estimator().bandwidth_bps(),
              aligned.estimator().bandwidth_bps(), 1.0);
}

// --------------------------------------------------- Testbed plumbing ------

TEST(TestbedEdge, FlowIdsAndAddressesAreUnique) {
  scenario::Testbed testbed(scenario::Testbed::Config{1, wifi::PhyParams{}});
  const auto f1 = testbed.NextFlowId();
  const auto f2 = testbed.NextFlowId();
  EXPECT_NE(f1, f2);
  EXPECT_NE(testbed.NextServerAddress(), testbed.NextServerAddress());
  EXPECT_NE(testbed.NextStationAddress(), testbed.NextStationAddress());
}

TEST(TestbedEdge, ErrorModelUsesStationErrorProb) {
  scenario::Testbed testbed(scenario::Testbed::Config{2, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& station = bss.AddStation(testbed.NextStationAddress(), 26'000'000,
                                 /*frame_error_prob=*/1.0);
  testbed.InstallStationErrorModel();
  int received = 0;
  station.AddReceiver([&](const net::Packet&, sim::Time) { ++received; });
  net::Packet p;
  p.dst = station.address();
  p.size_bytes = 500;
  bss.ap().DeliverFromWan(net::Packet(p));
  testbed.loop().Run();
  EXPECT_EQ(received, 0);  // every attempt failed; frame dropped.
}

TEST(TestbedEdge, WanEndpointReceivesAfterDelay) {
  scenario::Testbed testbed(scenario::Testbed::Config{3, wifi::PhyParams{}});
  scenario::Bss::Config bc;
  bc.wan_delay = sim::Millis(25);
  auto& bss = testbed.AddBss(bc);
  auto& station = bss.AddStation(testbed.NextStationAddress(), 26'000'000);
  sim::Time arrival = -1;
  bss.RegisterWanEndpoint(9000, [&](net::Packet, sim::Time at) {
    arrival = at;
  });
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.src = station.address();
  p.dst = 9000;
  p.size_bytes = 400;
  station.Send(net::Packet(p));
  testbed.loop().Run();
  EXPECT_GE(arrival, sim::Millis(25));
}

}  // namespace
}  // namespace kwikr
