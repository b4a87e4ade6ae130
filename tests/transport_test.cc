#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/wired_link.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "transport/udp_stream.h"

namespace kwikr::transport {
namespace {

// --------------------------------------------------------- TokenBucket ----

TEST(TokenBucket, RateZeroPassesThrough) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket bucket(loop, TokenBucket::Config{},
                     [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 100'000;  // way beyond any burst.
  bucket.Send(net::Packet(p));
  EXPECT_EQ(forwarded, 1);
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucket, BurstPassesImmediately) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 1'000'000;
  config.burst_bytes = 3000;
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  bucket.Send(net::Packet(p));
  bucket.Send(net::Packet(p));
  bucket.Send(net::Packet(p));
  EXPECT_EQ(forwarded, 3);
}

TEST(TokenBucket, SustainedRateMatchesConfig) {
  sim::EventLoop loop;
  std::int64_t bytes_out = 0;
  TokenBucket::Config config;
  config.rate_bps = 800'000;  // 100 KB/s
  config.burst_bytes = 2000;
  config.queue_capacity_packets = 10'000;
  TokenBucket bucket(loop, config,
                     [&](net::Packet p) { bytes_out += p.size_bytes; });
  // Offer 2x the rate for 10 seconds.
  for (int t = 0; t < 10'000; ++t) {
    loop.ScheduleAt(sim::Millis(t), [&bucket] {
      net::Packet p;
      p.size_bytes = 200;
      bucket.Send(net::Packet(p));
    });
  }
  loop.RunUntil(sim::Seconds(10));
  // ~1 MB expected (+burst slack).
  EXPECT_NEAR(static_cast<double>(bytes_out), 1'000'000.0, 60'000.0);
}

TEST(TokenBucket, OverflowDrops) {
  sim::EventLoop loop;
  TokenBucket::Config config;
  config.rate_bps = 8'000;  // 1 KB/s: effectively stalled.
  config.burst_bytes = 100;
  config.queue_capacity_packets = 5;
  TokenBucket bucket(loop, config, [](net::Packet) {});
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 20; ++i) bucket.Send(net::Packet(p));
  EXPECT_GT(bucket.dropped(), 0u);
  EXPECT_LE(bucket.backlog(), 5u);
}

TEST(TokenBucket, DisablingFlushesBacklog) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 8'000;
  config.burst_bytes = 100;
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 5; ++i) bucket.Send(net::Packet(p));
  EXPECT_EQ(forwarded, 0);
  bucket.SetRate(0);
  EXPECT_EQ(forwarded, 5);
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucket, RateChangeTakesEffect) {
  sim::EventLoop loop;
  std::int64_t bytes_out = 0;
  TokenBucket::Config config;
  config.rate_bps = 80'000;  // 10 KB/s
  config.burst_bytes = 1000;
  config.queue_capacity_packets = 100'000;
  TokenBucket bucket(loop, config,
                     [&](net::Packet p) { bytes_out += p.size_bytes; });
  for (int t = 0; t < 4000; ++t) {
    loop.ScheduleAt(sim::Millis(t), [&bucket] {
      net::Packet p;
      p.size_bytes = 500;
      bucket.Send(net::Packet(p));
    });
  }
  loop.ScheduleAt(sim::Seconds(2), [&bucket] { bucket.SetRate(800'000); });
  loop.RunUntil(sim::Seconds(2));
  const std::int64_t at_2s = bytes_out;
  EXPECT_NEAR(static_cast<double>(at_2s), 20'000.0, 5'000.0);
  loop.RunUntil(sim::Seconds(4));
  // After the rate increase the backlog drains at 100 KB/s.
  EXPECT_GT(bytes_out - at_2s, 150'000);
}

// ------------------------------------------------------------- UdpCbr -----

TEST(UdpCbr, EmitsAtConfiguredCadence) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<sim::Time> sends;
  UdpCbrSender::Config config;
  config.interval = sim::Millis(20);
  config.packet_bytes = 500;
  UdpCbrSender sender(loop, ids, config, [&](net::Packet) {
    sends.push_back(loop.now());
  });
  sender.Start();
  loop.RunUntil(sim::Millis(100));
  sender.Stop();
  // t = 0, 20, 40, 60, 80, 100.
  EXPECT_EQ(sends.size(), 6u);
  EXPECT_EQ(sends[1] - sends[0], sim::Millis(20));
}

TEST(UdpCbr, PacketsCarrySequenceAndTimestamp) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<net::Packet> packets;
  UdpCbrSender::Config config;
  config.src = 1;
  config.dst = 2;
  config.flow = 77;
  config.tos = net::kTosVoice;
  UdpCbrSender sender(loop, ids, config, [&](net::Packet p) {
    packets.push_back(std::move(p));
  });
  sender.Start();
  loop.RunUntil(sim::Millis(40));
  ASSERT_GE(packets.size(), 2u);
  EXPECT_EQ(packets[0].udp.sequence, 0u);
  EXPECT_EQ(packets[1].udp.sequence, 1u);
  EXPECT_EQ(packets[1].udp.sender_timestamp, sim::Millis(20));
  EXPECT_EQ(packets[0].flow, 77u);
  EXPECT_EQ(packets[0].tos, net::kTosVoice);
}

TEST(UdpOwdReceiver, TracksMinimumAndNormalizes) {
  UdpOwdReceiver receiver(5);
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.flow = 5;
  p.udp.sender_timestamp = 0;
  receiver.OnPacket(p, sim::Millis(30));  // owd 30
  p.udp.sender_timestamp = sim::Millis(20);
  receiver.OnPacket(p, sim::Millis(40));  // owd 20 (new min)
  p.udp.sender_timestamp = sim::Millis(40);
  receiver.OnPacket(p, sim::Millis(90));  // owd 50
  EXPECT_EQ(receiver.min_owd(), sim::Millis(20));
  const auto normalized = receiver.NormalizedOwdMillis();
  ASSERT_EQ(normalized.size(), 3u);
  EXPECT_DOUBLE_EQ(normalized[0], 10.0);
  EXPECT_DOUBLE_EQ(normalized[1], 0.0);
  EXPECT_DOUBLE_EQ(normalized[2], 30.0);
}

TEST(UdpOwdReceiver, IgnoresOtherFlows) {
  UdpOwdReceiver receiver(5);
  net::Packet p;
  p.protocol = net::Protocol::kUdp;
  p.flow = 6;
  receiver.OnPacket(p, sim::Millis(10));
  EXPECT_EQ(receiver.received(), 0u);
}

// ------------------------------------------------------------ TcpReno -----

/// Symmetric fixed-delay path harness for TCP tests: data crosses a
/// WiredLink bottleneck; ACKs return after a fixed delay.
struct TcpHarness {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::unique_ptr<net::WiredLink> bottleneck;
  std::unique_ptr<TcpRenoSender> sender;
  std::unique_ptr<TcpRenoReceiver> receiver;

  void OnBottleneck(net::Packet p) { receiver->OnSegment(p, loop.now()); }

  explicit TcpHarness(std::int64_t rate_bps, std::size_t queue = 100,
                      sim::Duration delay = sim::Millis(10)) {
    net::WiredLink::Config link;
    link.rate_bps = rate_bps;
    link.propagation = delay;
    link.queue_capacity_packets = queue;
    bottleneck = std::make_unique<net::WiredLink>(
        loop, link,
        net::WiredLink::Receiver::Member<&TcpHarness::OnBottleneck>(this));
    sender = std::make_unique<TcpRenoSender>(
        loop, 1, 10, 20, ids,
        [this](net::Packet p) { bottleneck->Send(std::move(p)); });
    receiver = std::make_unique<TcpRenoReceiver>(
        1, 20, 10, ids, [this, delay](net::Packet p) {
          loop.ScheduleIn(delay, [this, p = std::move(p)]() mutable {
            sender->OnAck(p);
          });
        });
  }
};

TEST(TcpReno, SlowStartDoublesWindow) {
  TcpHarness h(1'000'000'000, 10'000);  // effectively unconstrained.
  h.sender->Start();
  // After a few RTTs in slow start cwnd should have grown far beyond the
  // initial window.
  h.loop.RunUntil(sim::Millis(150));  // ~7 RTTs of 20 ms.
  EXPECT_GT(h.sender->cwnd(), 100.0);
  EXPECT_EQ(h.sender->retransmissions(), 0);
  h.sender->Stop();
}

TEST(TcpReno, AchievesHighBottleneckUtilization) {
  TcpHarness h(10'000'000, 100);  // 10 Mbps bottleneck.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(10));
  h.sender->Stop();
  const double goodput_bps =
      static_cast<double>(h.receiver->bytes_received()) * 8.0 / 10.0;
  EXPECT_GT(goodput_bps, 7'000'000.0);
  EXPECT_LT(goodput_bps, 10'500'000.0);
}

TEST(TcpReno, LossTriggersFastRetransmitAndCwndReduction) {
  TcpHarness h(5'000'000, 25);  // small buffer forces drops.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(5));
  h.sender->Stop();
  EXPECT_GT(h.sender->retransmissions(), 0);
  // Despite losses the transfer keeps making progress.
  EXPECT_GT(h.receiver->segments_received(), 1000);
  // ssthresh must have been pulled down from its initial huge value.
  EXPECT_LT(h.sender->ssthresh(), 1e6);
}

TEST(TcpReno, SurvivesTotalBlackholeViaRto) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  int sent = 0;
  bool blackhole = false;
  std::unique_ptr<TcpRenoSender> sender;
  std::unique_ptr<TcpRenoReceiver> receiver;
  receiver = std::make_unique<TcpRenoReceiver>(
      1, 20, 10, ids, [&](net::Packet p) {
        loop.ScheduleIn(sim::Millis(5), [&, p]() { sender->OnAck(p); });
      });
  sender = std::make_unique<TcpRenoSender>(
      loop, 1, 10, 20, ids, [&](net::Packet p) {
        ++sent;
        if (blackhole) return;  // drop everything.
        loop.ScheduleIn(sim::Millis(5), [&, p]() {
          receiver->OnSegment(p, loop.now());
        });
      });
  sender->Start();
  loop.ScheduleAt(sim::Millis(200), [&] { blackhole = true; });
  loop.ScheduleAt(sim::Millis(900), [&] { blackhole = false; });
  loop.RunUntil(sim::Seconds(6));
  sender->Stop();
  EXPECT_GT(sender->timeouts(), 0);
  // Recovered and made further progress after the blackhole lifted.
  EXPECT_GT(sender->segments_acked(), 100);
}

TEST(TcpReno, RttEstimateTracksPathDelay) {
  TcpHarness h(100'000'000, 1000, sim::Millis(25));  // RTT = 50 ms.
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(2));
  h.sender->Stop();
  EXPECT_GT(h.sender->srtt(), sim::Millis(45));
  EXPECT_LT(h.sender->srtt(), sim::Millis(200));
}

TEST(TcpReno, StopHaltsTransmission) {
  TcpHarness h(10'000'000);
  h.sender->Start();
  h.loop.RunUntil(sim::Millis(100));
  h.sender->Stop();
  const auto acked = h.sender->segments_acked();
  h.loop.RunUntil(sim::Seconds(2));
  // A few in-flight segments may still land, but no meaningful progress.
  EXPECT_LT(h.sender->segments_acked() - acked, 300);
}

// --------------------------------------------------- RTO deadline ----

net::Packet AckFor(std::int64_t cumulative) {
  net::Packet ack;
  ack.protocol = net::Protocol::kTcp;
  ack.flow = 1;
  ack.tcp.is_ack = true;
  ack.tcp.ack = cumulative;
  return ack;
}

TEST(TcpReno, RtoFiresAtTheLastArmPlusBackedOffTimeout) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  TcpSender::Config config;
  config.initial_cwnd = 2;
  config.max_rto = sim::Millis(500);
  std::unique_ptr<TcpSender> sender;
  std::vector<sim::Time> timeouts;
  sender = std::make_unique<TcpSender>(
      loop, 1, 10, 20, ids,
      [&](net::Packet) {
        if (sender->timeouts() > static_cast<std::int64_t>(timeouts.size())) {
          timeouts.push_back(loop.now());
        }
      },
      config);
  sender->Start();  // armed with the initial 1 s RTO.
  // First RTT sample (10 ms): rto_ shrinks to min_rto, so the deadline
  // (210 ms) lies before the pending 1 s event.
  loop.ScheduleAt(sim::Millis(10), [&] { sender->OnAck(AckFor(1)); });
  // A later ACK only pushes the deadline, to 220 ms.
  loop.ScheduleAt(sim::Millis(20), [&] { sender->OnAck(AckFor(2)); });
  loop.RunUntil(sim::Seconds(2));
  // Then each timeout re-arms from its own firing with the backed-off
  // timeout, capped at max_rto: +400 ms, +500 ms, +500 ms.
  EXPECT_EQ(timeouts,
            (std::vector<sim::Time>{sim::Millis(220), sim::Millis(620),
                                    sim::Millis(1120), sim::Millis(1620)}));
  sender->Stop();
}

TEST(TcpReno, StopWithAPendingRtoLeavesNothingRunnable) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  TcpSender sender(loop, 1, 10, 20, ids, [](net::Packet) {});
  sender.Start();
  // The ACK moves the deadline; the pending event stays where it was.
  loop.RunUntil(sim::Millis(10));
  sender.OnAck(AckFor(1));
  ASSERT_TRUE(sender.rto_armed());
  sender.Stop();
  EXPECT_FALSE(sender.rto_armed());
  EXPECT_EQ(loop.pending(), 0u);
  const std::uint64_t executed = loop.executed();
  loop.Run();
  EXPECT_EQ(loop.executed(), executed);
  EXPECT_EQ(sender.timeouts(), 0);
}

/// Counts "tcp.rto" dispatches.
class RtoCounter : public sim::EventLoopProbe {
 public:
  void OnExecuted(const char* type, sim::Time) override {
    if (std::string_view(type) == "tcp.rto") ++rto_events;
  }
  std::uint64_t rto_events = 0;
};

TEST(TcpReno, SteadyAckStreamLeavesNoTombstones) {
  // Constant 20 ms RTT (no queueing at 1 Gbps), so rto_ sits at min_rto
  // after the first sample and every new-data ACK pushes the deadline.
  TcpHarness h(1'000'000'000, 10'000);
  RtoCounter counter;
  h.loop.SetProbe(&counter);
  h.sender->Start();
  // Past the initial 1 s RTO event, which the first sample cancelled.
  h.loop.RunUntil(sim::Millis(1100));
  std::size_t worst = 0;
  sim::PeriodicTimer check(h.loop, sim::Millis(1), [&] {
    worst = std::max(worst, h.loop.tombstones());
  });
  check.Start();
  h.loop.RunUntil(sim::Seconds(4));
  EXPECT_EQ(worst, 0u);
  EXPECT_EQ(h.sender->timeouts(), 0);
  // One early firing per min_rto, not one event per ACK.
  EXPECT_GT(h.sender->segments_acked(), 100'000);
  EXPECT_LE(counter.rto_events, 4'000u / 200u + 2u);
  check.Stop();
  h.sender->Stop();
  h.loop.SetProbe(nullptr);
}

TEST(TcpRenoReceiver, ReordersOutOfOrderSegments) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::vector<std::int64_t> acks;
  TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet p) {
    acks.push_back(p.tcp.ack);
  });
  auto segment = [&](std::int64_t seq) {
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.flow = 1;
    p.size_bytes = 1500;
    p.tcp.seq = seq;
    return p;
  };
  receiver.OnSegment(segment(0), 0);
  receiver.OnSegment(segment(2), 0);  // hole at 1.
  receiver.OnSegment(segment(1), 0);  // fills the hole.
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0], 1);
  EXPECT_EQ(acks[1], 1);  // duplicate ACK while the hole exists.
  EXPECT_EQ(acks[2], 3);
  EXPECT_EQ(receiver.segments_received(), 3);
}

TEST(TcpRenoReceiver, IgnoresForeignFlows) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  int acks = 0;
  TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet) { ++acks; });
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.flow = 2;
  p.tcp.seq = 0;
  receiver.OnSegment(p, 0);
  EXPECT_EQ(acks, 0);
}

TEST(TcpRenoReceiver, DuplicateSegmentsNotDoubleCounted) {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  TcpRenoReceiver receiver(1, 20, 10, ids, [](net::Packet) {});
  net::Packet p;
  p.protocol = net::Protocol::kTcp;
  p.flow = 1;
  p.size_bytes = 1500;
  p.tcp.seq = 0;
  receiver.OnSegment(p, 0);
  receiver.OnSegment(p, 0);
  EXPECT_EQ(receiver.segments_received(), 1);
}

/// The receive logic TcpRenoReceiver had with a std::set reorder buffer:
/// the reference its vector buffer must reproduce segment by segment.
class SetReceiverOracle {
 public:
  explicit SetReceiverOracle(net::FlowId flow) : flow_(flow) {}

  /// The cumulative ACK sent for `segment`, or -1 when it is not ours.
  std::int64_t OnSegment(const net::Packet& segment) {
    if (segment.protocol != net::Protocol::kTcp || segment.tcp.is_ack ||
        segment.flow != flow_) {
      return -1;
    }
    const std::int64_t seq = segment.tcp.seq;
    if (seq == cumulative_ && out_of_order_.empty()) {
      ++cumulative_;
      bytes_ += segment.size_bytes - 40;
    } else if (seq >= cumulative_) {
      out_of_order_.insert(seq);
      while (!out_of_order_.empty() &&
             *out_of_order_.begin() == cumulative_) {
        out_of_order_.erase(out_of_order_.begin());
        ++cumulative_;
        bytes_ += segment.size_bytes - 40;
      }
    }
    return cumulative_;
  }
  [[nodiscard]] std::int64_t segments_received() const { return cumulative_; }
  [[nodiscard]] std::int64_t bytes_received() const { return bytes_; }

 private:
  net::FlowId flow_;
  std::int64_t cumulative_ = 0;
  std::int64_t bytes_ = 0;
  std::set<std::int64_t> out_of_order_;
};

TEST(TcpRenoReceiver, ReorderBufferMatchesSetOracle) {
  net::PacketIdAllocator ids;
  std::int64_t ack = -1;
  int acks = 0;
  TcpRenoReceiver receiver(1, 20, 10, ids, [&](net::Packet&& p) {
    ack = p.tcp.ack;
    ++acks;
  });
  SetReceiverOracle oracle(1);
  sim::Rng rng(29);
  constexpr int kArrivals = 200'000;
  std::int64_t next = 0;             // the next new segment.
  std::int64_t last = 0;             // the previous arrival's seq.
  std::vector<std::int64_t> held;    // holes: segments held back.
  std::vector<std::int64_t> burst;   // queued arrivals, emitted first.
  int stale = 0;
  int buffered = 0;
  for (int i = 0; i < kArrivals; ++i) {
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.flow = 1;
    constexpr std::int32_t kSizes[] = {1500, 1000, 576, 41};
    p.size_bytes = kSizes[rng.UniformInt(0, 3)];
    const double u = rng.UniformDouble();
    if (!burst.empty()) {
      p.tcp.seq = burst.back();
      burst.pop_back();
    } else if (u < 0.50 || (u < 0.62 && held.empty())) {
      // New data, leaving a hole now and then.
      if (rng.Bernoulli(0.08)) held.push_back(next++);
      p.tcp.seq = next++;
    } else if (u < 0.62) {
      // A retransmission fills a random hole.
      const auto k = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(held.size()) - 1));
      p.tcp.seq = held[k];
      held[k] = held.back();
      held.pop_back();
    } else if (u < 0.70) {
      // A duplicate of a recent segment, buffered or not.
      p.tcp.seq = rng.UniformInt(std::max<std::int64_t>(0, next - 64), next);
    } else if (u < 0.76) {
      // The previous arrival again, often the highest one buffered.
      p.tcp.seq = last;
    } else if (u < 0.85) {
      // A stale retransmission below the cumulative ACK.
      p.tcp.seq = rng.UniformInt(0, std::max<std::int64_t>(0, next - 1));
    } else if (u < 0.93) {
      // A jump past everything buffered, reached later by the stream.
      p.tcp.seq = next + rng.UniformInt(1, 4096);
    } else if (u < 0.935 && i >= kArrivals / 2) {
      // In the second half, a jump no stream here reaches: it stays
      // buffered to the end, above every later arrival.
      p.tcp.seq = next + rng.UniformInt(1'000'000, 1'000'000'000);
    } else if (u < 0.936) {
      // A long run behind one hole grows the buffer to a new high-water
      // mark; the retransmission that ends it drains the whole run.
      held.push_back(next++);
      const std::int64_t run = rng.UniformInt(100, 3000);
      for (std::int64_t k = run - 1; k >= 0; --k) burst.push_back(next + k);
      next += run;
      p.tcp.seq = burst.back();
      burst.pop_back();
    } else if (u < 0.95) {
      // Not this receiver's: another flow, or an ACK.
      p.tcp.seq = next;
      if (rng.Bernoulli(0.5)) {
        p.flow = 2;
      } else {
        p.tcp.is_ack = true;
      }
    } else {
      p.tcp.seq = next++;
    }
    last = p.tcp.seq;
    if (p.tcp.seq < receiver.segments_received()) ++stale;
    if (p.tcp.seq > receiver.segments_received()) ++buffered;
    const int acks_before = acks;
    receiver.OnSegment(p, 0);
    const std::int64_t want = oracle.OnSegment(p);
    if (want < 0) {
      ASSERT_EQ(acks, acks_before) << "arrival " << i;
    } else {
      ASSERT_EQ(acks, acks_before + 1) << "arrival " << i;
      ASSERT_EQ(ack, want) << "arrival " << i << " seq " << p.tcp.seq;
    }
    ASSERT_EQ(receiver.segments_received(), oracle.segments_received())
        << "arrival " << i;
    ASSERT_EQ(receiver.bytes_received(), oracle.bytes_received())
        << "arrival " << i;
  }
  // The stream kept moving and every arrival kind occurred often.
  EXPECT_GT(receiver.segments_received(), 100'000);
  EXPECT_GT(stale, 10'000);
  EXPECT_GT(buffered, 10'000);
}

}  // namespace
}  // namespace kwikr::transport
