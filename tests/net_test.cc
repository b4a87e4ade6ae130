#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/checksum.h"
#include "net/packet.h"
#include "net/wire.h"
#include "net/wired_link.h"
#include "sim/event_loop.h"

namespace kwikr::net {
namespace {

// ------------------------------------------------------------ Checksum ----

TEST(Checksum, RfcExampleVector) {
  // Classic RFC 1071 worked example: 0x0001 0xf203 0xf4f5 0xf6f7.
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xf2, 0x03,
                                          0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(InternetChecksum(data), 0xffff - 0xddf2 + 0);  // ~0xddf2
  EXPECT_EQ(InternetChecksum(data), 0x220d);
}

TEST(Checksum, ZeroDataChecksumIsAllOnes) {
  const std::vector<std::uint8_t> data(10, 0);
  EXPECT_EQ(InternetChecksum(data), 0xFFFF);
}

TEST(Checksum, OddLengthPadsWithZero) {
  const std::vector<std::uint8_t> even = {0x12, 0x34, 0xab, 0x00};
  const std::vector<std::uint8_t> odd = {0x12, 0x34, 0xab};
  EXPECT_EQ(InternetChecksum(even), InternetChecksum(odd));
}

TEST(Checksum, EmbeddedChecksumValidates) {
  IcmpEchoWire echo;
  echo.ident = 0xBEEF;
  echo.sequence = 7;
  echo.payload = {1, 2, 3, 4, 5};
  const auto wire = echo.Serialize();
  EXPECT_TRUE(ChecksumIsValid(wire));
}

TEST(Checksum, CorruptionDetected) {
  IcmpEchoWire echo;
  echo.ident = 1;
  echo.payload = {9, 9, 9};
  auto wire = echo.Serialize();
  wire[8] ^= 0x01;
  EXPECT_FALSE(ChecksumIsValid(wire));
}

// ---------------------------------------------------------------- Wire ----

TEST(IcmpEchoWire, SerializeParseRoundTrip) {
  IcmpEchoWire echo;
  echo.type = 8;
  echo.ident = 0x1234;
  echo.sequence = 0x5678;
  echo.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  const auto wire = echo.Serialize();
  const auto parsed = IcmpEchoWire::Parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, 8);
  EXPECT_EQ(parsed->ident, 0x1234);
  EXPECT_EQ(parsed->sequence, 0x5678);
  EXPECT_EQ(parsed->payload, echo.payload);
}

TEST(IcmpEchoWire, EmptyPayloadRoundTrip) {
  IcmpEchoWire echo;
  echo.ident = 42;
  const auto parsed = IcmpEchoWire::Parse(echo.Serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->payload.empty());
}

TEST(IcmpEchoWire, ShortInputRejected) {
  const std::vector<std::uint8_t> junk = {8, 0, 0};
  EXPECT_FALSE(IcmpEchoWire::Parse(junk).has_value());
}

TEST(IcmpEchoWire, BadChecksumRejected) {
  IcmpEchoWire echo;
  echo.ident = 5;
  auto wire = echo.Serialize();
  wire[4] ^= 0xFF;
  EXPECT_FALSE(IcmpEchoWire::Parse(wire).has_value());
}

TEST(Ipv4HeaderView, ParsesMinimalHeader) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x45;  // v4, ihl=5
  header[1] = 0xb8;  // TOS
  header[8] = 64;    // TTL
  header[9] = 1;     // ICMP
  header[12] = 192;
  header[13] = 168;
  header[14] = 1;
  header[15] = 1;
  const auto view = Ipv4HeaderView::Parse(header);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->ihl_bytes, 20);
  EXPECT_EQ(view->tos, 0xb8);
  EXPECT_EQ(view->ttl, 64);
  EXPECT_EQ(view->protocol, 1);
  EXPECT_EQ(view->src, 0xC0A80101u);
}

TEST(Ipv4HeaderView, RejectsNonV4) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x65;  // v6?
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

TEST(Ipv4HeaderView, RejectsShortBuffer) {
  std::vector<std::uint8_t> header(10, 0);
  header[0] = 0x45;
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

TEST(Ipv4HeaderView, RejectsTruncatedOptions) {
  std::vector<std::uint8_t> header(20, 0);
  header[0] = 0x4F;  // ihl = 60 bytes, but only 20 present.
  EXPECT_FALSE(Ipv4HeaderView::Parse(header).has_value());
}

// -------------------------------------------------------------- Packet ----

TEST(Packet, DescribeMentionsProtocolAndAddresses) {
  Packet p;
  p.protocol = Protocol::kIcmp;
  p.id = 9;
  p.src = 100;
  p.dst = 1;
  p.tos = kTosVoice;
  const std::string text = Describe(p);
  EXPECT_NE(text.find("ICMP"), std::string::npos);
  EXPECT_NE(text.find("0xb8"), std::string::npos);
}

TEST(Packet, IdAllocatorIsMonotonic) {
  PacketIdAllocator ids;
  const auto a = ids.Next();
  const auto b = ids.Next();
  EXPECT_LT(a, b);
}

TEST(Packet, TosConstantsMatchPaper) {
  EXPECT_EQ(kTosBestEffort, 0x00);
  EXPECT_EQ(kTosVoice, 0xb8);  // paper Section 5.2.
}

// ----------------------------------------------------------- WiredLink ----

TEST(WiredLink, DeliversAfterSerializationAndPropagation) {
  sim::EventLoop loop;
  std::vector<sim::Time> arrivals;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;  // 1 byte/us
  config.propagation = sim::Millis(2);
  auto on_arrival = [&](Packet) { arrivals.push_back(loop.now()); };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 1000;  // 1 ms serialization.
  link.Send(Packet(p));
  // After an idle gap the serializer starts at the send time, not where
  // the previous packet left it.
  loop.ScheduleAt(sim::Millis(10), [&] { link.Send(Packet(p)); });
  loop.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], sim::Millis(3));
  EXPECT_EQ(arrivals[1], sim::Millis(13));
}

TEST(WiredLink, BackToBackPacketsSerialize) {
  sim::EventLoop loop;
  std::vector<sim::Time> arrivals;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;
  config.propagation = 0;
  auto on_arrival = [&](Packet) { arrivals.push_back(loop.now()); };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 1000;
  link.Send(Packet(p));
  link.Send(Packet(p));
  p.size_bytes = 500;
  link.Send(Packet(p));
  loop.Run();
  // Spaced by exactly each packet's own serialization time.
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], sim::Millis(1));
  EXPECT_EQ(arrivals[1], sim::Millis(2));
  EXPECT_EQ(arrivals[2], sim::Micros(2500));
}

TEST(WiredLink, DropsWhenQueueFull) {
  sim::EventLoop loop;
  int delivered = 0;
  WiredLink::Config config;
  config.rate_bps = 8'000;  // very slow: 100 ms per packet.
  config.queue_capacity_packets = 3;
  auto on_arrival = [&](Packet) { ++delivered; };
  WiredLink link(loop, config, on_arrival);

  Packet p;
  p.size_bytes = 100;
  for (int i = 0; i < 10; ++i) link.Send(Packet(p));
  EXPECT_EQ(link.dropped(), 7u);
  EXPECT_EQ(link.queue_length(), 3u);
  // The queue counts only packets still serializing: the first one is on
  // the wire (propagating) at 100 ms, which frees one place.
  loop.RunUntil(sim::Millis(100));
  EXPECT_EQ(link.queue_length(), 2u);
  EXPECT_EQ(link.delivered(), 1u);
  EXPECT_EQ(delivered, 0);
  link.Send(Packet(p));
  link.Send(Packet(p));
  EXPECT_EQ(link.dropped(), 8u);
  loop.Run();
  EXPECT_EQ(delivered + static_cast<int>(link.dropped()), 12);
}

TEST(WiredLink, PreservesOrder) {
  sim::EventLoop loop;
  std::vector<std::uint64_t> order;
  WiredLink::Config config;
  auto on_arrival = [&](Packet p) { order.push_back(p.id); };
  WiredLink link(loop, config, on_arrival);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Packet p;
    p.id = i;
    p.size_bytes = 500;
    link.Send(Packet(p));
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(WiredLink, CountsDelivered) {
  sim::EventLoop loop;
  WiredLink link(loop, WiredLink::Config{}, [](Packet&&) {});
  Packet p;
  p.size_bytes = 100;
  link.Send(Packet(p));
  link.Send(Packet(p));
  loop.Run();
  EXPECT_EQ(link.delivered(), 2u);
  EXPECT_EQ(link.queue_length(), 0u);
}

TEST(WiredLink, DeliveryKeepsItsTieBreakPlace) {
  // A delivery ties with other events at its arrival time exactly like an
  // event scheduled at the moment of Send would: after events scheduled
  // earlier, before events scheduled later. That holds for the line head
  // and for a packet whose delivery event is re-armed behind it.
  sim::EventLoop loop;
  std::string order;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;
  config.propagation = sim::Millis(2);
  auto on_arrival = [&](Packet p) {
    order += static_cast<char>('0' + p.id);
  };
  WiredLink link(loop, config, on_arrival);
  Packet p;
  p.size_bytes = 1000;  // 1 ms each: arrivals at 3 and 4 ms.
  loop.ScheduleAt(sim::Millis(3), [&] { order += 'a'; });
  p.id = 1;
  link.Send(Packet(p));
  p.id = 2;
  link.Send(Packet(p));
  loop.ScheduleAt(sim::Millis(3), [&] { order += 'b'; });
  loop.ScheduleAt(sim::Millis(4), [&] { order += 'c'; });
  loop.Run();
  EXPECT_EQ(order, "a1b2c");
}

TEST(WiredLink, HookRunsAtEachSerializationEnd) {
  sim::EventLoop loop;
  std::vector<std::uint64_t> order;
  WiredLink::Config config;
  config.rate_bps = 8'000'000;
  config.propagation = sim::Millis(2);
  auto on_arrival = [&](Packet p) { order.push_back(p.id); };
  WiredLink link(loop, config, on_arrival);
  std::vector<sim::Time> hook_times;
  link.SetFaultHook([&](const Packet& p) {
    hook_times.push_back(loop.now());
    WiredLink::LinkFault fault;
    if (p.id == 2) fault.extra_delay = sim::Millis(5);  // overtaken.
    if (p.id == 4) fault.drop = true;
    return fault;
  });
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Packet p;
    p.id = i;
    p.size_bytes = 1000;  // 1 ms each.
    link.Send(Packet(p));
  }
  EXPECT_EQ(link.queue_length(), 5u);
  loop.Run();
  EXPECT_EQ(hook_times,
            (std::vector<sim::Time>{sim::Millis(1), sim::Millis(2),
                                    sim::Millis(3), sim::Millis(4),
                                    sim::Millis(5)}));
  // The jittered packet is overtaken; the others keep FIFO order, and the
  // dropped one counts as faulted, not delivered.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 5, 2}));
  EXPECT_EQ(link.faulted(), 1u);
  EXPECT_EQ(link.delivered(), 4u);
  EXPECT_EQ(link.queue_length(), 0u);
}

TEST(WiredLink, DestroyedLinkNeverFiresACallback) {
  sim::EventLoop loop;
  int arrivals = 0;
  auto on_arrival = [&](Packet) { ++arrivals; };
  {
    WiredLink plain(loop, WiredLink::Config{}, on_arrival);
    WiredLink hooked(loop, WiredLink::Config{}, on_arrival);
    hooked.SetFaultHook([](const Packet& p) {
      WiredLink::LinkFault fault;
      fault.extra_delay = p.id % 2 == 0 ? sim::Millis(3) : 0;
      return fault;
    });
    Packet p;
    p.size_bytes = 1000;
    for (std::uint64_t i = 1; i <= 4; ++i) {
      p.id = i;
      plain.Send(Packet(p));
      hooked.Send(Packet(p));
    }
    // Mid-flight: serializer, line and jitter events all pending.
    loop.RunUntil(sim::Micros(250));
    ASSERT_GT(loop.pending(), 0u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  loop.Run();
  EXPECT_EQ(arrivals, 0);
}

}  // namespace
}  // namespace kwikr::net
