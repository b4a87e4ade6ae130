#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>

#include "sim/time.h"

namespace kwikr::net {

/// IPv4 address, host byte order. The simulator only needs identity, not
/// real routing, so a plain integer suffices.
using Address = std::uint32_t;

/// Flow identifier used for congestion attribution (counting "sandwiched"
/// packets of the flow of interest, paper Section 5.3).
using FlowId = std::uint32_t;
inline constexpr FlowId kNoFlow = 0;

enum class Protocol : std::uint8_t { kIcmp, kUdp, kTcp };

/// TOS byte values from the paper (Section 5.2): the Ping-Pair probe marks
/// one ping 0x00 (best effort) and one 0xb8 (DSCP EF -> WMM Voice). The WMM
/// detection triplet (Section 5.5) additionally uses an intermediate
/// priority, which we map to the Video access category.
inline constexpr std::uint8_t kTosBestEffort = 0x00;
inline constexpr std::uint8_t kTosVoice = 0xb8;       // DSCP 46 (EF)
inline constexpr std::uint8_t kTosVideo = 0xa0;       // DSCP 40 (CS5)
inline constexpr std::uint8_t kTosBackground = 0x20;  // DSCP 8  (CS1)

enum class IcmpType : std::uint8_t { kEchoRequest = 8, kEchoReply = 0 };

struct IcmpInfo {
  IcmpType type = IcmpType::kEchoRequest;
  std::uint16_t ident = 0;
  std::uint16_t sequence = 0;
};

struct UdpInfo {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint64_t sequence = 0;       ///< application sequence number.
  sim::Time sender_timestamp = 0;   ///< stamped at the application sender.
};

struct TcpInfo {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::int64_t seq = 0;   ///< first data byte carried (segments).
  std::int64_t ack = 0;   ///< cumulative ack (acks).
  bool is_ack = false;
};

/// Receiver-to-sender report of a real-time media flow (rides in a small UDP
/// packet): the receiver's target rate plus an echo for RTT measurement.
struct RtcFeedbackInfo {
  bool valid = false;
  std::int64_t target_rate_bps = 0;
  sim::Time echo_sender_ts = 0;   ///< sender timestamp being echoed.
  sim::Duration echo_hold = 0;    ///< time the echo sat at the receiver.
  double loss_fraction = 0.0;     ///< observed since the previous report.
};

/// MAC-layer metadata stamped by the Wi-Fi layer when a frame is delivered.
/// The paper's Linux tool reads the equivalent fields from radiotap headers
/// (802.11 sequence number, retry flag, MCS data rate).
struct MacInfo {
  std::uint16_t sequence = 0;     ///< 802.11 sequence number (mod 4096).
  std::uint8_t transmissions = 1; ///< link-layer attempts (1 = no retry).
  bool retry = false;             ///< 802.11 retry bit of the final attempt.
  std::int64_t data_rate_bps = 0; ///< PHY rate the frame was sent at.
  std::uint8_t access_category = 0;
};

/// One simulated IP datagram. A flat struct keeps the hot path allocation
/// free; protocol-specific fields are valid according to `protocol`.
struct Packet {
  std::uint64_t id = 0;
  Protocol protocol = Protocol::kUdp;
  Address src = 0;
  Address dst = 0;
  std::uint8_t tos = kTosBestEffort;
  std::int32_t size_bytes = 0;  ///< IP datagram size on the wire.
  FlowId flow = kNoFlow;
  sim::Time created_at = 0;

  IcmpInfo icmp;
  UdpInfo udp;
  TcpInfo tcp;
  RtcFeedbackInfo rtc_feedback;
  MacInfo mac;
};

// Packet rides the hot path by value: inside wifi::Frame (which must fit a
// sim::InlineTask delivery closure — see the guard next to wifi::Frame), as
// a sim::FrameRing cell, and inside per-hop wire closures. This budget is
// the current size; if a new header struct pushes past it, prefer a
// side-table keyed by Packet::id over growing every queued copy, or grow
// the budget and the wifi::Frame/InlineTask budgets together, deliberately.
static_assert(sizeof(Packet) <= 168,
              "net::Packet grew: every frame queue cell and every in-flight "
              "event closure pays this size — see the budget note above "
              "before raising it.");
static_assert(std::is_trivially_copyable_v<Packet>,
              "net::Packet must stay trivially copyable (POD header fields "
              "only): frame queues and event closures move it with "
              "memcpy-grade copies.");

/// Egress of one hop: hands a packet to whatever carries it next (a wired
/// link, a Wi-Fi station, a token bucket, ...). Every send-path hop takes
/// the packet by rvalue reference and moves it on. It is copied only at
/// the points DESIGN.md §11 lists: into a queue cell or a wifi::Frame, and
/// out of a cell before a callee that may grow that queue runs. A caller
/// that keeps its packet sends an explicit copy.
using SendFn = std::function<void(Packet&&)>;

/// Monotonic packet id source (per-simulation, passed around explicitly).
class PacketIdAllocator {
 public:
  std::uint64_t Next() { return ++last_; }

 private:
  std::uint64_t last_ = 0;
};

/// Human-readable one-line description, for traces and test failures.
std::string Describe(const Packet& packet);

}  // namespace kwikr::net
