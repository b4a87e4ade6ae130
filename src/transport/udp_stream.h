#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace kwikr::transport {

/// Constant-bit-rate UDP sender. Used for the interference experiment's
/// simulated call ("a downlink stream of UDP packets with an inter-packet
/// interval of 20 ms", Section 8.1) and for the channel contenders of the
/// channel-access-delay experiments ("uploaded UDP packets at the rate of
/// one per millisecond", Section 8.2).
class UdpCbrSender {
 public:
  struct Config {
    net::Address src = 0;
    net::Address dst = 0;
    net::FlowId flow = net::kNoFlow;
    std::uint8_t tos = net::kTosBestEffort;
    std::int32_t packet_bytes = 1200;
    sim::Duration interval = sim::Millis(20);
  };

  UdpCbrSender(sim::EventLoop& loop, net::PacketIdAllocator& ids,
               Config config, net::SendFn send);

  void Start();
  void Stop();
  [[nodiscard]] bool running() const { return timer_.running(); }
  [[nodiscard]] std::uint64_t sent() const { return sequence_; }

 private:
  void Emit();

  sim::EventLoop& loop_;
  net::PacketIdAllocator& ids_;
  Config config_;
  net::SendFn send_;
  sim::PeriodicTimer timer_;
  std::uint64_t sequence_ = 0;
};

/// Records one-way delay samples of a UDP flow, normalized by the minimum
/// observed delay (the paper's clock-offset normalization in Figure 5).
class UdpOwdReceiver {
 public:
  struct Sample {
    sim::Time arrival = 0;
    sim::Duration owd = 0;  ///< raw arrival - sender_timestamp.
  };

  explicit UdpOwdReceiver(net::FlowId flow) : flow_(flow) {}

  void OnPacket(const net::Packet& packet, sim::Time arrival);

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] std::uint64_t received() const { return samples_.size(); }
  /// Minimum raw OWD seen so far (propagation + clock offset baseline).
  [[nodiscard]] sim::Duration min_owd() const { return min_owd_; }
  /// Normalized OWD (sample minus minimum) in milliseconds, per sample.
  [[nodiscard]] std::vector<double> NormalizedOwdMillis() const;

 private:
  net::FlowId flow_;
  std::vector<Sample> samples_;
  sim::Duration min_owd_ = 0;
  bool has_min_ = false;
};

}  // namespace kwikr::transport
