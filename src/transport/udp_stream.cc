#include "transport/udp_stream.h"

#include <algorithm>
#include <utility>

namespace kwikr::transport {

UdpCbrSender::UdpCbrSender(sim::EventLoop& loop, net::PacketIdAllocator& ids,
                           Config config, net::SendFn send)
    : loop_(loop),
      ids_(ids),
      config_(config),
      send_(std::move(send)),
      timer_(loop, config.interval, [this] { Emit(); }) {}

void UdpCbrSender::Start() { timer_.Start(sim::Duration{0}); }

void UdpCbrSender::Stop() { timer_.Stop(); }

void UdpCbrSender::Emit() {
  net::Packet packet;
  packet.id = ids_.Next();
  packet.protocol = net::Protocol::kUdp;
  packet.src = config_.src;
  packet.dst = config_.dst;
  packet.tos = config_.tos;
  packet.flow = config_.flow;
  packet.size_bytes = config_.packet_bytes;
  packet.created_at = loop_.now();
  packet.udp.sequence = sequence_++;
  packet.udp.sender_timestamp = loop_.now();
  send_(std::move(packet));
}

void UdpOwdReceiver::OnPacket(const net::Packet& packet, sim::Time arrival) {
  if (packet.protocol != net::Protocol::kUdp || packet.flow != flow_) return;
  const sim::Duration owd = arrival - packet.udp.sender_timestamp;
  if (!has_min_ || owd < min_owd_) {
    min_owd_ = owd;
    has_min_ = true;
  }
  samples_.push_back(Sample{arrival, owd});
}

std::vector<double> UdpOwdReceiver::NormalizedOwdMillis() const {
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const auto& s : samples_) {
    out.push_back(sim::ToMillis(s.owd - min_owd_));
  }
  return out;
}

}  // namespace kwikr::transport
