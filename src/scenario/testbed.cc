#include "scenario/testbed.h"

#include <utility>

namespace kwikr::scenario {

StationProbeTransport::StationProbeTransport(sim::EventLoop& loop,
                                             net::PacketIdAllocator& ids,
                                             wifi::Station& station,
                                             net::Address gateway)
    : loop_(loop), ids_(ids), station_(station), gateway_(gateway) {}

void StationProbeTransport::SendEcho(std::uint8_t tos, std::uint16_t ident,
                                     std::uint16_t sequence,
                                     std::int32_t size_bytes) {
  net::Packet packet;
  packet.id = ids_.Next();
  packet.protocol = net::Protocol::kIcmp;
  packet.src = station_.address();
  // Probe the *current* default gateway — it changes across handoffs.
  packet.dst = station_.gateway();
  packet.tos = tos;
  packet.size_bytes = size_bytes;
  packet.created_at = loop_.now();
  packet.icmp.type = net::IcmpType::kEchoRequest;
  packet.icmp.ident = ident;
  packet.icmp.sequence = sequence;
  station_.Send(std::move(packet));
}

Bss::Bss(sim::EventLoop& loop, wifi::Channel& channel,
         net::PacketIdAllocator& ids, Config config)
    : loop_(loop), channel_(channel), ids_(ids) {
  ap_ = std::make_unique<wifi::AccessPoint>(channel, config.ap);

  net::WiredLink::Config link;
  link.rate_bps = config.wan_rate_bps;
  link.propagation = config.wan_delay;
  downlink_ = std::make_unique<net::WiredLink>(
      loop, link,
      net::WiredLink::Receiver::Member<&Bss::DeliverDownlink>(this));
  uplink_ = std::make_unique<net::WiredLink>(
      loop, link,
      net::WiredLink::Receiver::Member<&Bss::DeliverUplink>(this));
  ap_->SetWanForwarder(
      [this](net::Packet&& packet) { uplink_->Send(std::move(packet)); });
}

wifi::Station& Bss::AddStation(net::Address address, std::int64_t rate_bps,
                               double frame_error_prob) {
  wifi::Station::Config config;
  config.address = address;
  config.rate_bps = rate_bps;
  config.frame_error_prob = frame_error_prob;
  stations_.push_back(
      std::make_unique<wifi::Station>(channel_, *ap_, config));
  return *stations_.back();
}

void Bss::RegisterWanEndpoint(
    net::Address address,
    std::function<void(net::Packet&&, sim::Time)> handler) {
  endpoints_[address] = std::move(handler);
}

void Bss::SendFromWan(net::Packet&& packet) {
  if (throttle_) {
    throttle_->Send(std::move(packet));
  } else {
    downlink_->Send(std::move(packet));
  }
}

transport::TokenBucket& Bss::InstallThrottle(
    transport::TokenBucket::Config cfg) {
  throttle_ = std::make_unique<transport::TokenBucket>(
      loop_, cfg,
      [this](net::Packet&& packet) { downlink_->Send(std::move(packet)); });
  return *throttle_;
}

void Bss::DeliverDownlink(net::Packet&& packet) {
  ap_->DeliverFromWan(std::move(packet));
}

void Bss::DeliverUplink(net::Packet&& packet) {
  const auto it = endpoints_.find(packet.dst);
  if (it == endpoints_.end()) return;
  it->second(std::move(packet), loop_.now());
}

Testbed::Testbed(Config config) : rng_(config.seed) {
  channel_ =
      std::make_unique<wifi::Channel>(loop_, rng_.Fork(), config.phy);
}

Bss& Testbed::AddBss(Bss::Config config) {
  if (config.ap.address == kApBaseAddress && !bss_.empty()) {
    config.ap.address = next_ap_;
  }
  next_ap_ = std::max(next_ap_, config.ap.address) + 1;
  bss_.push_back(
      std::make_unique<Bss>(loop_, *channel_, ids_, config));
  return *bss_.back();
}

std::vector<CrossFlow*> Testbed::AddTcpBulkFlows(
    Bss& bss, wifi::Station& station, int count, bool managed,
    transport::TcpRenoSender::Config sender_config) {
  std::vector<CrossFlow*> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    auto flow = std::make_unique<CrossFlow>();
    flow->flow = NextFlowId();
    const net::Address server = NextServerAddress();

    flow->sender = std::make_unique<transport::TcpRenoSender>(
        loop_, flow->flow, server, station.address(), ids_,
        [&bss](net::Packet&& packet) { bss.SendFromWan(std::move(packet)); },
        sender_config);
    flow->receiver = std::make_unique<transport::TcpRenoReceiver>(
        flow->flow, station.address(), server, ids_,
        [&station](net::Packet&& packet) { station.Send(std::move(packet)); });

    // Keyed to its flow: a segment reaches its own receiver only, not every
    // receiver on the station.
    transport::TcpRenoReceiver* receiver = flow->receiver.get();
    station.AddReceiver(
        [receiver](const net::Packet& packet, sim::Time arrival) {
          receiver->OnSegment(packet, arrival);
        },
        flow->flow);
    transport::TcpRenoSender* sender = flow->sender.get();
    bss.RegisterWanEndpoint(
        server, [sender](net::Packet&& packet, sim::Time /*arrival*/) {
          sender->OnAck(packet);
        });

    out.push_back(flow.get());
    if (managed) {
      cross_flows_.push_back(std::move(flow));
    } else {
      unmanaged_flows_.push_back(std::move(flow));
    }
  }
  return out;
}

void Testbed::StartCrossTraffic() {
  for (auto& flow : cross_flows_) flow->sender->Start();
}

void Testbed::StopCrossTraffic() {
  for (auto& flow : cross_flows_) flow->sender->Stop();
}

void Testbed::ScheduleCrossTraffic(sim::Time start, sim::Time stop) {
  auto begin = [this] { StartCrossTraffic(); };
  static_assert(sim::InlineTask::fits_inline<decltype(begin)>);
  if (start > 0) {
    loop_.ScheduleAt(start, std::move(begin));
  }
  if (stop > 0) {
    loop_.ScheduleAt(stop, [this] { StopCrossTraffic(); });
  }
}

std::int64_t Testbed::CrossTrafficBytesReceived() const {
  std::int64_t total = 0;
  for (const auto& flow : cross_flows_) {
    total += flow->receiver->bytes_received();
  }
  for (const auto& flow : unmanaged_flows_) {
    total += flow->receiver->bytes_received();
  }
  return total;
}

void Testbed::InstallDistanceErrorModel() {
  channel_->SetFrameErrorModel(
      wifi::FrameErrorModel::Member<&Testbed::DistanceErrorProb>(this));
}

double Testbed::DistanceErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                                  const wifi::Frame& frame) const {
  for (const auto& bss : bss_) {
    for (const auto& station : bss->stations()) {
      if (station->owner() == rx || station->owner() == tx) {
        if (station->distance_m() <= 0.0) return 0.0;
        return wifi::ErrorProbForRate(station->band(), station->distance_m(),
                                      frame.phy_rate_bps);
      }
    }
  }
  return 0.0;
}

void Testbed::InstallStationErrorModel() {
  channel_->SetFrameErrorModel(
      wifi::FrameErrorModel::Member<&Testbed::StationErrorProb>(this));
}

double Testbed::StationErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                                 const wifi::Frame& /*frame*/) const {
  for (const auto& bss : bss_) {
    for (const auto& station : bss->stations()) {
      if (station->owner() == rx || station->owner() == tx) {
        return station->frame_error_prob();
      }
    }
  }
  return 0.0;
}

}  // namespace kwikr::scenario
