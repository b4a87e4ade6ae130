#include "wifi/station.h"

#include <utility>

#include "wifi/access_point.h"

namespace kwikr::wifi {

Station::Station(Channel& channel, AccessPoint& ap, Config config)
    : channel_(channel), ap_(&ap), config_(config) {
  owner_ = channel_.RegisterOwner(
      Channel::DeliveryHandler::Member<&Station::OnDownlinkFrame>(this));
  const auto params = DefaultEdcaParams();
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    uplink_[ac] = channel_.CreateContender(
        owner_, static_cast<AccessCategory>(ac), params[ac]);
  }
  ap_->AttachStation(this);
}

void Station::Send(net::Packet&& packet) {
  const AccessCategory ac = TosToAccessCategory(packet.tos);
  // The packet arrives by reference; wrapping it in the Frame temporary is
  // one copy and Enqueue's move into the ring cell is the stored one.
  channel_.Enqueue(uplink_[Index(ac)],
                   Frame{std::move(packet), ap_->owner(), config_.rate_bps});
}

void Station::AddReceiver(Receiver receiver, net::FlowId flow) {
  receivers_.push_back(KeyedReceiver{flow, std::move(receiver)});
}

void Station::SetLinkQuality(LinkQuality quality) {
  config_.rate_bps = quality.rate_bps;
  config_.frame_error_prob = quality.frame_error_prob;
}

void Station::EnableRateAdaptation(Band band, ArfPolicy::Config config) {
  const auto rates = McsRates(band);
  // Start mid-table; ARF finds the level.
  arf_ = std::make_unique<ArfPolicy>(rates, rates.size() / 2, config);
  config_.rate_bps = arf_->rate_bps();
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    channel_.SetTxFeedback(
        uplink_[ac],
        Channel::TxFeedback::Member<&Station::OnUplinkTxOutcome>(this));
  }
}

void Station::OnUplinkTxOutcome(const Frame& /*frame*/, bool delivered,
                                int attempts) {
  arf_->OnOutcome(delivered, attempts);
  config_.rate_bps = arf_->rate_bps();
}

void Station::Roam(AccessPoint& new_ap, LinkQuality quality) {
  if (&new_ap == ap_) return;
  ap_->DetachStation(this);
  ap_ = &new_ap;
  SetLinkQuality(quality);
  ap_->AttachStation(this);
  for (const auto& cb : roam_callbacks_) cb(ap_->address());
}

void Station::AddRoamCallback(RoamCallback callback) {
  roam_callbacks_.push_back(std::move(callback));
}

net::Address Station::gateway() const { return ap_->address(); }

Band Station::band() const { return ap_->band(); }

std::uint64_t Station::uplink_queue_drops() const {
  std::uint64_t total = 0;
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    total += channel_.QueueDrops(uplink_[ac]);
  }
  return total;
}

void Station::OnDownlinkFrame(Frame&& frame) {
  const sim::Time arrival = channel_.loop().now();
  const net::FlowId flow = frame.packet.flow;
  for (const KeyedReceiver& keyed : receivers_) {
    if (keyed.flow == net::kNoFlow || keyed.flow == flow) {
      keyed.receiver(frame.packet, arrival);
    }
  }
}

}  // namespace kwikr::wifi
