#include "wifi/access_point.h"

#include <utility>

#include "wifi/station.h"

namespace kwikr::wifi {

AccessPoint::AccessPoint(Channel& channel, Config config)
    : channel_(channel), config_(config) {
  owner_ = channel_.RegisterOwner(
      Channel::DeliveryHandler::Member<&AccessPoint::OnUplinkFrame>(this));
  const auto params = DefaultEdcaParams();
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    downlink_[ac] = channel_.CreateContender(
        owner_, static_cast<AccessCategory>(ac), params[ac],
        config_.queue_capacity[ac]);
    qdisc_[ac] = MakeQueueDiscipline(channel_, downlink_[ac], config_.qdisc,
                                     config_.queue_capacity[ac]);
  }
  // AQM disciplines need OnTxComplete to trickle the next frame down;
  // DropTail doesn't, and leaving the feedback slot null preserves the
  // seed's exact channel fast path.
  if (config_.qdisc.kind != QdiscKind::kDropTail) BindTxHooks();
}

void AccessPoint::BindTxHooks() {
  if (tx_hooks_bound_) return;
  tx_hooks_bound_ = true;
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    tx_hooks_[ac] = AcTxHook{this, ac};
    channel_.SetTxFeedback(
        downlink_[ac],
        Channel::TxFeedback::Member<&AcTxHook::OnOutcome>(&tx_hooks_[ac]));
  }
}

void AccessPoint::AcTxHook::OnOutcome(const Frame& frame, bool delivered,
                                      int attempts) {
  ap->OnDownlinkTxOutcome(ac, frame, delivered, attempts);
}

void AccessPoint::AttachStation(Station* station) {
  stations_[station->address()] = station;
}

void AccessPoint::DetachStation(Station* station) {
  const auto it = stations_.find(station->address());
  if (it != stations_.end() && it->second == station) {
    stations_.erase(it);
  }
}

void AccessPoint::DeliverFromWan(net::Packet&& packet) {
  EnqueueDownlink(std::move(packet));
}

void AccessPoint::SetWanForwarder(net::SendFn forwarder) {
  wan_forwarder_ = std::move(forwarder);
}

void AccessPoint::SetDownlinkClassifier(DownlinkClassifier classifier) {
  downlink_classifier_ = std::move(classifier);
}

void AccessPoint::EnableRateAdaptation(ArfPolicy::Config config) {
  arf_enabled_ = true;
  arf_config_ = config;
  BindTxHooks();
}

void AccessPoint::SetFlightRecorder(obs::FlightRecorder* recorder) {
  recorder_ = recorder;
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    qdisc_[ac]->SetFlightRecorder(recorder, static_cast<std::uint8_t>(ac));
  }
  // Retry drops are only visible through TxFeedback; binding it is safe on
  // every discipline (see the header note).
  if (recorder != nullptr) BindTxHooks();
}

void AccessPoint::OnDownlinkTxOutcome(int ac, const Frame& frame,
                                      bool delivered, int attempts) {
  if (arf_enabled_) {
    const auto it = arf_.find(frame.packet.dst);
    if (it != arf_.end()) it->second->OnOutcome(delivered, attempts);
  }
  if (recorder_ != nullptr && !delivered) {
    recorder_->Record(channel_.loop().now(), obs::FlightEventKind::kRetryDrop,
                      static_cast<std::uint8_t>(ac),
                      static_cast<std::uint64_t>(attempts));
  }
  // The head frame left the contender queue: let an AQM discipline top the
  // hardware queue back up (deferred internally; see the re-entrancy
  // contract in queue_discipline.h).
  qdisc_[ac]->OnTxComplete();
}

const ArfPolicy* AccessPoint::ArfFor(net::Address station) const {
  const auto it = arf_.find(station);
  return it == arf_.end() ? nullptr : it->second.get();
}

std::size_t AccessPoint::DownlinkQueueLength(AccessCategory ac) const {
  return channel_.QueueLength(downlink_[Index(ac)]) +
         qdisc_[Index(ac)]->backlog();
}

std::size_t AccessPoint::TotalDownlinkQueueLength() const {
  std::size_t total = 0;
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    total += channel_.QueueLength(downlink_[ac]) + qdisc_[ac]->backlog();
  }
  return total;
}

std::uint64_t AccessPoint::downlink_queue_drops() const {
  std::uint64_t total = 0;
  for (int ac = 0; ac < kNumAccessCategories; ++ac) {
    total += channel_.QueueDrops(downlink_[ac]) +
             qdisc_[ac]->overflow_drops();
  }
  return total;
}

std::uint64_t AccessPoint::DownlinkQueueDrops(AccessCategory ac) const {
  return channel_.QueueDrops(downlink_[Index(ac)]) +
         qdisc_[Index(ac)]->overflow_drops();
}

std::uint64_t AccessPoint::DownlinkRetryDrops(AccessCategory ac) const {
  return channel_.RetryDrops(downlink_[Index(ac)]);
}

std::uint64_t AccessPoint::DownlinkDelivered(AccessCategory ac) const {
  return channel_.Delivered(downlink_[Index(ac)]);
}

void AccessPoint::OnUplinkFrame(Frame&& frame) {
  net::Packet& packet = frame.packet;
  if (packet.dst == config_.address) {
    // Addressed to the AP itself: answer echo requests (the Ping-Pair and
    // channel-access probes); everything else is dropped.
    if (packet.protocol == net::Protocol::kIcmp &&
        packet.icmp.type == net::IcmpType::kEchoRequest) {
      net::Packet reply = packet;
      reply.src = config_.address;
      reply.dst = packet.src;
      reply.icmp.type = net::IcmpType::kEchoReply;
      // Per the ICMP standard the reply echoes the request's TOS byte
      // (paper Section 5.2) — `reply.tos` is already the request's.
      reply.mac = net::MacInfo{};
      ++echo_replies_sent_;
      EnqueueDownlink(std::move(reply));
    }
    return;
  }
  if (stations_.contains(packet.dst)) {
    // Station-to-station traffic relays through the AP's downlink.
    EnqueueDownlink(std::move(packet));
    return;
  }
  if (wan_forwarder_) {
    wan_forwarder_(std::move(packet));
  } else {
    ++unroutable_drops_;
    if (recorder_ != nullptr) {
      recorder_->Record(channel_.loop().now(),
                        obs::FlightEventKind::kUnroutableDrop, 0,
                        unroutable_drops_, "no_wan_forwarder");
    }
  }
}

void AccessPoint::EnqueueDownlink(net::Packet&& packet) {
  const auto it = stations_.find(packet.dst);
  if (it == stations_.end()) {
    ++unroutable_drops_;
    if (recorder_ != nullptr) {
      recorder_->Record(channel_.loop().now(),
                        obs::FlightEventKind::kUnroutableDrop, 0,
                        unroutable_drops_, "unknown_station");
    }
    return;
  }
  Station* station = it->second;
  AccessCategory ac = config_.wmm_enabled ? TosToAccessCategory(packet.tos)
                                          : AccessCategory::kBestEffort;
  if (downlink_classifier_) ac = downlink_classifier_(packet, ac);
  std::int64_t rate_bps;
  if (arf_enabled_) {
    auto& policy = arf_[packet.dst];
    if (policy == nullptr) {
      const auto rates = McsRates(config_.band);
      policy = std::make_unique<ArfPolicy>(rates, rates.size() / 2,
                                           arf_config_);
    }
    rate_bps = policy->rate_bps();
  } else {
    rate_bps = station->rate_bps();
  }
  // The packet arrives by reference; wrapping it in the Frame temporary is
  // one copy, and the discipline passes the Frame by reference to where it
  // is stored: DropTail to the contender's ring cell, an AQM discipline to
  // its own buffer (and later, from there, to the ring).
  qdisc_[Index(ac)]->Enqueue(
      Frame{std::move(packet), station->owner(), rate_bps});
}

}  // namespace kwikr::wifi
