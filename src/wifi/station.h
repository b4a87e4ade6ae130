#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include <memory>

#include "net/packet.h"
#include "wifi/channel.h"
#include "wifi/edca.h"
#include "wifi/rate_adaptation.h"
#include "wifi/rate_table.h"

namespace kwikr::wifi {

class AccessPoint;

/// A Wi-Fi client station. Uplink transmissions contend per access category
/// (chosen from the packet TOS); downlink deliveries fan out to registered
/// receivers with MAC metadata (sequence number, retry flag, PHY rate)
/// stamped in `packet.mac` — the information the paper's Linux tool reads
/// from the capture interface.
class Station {
 public:
  struct Config {
    net::Address address = 100;
    std::int64_t rate_bps = 65'000'000;  ///< current MCS rate, both ways.
    double frame_error_prob = 0.0;       ///< per-attempt wireless loss.
  };

  /// Receiver callback: packet plus its arrival time.
  using Receiver = std::function<void(const net::Packet&, sim::Time)>;

  Station(Channel& channel, AccessPoint& ap, Config config);

  Station(const Station&) = delete;
  Station& operator=(const Station&) = delete;

  /// Sends a packet uplink through the AC matching its TOS byte.
  void Send(net::Packet&& packet);

  /// Registers a downlink receiver. One keyed to `flow` sees only that
  /// flow's packets; an unkeyed one (kNoFlow) sees every packet. A delivery
  /// calls the matching receivers in registration order.
  void AddReceiver(Receiver receiver, net::FlowId flow = net::kNoFlow);

  /// Adjusts the link (mobility): new MCS rate and frame error probability.
  void SetLinkQuality(LinkQuality quality);

  /// Enables ARF rate adaptation on the uplink: the station picks its MCS
  /// from frame outcomes instead of a fixed configured rate. Combine with
  /// SetDistance + Testbed::InstallDistanceErrorModel so the error surface
  /// actually depends on the chosen rate.
  void EnableRateAdaptation(Band band, ArfPolicy::Config config = {});

  /// Sets the distance to the AP for the rate-dependent error model.
  void SetDistance(double metres) { distance_m_ = metres; }
  [[nodiscard]] double distance_m() const { return distance_m_; }
  [[nodiscard]] const ArfPolicy* arf() const { return arf_.get(); }

  /// Re-associates with a different AP (a Wi-Fi handoff). Pending downlink
  /// frames at the old AP are lost, as in a real roam; subsequent uplink
  /// traffic goes through the new BSS. `quality` is the link to the new AP.
  void Roam(AccessPoint& new_ap, LinkQuality quality);

  /// Called with the new gateway address after every Roam.
  using RoamCallback = std::function<void(net::Address new_gateway)>;
  void AddRoamCallback(RoamCallback callback);

  /// Address of the currently associated AP (the probing gateway).
  [[nodiscard]] net::Address gateway() const;

  /// Operating band of the currently associated AP.
  [[nodiscard]] Band band() const;

  [[nodiscard]] net::Address address() const { return config_.address; }
  [[nodiscard]] OwnerId owner() const { return owner_; }
  [[nodiscard]] std::int64_t rate_bps() const { return config_.rate_bps; }
  [[nodiscard]] double frame_error_prob() const {
    return config_.frame_error_prob;
  }
  [[nodiscard]] std::uint64_t uplink_queue_drops() const;

 private:
  void OnDownlinkFrame(Frame&& frame);
  void OnUplinkTxOutcome(const Frame& frame, bool delivered, int attempts);

  Channel& channel_;
  AccessPoint* ap_;
  Config config_;
  OwnerId owner_;
  std::array<ContenderId, kNumAccessCategories> uplink_;
  struct KeyedReceiver {
    net::FlowId flow = net::kNoFlow;  ///< kNoFlow: every packet.
    Receiver receiver;
  };
  std::vector<KeyedReceiver> receivers_;
  std::vector<RoamCallback> roam_callbacks_;
  std::unique_ptr<ArfPolicy> arf_;
  double distance_m_ = 0.0;
};

}  // namespace kwikr::wifi
