#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/probe_transport.h"
#include "net/packet.h"
#include "net/wired_link.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "wifi/access_point.h"
#include "wifi/channel.h"
#include "wifi/station.h"

namespace kwikr::scenario {

/// Address plan used by all scenarios.
inline constexpr net::Address kApBaseAddress = 1;       // APs: 1, 2, ...
inline constexpr net::Address kStationBaseAddress = 100;
inline constexpr net::Address kServerBaseAddress = 1000;

/// core::ProbeTransport implementation over a wifi::Station: builds ICMP
/// echo requests addressed to the BSS gateway and sends them uplink.
class StationProbeTransport : public core::ProbeTransport {
 public:
  StationProbeTransport(sim::EventLoop& loop, net::PacketIdAllocator& ids,
                        wifi::Station& station, net::Address gateway);

  void SendEcho(std::uint8_t tos, std::uint16_t ident, std::uint16_t sequence,
                std::int32_t size_bytes) override;

 private:
  sim::EventLoop& loop_;
  net::PacketIdAllocator& ids_;
  wifi::Station& station_;
  net::Address gateway_;
};

/// A bidirectional TCP bulk cross-flow: sender on the wired side, receiver
/// on a Wi-Fi station.
struct CrossFlow {
  net::FlowId flow = net::kNoFlow;
  std::unique_ptr<transport::TcpRenoSender> sender;
  std::unique_ptr<transport::TcpRenoReceiver> receiver;
};

/// One BSS attached to the shared channel, with its own wired backhaul.
/// Owns the AP, its stations, and the WAN links; dispatches uplink packets
/// to registered wired-side endpoints.
class Bss {
 public:
  struct Config {
    wifi::AccessPoint::Config ap;
    std::int64_t wan_rate_bps = 1'000'000'000;  ///< keep Wi-Fi the bottleneck.
    sim::Duration wan_delay = sim::Millis(15);  ///< one-way wired delay.
  };

  Bss(sim::EventLoop& loop, wifi::Channel& channel,
      net::PacketIdAllocator& ids, Config config);

  /// Adds a station to this BSS.
  wifi::Station& AddStation(net::Address address, std::int64_t rate_bps,
                            double frame_error_prob = 0.0);

  /// Registers a wired-side endpoint: packets forwarded uplink whose
  /// destination matches are handed to `handler` after the WAN delay.
  void RegisterWanEndpoint(
      net::Address address,
      std::function<void(net::Packet&&, sim::Time)> handler);

  /// Injects a packet from the wired side toward the AP downlink (through
  /// the WAN link and, if configured, the token-bucket throttle).
  void SendFromWan(net::Packet&& packet);

  /// Installs a token-bucket throttle on the wired downlink (Figure 9).
  /// Returns a reference for runtime SetRate calls.
  transport::TokenBucket& InstallThrottle(transport::TokenBucket::Config cfg);

  [[nodiscard]] wifi::AccessPoint& ap() { return *ap_; }
  /// The wired WAN→AP link (fault-injection and observability hook point).
  [[nodiscard]] net::WiredLink& downlink() { return *downlink_; }
  [[nodiscard]] const std::vector<std::unique_ptr<wifi::Station>>& stations()
      const {
    return stations_;
  }
  [[nodiscard]] wifi::Station& station(std::size_t i) { return *stations_[i]; }

 private:
  void DeliverDownlink(net::Packet&& packet);
  void DeliverUplink(net::Packet&& packet);

  sim::EventLoop& loop_;
  wifi::Channel& channel_;
  net::PacketIdAllocator& ids_;
  std::unique_ptr<wifi::AccessPoint> ap_;
  std::vector<std::unique_ptr<wifi::Station>> stations_;
  std::unique_ptr<net::WiredLink> downlink_;  // wired -> AP
  std::unique_ptr<net::WiredLink> uplink_;    // AP -> wired
  std::unique_ptr<transport::TokenBucket> throttle_;
  std::unordered_map<net::Address,
                     std::function<void(net::Packet&&, sim::Time)>>
      endpoints_;
};

/// The simulated testbed: one event loop, one shared 802.11 channel, and any
/// number of BSSs on it. Provides the cross-traffic and flow-id helpers all
/// experiments use.
class Testbed {
 public:
  struct Config {
    std::uint64_t seed = 1;
    wifi::PhyParams phy;
  };

  explicit Testbed(Config config);
  Testbed() : Testbed(Config{}) {}

  /// Creates a BSS; the first AP gets address 1, the second 2, ...
  Bss& AddBss(Bss::Config config);

  /// Starts `count` TCP bulk flows from fresh wired servers down to
  /// `station` (which must belong to `bss`). Flows are created stopped.
  /// With `managed = true` (the default) the flows are driven by
  /// Start/StopCrossTraffic and ScheduleCrossTraffic; pass false for flows
  /// with their own lifecycle (e.g. an always-on foreground flow).
  std::vector<CrossFlow*> AddTcpBulkFlows(
      Bss& bss, wifi::Station& station, int count, bool managed = true,
      transport::TcpRenoSender::Config sender_config = {});

  /// Starts/stops every *managed* TCP flow created by AddTcpBulkFlows.
  void StartCrossTraffic();
  void StopCrossTraffic();
  /// Schedules cross-traffic on/off at absolute times (0 = skip).
  void ScheduleCrossTraffic(sim::Time start, sim::Time stop);

  /// Sum of cross-flow goodput, bytes.
  [[nodiscard]] std::int64_t CrossTrafficBytesReceived() const;

  /// Observability accessors: the managed cross flows (AddTcpBulkFlows with
  /// managed = true) and the self-driven ones (foreground TCP).
  [[nodiscard]] const std::vector<std::unique_ptr<CrossFlow>>& cross_flows()
      const {
    return cross_flows_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<CrossFlow>>&
  unmanaged_flows() const {
    return unmanaged_flows_;
  }

  [[nodiscard]] sim::EventLoop& loop() { return loop_; }
  [[nodiscard]] wifi::Channel& channel() { return *channel_; }
  [[nodiscard]] sim::Rng& rng() { return rng_; }
  [[nodiscard]] net::PacketIdAllocator& ids() { return ids_; }
  [[nodiscard]] net::FlowId NextFlowId() { return next_flow_++; }
  [[nodiscard]] net::Address NextServerAddress() { return next_server_++; }
  [[nodiscard]] net::Address NextStationAddress() { return next_station_++; }

  /// Installs the standard frame-error model: each frame's error probability
  /// is the station endpoint's `frame_error_prob` (mobility experiments
  /// adjust it via Station::SetLinkQuality).
  void InstallStationErrorModel();

  /// Installs the rate-dependent error model: each frame's error probability
  /// follows wifi::ErrorProbForRate(band, station distance, frame rate) —
  /// the surface ARF rate adaptation explores. Stations with distance 0 are
  /// clean.
  void InstallDistanceErrorModel();

 private:
  double StationErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                          const wifi::Frame& frame) const;
  double DistanceErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                           const wifi::Frame& frame) const;

  sim::EventLoop loop_;
  sim::Rng rng_;
  net::PacketIdAllocator ids_;
  std::unique_ptr<wifi::Channel> channel_;
  std::vector<std::unique_ptr<Bss>> bss_;
  std::vector<std::unique_ptr<CrossFlow>> cross_flows_;
  std::vector<std::unique_ptr<CrossFlow>> unmanaged_flows_;
  net::FlowId next_flow_ = 1;
  net::Address next_server_ = kServerBaseAddress;
  net::Address next_station_ = kStationBaseAddress;
  net::Address next_ap_ = kApBaseAddress;
};

}  // namespace kwikr::scenario
