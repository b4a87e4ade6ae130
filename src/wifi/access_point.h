#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/packet.h"
#include "wifi/channel.h"
#include "wifi/edca.h"
#include "wifi/queue_discipline.h"
#include "wifi/rate_adaptation.h"
#include "wifi/rate_table.h"

namespace kwikr::wifi {

class Station;

/// A Wi-Fi access point: four prioritized EDCA downlink queues, an ICMP echo
/// responder (the Ping-Pair probe target), and forwarding between the
/// wireless side and a wired/WAN side.
///
/// With `wmm_enabled = false` the AP collapses all downlink traffic into the
/// Best Effort queue — the behaviour the WMM detector (Section 5.5) must
/// distinguish.
class AccessPoint {
 public:
  struct Config {
    net::Address address = 1;
    Band band = Band::k2_4GHz;
    bool wmm_enabled = true;
    /// Per-AC downlink queue capacity in frames (BK, BE, VI, VO).
    std::array<std::size_t, kNumAccessCategories> queue_capacity = {64, 150,
                                                                    64, 64};
    /// Downlink queue discipline, applied to every AC. DropTail keeps the
    /// seed fast path (frames go straight into the contender ring); CoDel /
    /// FQ-CoDel buffer in the discipline and trickle-feed the contender.
    QdiscConfig qdisc;
  };

  AccessPoint(Channel& channel, Config config);

  AccessPoint(const AccessPoint&) = delete;
  AccessPoint& operator=(const AccessPoint&) = delete;

  /// Registers a station in this BSS (done by Station's constructor and by
  /// Station::Roam).
  void AttachStation(Station* station);

  /// Removes a station from this BSS (handoff). Frames already queued for
  /// it keep draining over the air (the station may still hear them, as
  /// during a real roam); new wired-side packets for it become unroutable
  /// here until upstream routing converges on the new AP.
  void DetachStation(Station* station);

  /// Wired-side ingress: routes the packet onto the downlink queue chosen by
  /// its TOS byte (or Best Effort when WMM is off). Unknown destinations are
  /// counted and dropped.
  void DeliverFromWan(net::Packet&& packet);

  /// Installs the wired-side egress used for packets whose destination is
  /// not in this BSS (uplink traffic to servers).
  void SetWanForwarder(net::SendFn forwarder);

  /// Fault hook: overrides the downlink TOS→AC classification per packet.
  /// Receives the AC the normal path chose and returns the AC to enqueue
  /// on — how faults::FaultInjector realizes a "WMM-partial" AP that only
  /// sometimes honours priority (paper Section 5.5's adversary).
  using DownlinkClassifier = std::function<AccessCategory(
      const net::Packet& packet, AccessCategory chosen)>;
  void SetDownlinkClassifier(DownlinkClassifier classifier);

  /// Enables per-station ARF rate adaptation on the downlink: the AP learns
  /// each station's sustainable MCS from frame outcomes instead of using
  /// the station's configured rate.
  void EnableRateAdaptation(ArfPolicy::Config config = {});

  /// The ARF policy serving `station`, or nullptr (disabled / never sent).
  [[nodiscard]] const ArfPolicy* ArfFor(net::Address station) const;

  /// Attaches a flight recorder to the AP and its queue disciplines:
  /// unroutable drops, per-AC retry drops, and qdisc drops get recorded.
  /// Binding the TxFeedback hooks (needed for retry-drop visibility) is
  /// behaviour-neutral — the DropTail OnTxComplete is a no-op — so attaching
  /// a recorder never perturbs the simulation itself. Null detaches.
  void SetFlightRecorder(obs::FlightRecorder* recorder);

  /// Ground truth: frames waiting in one downlink AC queue (includes the
  /// frame currently contending, as a standing queue would).
  [[nodiscard]] std::size_t DownlinkQueueLength(AccessCategory ac) const;
  /// Sum over all ACs.
  [[nodiscard]] std::size_t TotalDownlinkQueueLength() const;

  [[nodiscard]] std::uint64_t downlink_queue_drops() const;
  /// Per-AC observability accessors: tail drops, retry-limit drops, and
  /// frames delivered on one downlink queue. Queue drops include the
  /// discipline's overflow drops (for DropTail those are the contender
  /// ring's tail drops, exactly as before).
  [[nodiscard]] std::uint64_t DownlinkQueueDrops(AccessCategory ac) const;
  [[nodiscard]] std::uint64_t DownlinkRetryDrops(AccessCategory ac) const;
  [[nodiscard]] std::uint64_t DownlinkDelivered(AccessCategory ac) const;
  /// The queue discipline serving one downlink AC (stats + sojourn sketch).
  [[nodiscard]] const QueueDiscipline& DownlinkQdisc(AccessCategory ac) const {
    return *qdisc_[Index(ac)];
  }
  [[nodiscard]] std::uint64_t unroutable_drops() const {
    return unroutable_drops_;
  }
  [[nodiscard]] std::uint64_t echo_replies_sent() const {
    return echo_replies_sent_;
  }

  [[nodiscard]] net::Address address() const { return config_.address; }
  [[nodiscard]] OwnerId owner() const { return owner_; }
  [[nodiscard]] Band band() const { return config_.band; }
  [[nodiscard]] bool wmm_enabled() const { return config_.wmm_enabled; }
  [[nodiscard]] Channel& channel() { return channel_; }

 private:
  /// Per-AC TxFeedback shim: Channel's feedback hook carries no AC, so each
  /// AC binds its own little member-function target that forwards with its
  /// index. One hook fans out to rate adaptation and the queue discipline.
  struct AcTxHook {
    AccessPoint* ap = nullptr;
    int ac = 0;
    void OnOutcome(const Frame& frame, bool delivered, int attempts);
  };

  void OnUplinkFrame(Frame&& frame);
  void OnDownlinkTxOutcome(int ac, const Frame& frame, bool delivered,
                           int attempts);
  void EnqueueDownlink(net::Packet&& packet);
  /// Binds the per-AC TxFeedback hooks (idempotent). Done eagerly for AQM
  /// disciplines, lazily by EnableRateAdaptation for the DropTail path so
  /// the seed configuration leaves the feedback slot null, as before.
  void BindTxHooks();

  Channel& channel_;
  Config config_;
  OwnerId owner_;
  std::array<ContenderId, kNumAccessCategories> downlink_;
  std::array<std::unique_ptr<QueueDiscipline>, kNumAccessCategories> qdisc_;
  std::array<AcTxHook, kNumAccessCategories> tx_hooks_;
  bool tx_hooks_bound_ = false;
  std::unordered_map<net::Address, Station*> stations_;
  net::SendFn wan_forwarder_;
  DownlinkClassifier downlink_classifier_;
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint64_t unroutable_drops_ = 0;
  std::uint64_t echo_replies_sent_ = 0;
  bool arf_enabled_ = false;
  ArfPolicy::Config arf_config_;
  std::unordered_map<net::Address, std::unique_ptr<ArfPolicy>> arf_;
};

}  // namespace kwikr::wifi
