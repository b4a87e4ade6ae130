#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/frame_ring.h"
#include "sim/function_ref.h"
#include "sim/time.h"

namespace kwikr::net {

/// Unidirectional wired link with a serialization rate, propagation delay and
/// a drop-tail FIFO queue. Models the paper's wired segment between the
/// remote peer / server and the Wi-Fi AP. Use two instances for full duplex.
///
/// The link is a constant-rate FIFO delay line (DESIGN.md §17): Send computes
/// a packet's serialization end and arrival time up front, the packet waits
/// in the line stamped with both, and one rearmable "net.wire_prop" event
/// delivers the line head and re-arms for the next one. Each packet keeps the
/// (time, seq) tie-break position its own delivery event would have had (a
/// sim::Ticket), so same-tick ordering against the rest of the simulation is
/// unchanged. A fault hook needs to run at each packet's serialization end,
/// so a hooked link adds one rearmable "net.wire_tx" serializer event.
class WiredLink {
 public:
  /// Per-packet delivery callback. Non-owning (kwikr::FunctionRef): bind a
  /// member function or a named long-lived callable — see wifi::Channel's
  /// hook lifetime note.
  using Receiver = kwikr::FunctionRef<void(Packet&&)>;

  struct Config {
    std::int64_t rate_bps = 100'000'000;       ///< 100 Mbps default.
    sim::Duration propagation = sim::Millis(1);
    std::size_t queue_capacity_packets = 1000;
  };

  WiredLink(sim::EventLoop& loop, Config config, Receiver receiver);
  /// Cancels the link's pending events: packets still on the wire are lost
  /// and no callback fires after destruction. The loop must outlive the link.
  ~WiredLink();
  WiredLink(const WiredLink&) = delete;
  WiredLink& operator=(const WiredLink&) = delete;

  /// Enqueues a packet; drops (and counts) when the queue is full.
  void Send(Packet&& packet);

  /// Fault-injection verdict for one packet, consulted after serialization
  /// (see faults::FaultInjector). `drop` loses the packet on the wire;
  /// `extra_delay` adds propagation latency to this packet only, letting
  /// later packets overtake it (WAN reordering/jitter).
  struct LinkFault {
    bool drop = false;
    sim::Duration extra_delay = 0;
  };
  using FaultHook = std::function<LinkFault(const Packet& packet)>;
  /// Attach before the first Send: packets already accepted keep the path
  /// they were sent on.
  void SetFaultHook(FaultHook hook);

  /// Packets accepted but not fully serialized yet (the drop-tail queue,
  /// including the packet on the serializer).
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() + Serializing();
  }
  /// Packets that finished serialization and were not lost to the fault
  /// hook (counted at serialization end, before propagation).
  [[nodiscard]] std::uint64_t delivered() const {
    return launched_ - Serializing();
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Packets the fault hook lost on the wire (excluded from `delivered`).
  [[nodiscard]] std::uint64_t faulted() const { return faulted_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// A packet on the line: serialized (or serializing) and propagating.
  struct InFlight {
    Packet packet;
    sim::Time tx_end;     ///< serialization end.
    sim::Time arrive_at;  ///< tx_end + propagation.
    sim::Ticket ticket;   ///< tie-break position of this packet's delivery.
  };

  /// Books the serializer for `packet` and returns its serialization end.
  sim::Time BookSerializer(const Packet& packet);
  /// queue_length() >= capacity, in O(1).
  [[nodiscard]] bool QueueFull() const;
  /// Line packets whose serialization has not ended yet: a suffix of the
  /// line, since tx_end never decreases along it.
  [[nodiscard]] std::size_t Serializing() const;
  /// Puts a serialized packet on the line, arming the delivery event when
  /// the line was empty.
  void Launch(Packet&& packet, sim::Time tx_end, sim::Ticket ticket);
  /// "net.wire_tx" body (hooked links): runs the hook on the queue head.
  void FinishSerialization();
  /// "net.wire_prop" body: hands the line head to the receiver.
  void DeliverHead();

  sim::EventLoop& loop_;
  Config config_;
  Receiver receiver_;
  FaultHook fault_hook_;
  /// Hooked links only: packets waiting for the serializer event.
  sim::FrameRing<Packet> queue_;
  /// Packets on the wire in arrival order. Grows to the high-water mark of
  /// packets in flight (propagation x rate), not to the queue capacity.
  sim::FrameRing<InFlight> line_;
  sim::Time last_tx_end_ = 0;
  std::int32_t memo_size_bytes_ = -1;  ///< BookSerializer's memo key...
  sim::Duration memo_tx_time_ = 0;     ///< ...and its serialization time.
  sim::EventId serializer_ = 0;
  sim::EventId line_event_ = 0;
  /// One-off deliveries of jittered packets, cancelled on destruction.
  struct Jittered {
    sim::Time arrive_at;
    sim::EventId id;
  };
  std::vector<Jittered> jittered_;
  std::uint64_t launched_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t faulted_ = 0;
};

}  // namespace kwikr::net
