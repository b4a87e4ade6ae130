#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "sim/event_loop.h"
#include "sim/time.h"
#include "transport/congestion_control.h"
#include "transport/token_bucket.h"

namespace kwikr::transport {

/// Bulk-transfer TCP sender. This is the cross-traffic generator the paper
/// uses throughout ("congestion in the form of TCP bulk transfers"). The
/// sender owns reliability — sequence numbers, cumulative/duplicate ACK
/// accounting, fast retransmit on three dup-ACKs, NewReno partial-ACK
/// retransmission, and RTO with exponential backoff — and delegates window
/// and pacing-rate evolution to a pluggable CongestionControl (Reno by
/// default, bit-identical to the original TcpRenoSender; also CUBIC,
/// Westwood+, and a paced BBR-style model). Sequence numbers count
/// segments, not bytes.
class TcpSender {
 public:
  struct Config {
    std::int32_t mss_bytes = 1460;       ///< payload per segment.
    std::int32_t header_bytes = 40;      ///< IP+TCP header overhead.
    double initial_cwnd = 10.0;          ///< RFC 6928 initial window.
    sim::Duration min_rto = sim::Millis(200);
    /// Practical cap: RFC 6298 allows 60 s, but a minute-long dead time
    /// after a congestion episode would dominate every experiment window.
    sim::Duration max_rto = sim::Seconds(8);
    std::int64_t max_in_flight = 1'000;  ///< receive-window stand-in.
    CcAlgorithm cc = CcAlgorithm::kReno;
  };

  TcpSender(sim::EventLoop& loop, net::FlowId flow, net::Address src,
            net::Address dst, net::PacketIdAllocator& ids, net::SendFn send,
            Config config);
  TcpSender(sim::EventLoop& loop, net::FlowId flow, net::Address src,
            net::Address dst, net::PacketIdAllocator& ids, net::SendFn send);

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;
  ~TcpSender();

  /// Begins the bulk transfer (unlimited data).
  void Start();
  /// Stops transmitting and cancels timers.
  void Stop();

  /// Feed an incoming ACK packet (tcp.is_ack) to the sender.
  void OnAck(const net::Packet& ack);

  [[nodiscard]] double cwnd() const { return cc_->cwnd(); }
  [[nodiscard]] double ssthresh() const { return cc_->ssthresh(); }
  [[nodiscard]] const CongestionControl& congestion_control() const {
    return *cc_;
  }
  [[nodiscard]] std::int64_t segments_acked() const { return high_ack_; }
  [[nodiscard]] std::int64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::int64_t timeouts() const { return timeouts_; }
  [[nodiscard]] sim::Duration srtt() const { return srtt_; }
  [[nodiscard]] net::FlowId flow() const { return flow_; }
  [[nodiscard]] std::int64_t in_flight() const { return next_seq_ - high_ack_; }
  [[nodiscard]] bool rto_armed() const { return rto_event_ != 0; }
  [[nodiscard]] bool in_fast_recovery() const { return in_fast_recovery_; }

  /// Attaches a flight recorder: retransmissions and RTO firings get
  /// recorded (value = flow id). Null detaches; detached cost is one null
  /// check on paths that are already loss paths.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  void TrySend();
  void SendSegment(std::int64_t seq, bool retransmission);
  /// Sets the RTO deadline to now + min(max_rto, rto << backoff).
  void ArmRto();
  /// "tcp.rto" body: a real timeout at the deadline, else re-arms for it.
  void FireRto();
  void OnRto();
  void EnterFastRecovery();
  void SyncPacer();

  sim::EventLoop& loop_;
  net::FlowId flow_;
  net::Address src_;
  net::Address dst_;
  net::PacketIdAllocator& ids_;
  net::SendFn send_;
  Config config_;

  std::unique_ptr<CongestionControl> cc_;
  /// Pacer for rate-based algorithms (BBR); null for window-only senders so
  /// the Reno fast path is untouched.
  std::unique_ptr<TokenBucket> pacer_;

  bool running_ = false;
  std::int64_t next_seq_ = 0;   ///< next new segment to send.
  std::int64_t high_ack_ = 0;   ///< cumulative: all segments < high_ack_ acked.
  int dup_acks_ = 0;
  bool in_fast_recovery_ = false;
  std::int64_t recovery_point_ = 0;

  sim::Duration srtt_ = 0;
  sim::Duration rttvar_ = 0;
  sim::Duration rto_ = sim::Seconds(1);
  /// Deadline-based RTO (DESIGN.md §17): ACKs move rto_deadline_ and
  /// rto_ticket_ only; the one pending "tcp.rto" event (rto_event_, due at
  /// rto_event_at_ with rto_event_ticket_) re-arms itself when it finds the
  /// deadline moved. rto_firing_ holds the event's id while OnRto runs.
  sim::Time rto_deadline_ = 0;
  sim::Ticket rto_ticket_;
  sim::EventId rto_event_ = 0;
  sim::Time rto_event_at_ = 0;
  sim::Ticket rto_event_ticket_;
  sim::EventId rto_firing_ = 0;
  int rto_backoff_ = 0;
  std::int64_t rtt_probe_seq_ = -1;   ///< segment being timed (Karn's rule).
  sim::Time rtt_probe_sent_ = 0;

  std::int64_t retransmissions_ = 0;
  std::int64_t timeouts_ = 0;
  obs::FlightRecorder* recorder_ = nullptr;
};

/// Historical name from before the CongestionControl extraction; every
/// pre-existing call site constructs a Reno-configured TcpSender.
using TcpRenoSender = TcpSender;

/// TCP receiver half: generates cumulative ACKs (one per segment, no
/// delayed ACK) and tracks goodput for rate plots.
class TcpRenoReceiver {
 public:
  TcpRenoReceiver(net::FlowId flow, net::Address src, net::Address dst,
                  net::PacketIdAllocator& ids, net::SendFn send,
                  std::int32_t ack_bytes = 40);

  /// Feed an incoming data segment.
  void OnSegment(const net::Packet& segment, sim::Time arrival);

  /// Cumulative in-order segments received.
  [[nodiscard]] std::int64_t segments_received() const { return cumulative_; }
  /// Total in-order payload bytes received.
  [[nodiscard]] std::int64_t bytes_received() const { return bytes_; }

 private:
  /// Adds a segment above the cumulative ACK to the reorder buffer.
  void Buffer(std::int64_t seq);

  net::FlowId flow_;
  net::Address src_;
  net::Address dst_;
  net::PacketIdAllocator& ids_;
  net::SendFn send_;
  std::int32_t ack_bytes_;
  std::int64_t cumulative_ = 0;  ///< all segments < cumulative_ received.
  std::int64_t bytes_ = 0;
  /// Reorder buffer: the distinct segments above a hole, ascending, live
  /// from index out_of_order_head_ on. Filling the hole advances the head
  /// instead of erasing, the vector is cleared when the last one drains,
  /// and a drained prefix is compacted away before the vector would grow.
  /// So it allocates nothing at construction, its capacity follows the
  /// high-water mark of buffered segments (not their seq span), and a
  /// steady state allocates nothing.
  std::vector<std::int64_t> out_of_order_;
  std::size_t out_of_order_head_ = 0;
};

}  // namespace kwikr::transport
