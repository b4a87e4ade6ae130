#include "transport/tcp_reno.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace kwikr::transport {

TcpSender::TcpSender(sim::EventLoop& loop, net::FlowId flow,
                     net::Address src, net::Address dst,
                     net::PacketIdAllocator& ids, net::SendFn send,
                     Config config)
    : loop_(loop),
      flow_(flow),
      src_(src),
      dst_(dst),
      ids_(ids),
      send_(std::move(send)),
      config_(config),
      cc_(MakeCongestionControl(
          config.cc, CcConfig{config.mss_bytes, config.header_bytes,
                              config.initial_cwnd})) {
  if (config.cc == CcAlgorithm::kBbr) {
    // Rate-based algorithms enforce their pacing rate through a private
    // token bucket in front of the egress. Burst of two wire segments keeps
    // back-to-back pairs legal while spreading the rest of the window over
    // the RTT; rate starts at 0 (unshaped) until the model has a sample.
    const std::int64_t wire_bytes = config.mss_bytes + config.header_bytes;
    TokenBucket::Config pacer_config;
    pacer_config.rate_bps = 0;
    pacer_config.burst_bytes = 2 * wire_bytes;
    pacer_config.queue_capacity_packets =
        static_cast<std::size_t>(config.max_in_flight) + 16;
    pacer_ = std::make_unique<TokenBucket>(
        loop, pacer_config,
        [this](net::Packet&& packet) { send_(std::move(packet)); });
  }
}

TcpSender::TcpSender(sim::EventLoop& loop, net::FlowId flow,
                     net::Address src, net::Address dst,
                     net::PacketIdAllocator& ids, net::SendFn send)
    : TcpSender(loop, flow, src, dst, ids, std::move(send), Config{}) {}

TcpSender::~TcpSender() { Stop(); }

void TcpSender::Start() {
  running_ = true;
  TrySend();
}

void TcpSender::Stop() {
  running_ = false;
  if (rto_event_ != 0) {
    loop_.Cancel(rto_event_);
    rto_event_ = 0;
  }
}

void TcpSender::SyncPacer() {
  if (pacer_) pacer_->SetRate(cc_->pacing_rate_bps());
}

void TcpSender::TrySend() {
  if (!running_) return;
  const auto window = static_cast<std::int64_t>(cc_->cwnd());
  const std::int64_t in_flight = next_seq_ - high_ack_;
  std::int64_t budget =
      std::min(window, config_.max_in_flight) - in_flight;
  while (budget > 0) {
    SendSegment(next_seq_, /*retransmission=*/false);
    ++next_seq_;
    --budget;
  }
}

void TcpSender::SendSegment(std::int64_t seq, bool retransmission) {
  net::Packet packet;
  packet.id = ids_.Next();
  packet.protocol = net::Protocol::kTcp;
  packet.src = src_;
  packet.dst = dst_;
  packet.flow = flow_;
  packet.size_bytes = config_.mss_bytes + config_.header_bytes;
  packet.created_at = loop_.now();
  packet.tcp.seq = seq;
  packet.tcp.is_ack = false;

  if (retransmission) {
    ++retransmissions_;
    if (recorder_ != nullptr) {
      recorder_->Record(loop_.now(), obs::FlightEventKind::kTcpRetransmit, 0,
                        static_cast<std::uint64_t>(flow_));
    }
    // Karn's rule: never time a retransmitted segment.
    if (rtt_probe_seq_ == seq) rtt_probe_seq_ = -1;
  } else if (rtt_probe_seq_ < 0) {
    rtt_probe_seq_ = seq;
    rtt_probe_sent_ = loop_.now();
  }

  if (pacer_) {
    pacer_->Send(std::move(packet));
  } else {
    send_(std::move(packet));
  }
  if (rto_event_ == 0) ArmRto();
}

void TcpSender::ArmRto() {
  rto_deadline_ =
      loop_.now() + std::min(config_.max_rto, rto_ << rto_backoff_);
  rto_ticket_ = loop_.TakeTicket();
  if (rto_firing_ != 0) {
    rto_event_ = rto_firing_;  // FireRto re-arms the firing event.
    return;
  }
  if (rto_event_ != 0) {
    // A later deadline (every new-data ACK) only moves the field: the
    // pending event fires early and re-arms itself. Only a deadline before
    // the pending event (rto_ shrank) needs a new event.
    if (rto_deadline_ >= rto_event_at_) return;
    loop_.Cancel(rto_event_);
  }
  auto fire_rto = [this] { FireRto(); };
  static_assert(sim::InlineTask::fits_inline<decltype(fire_rto)>);
  rto_event_at_ = rto_deadline_;
  rto_event_ticket_ = rto_ticket_;
  rto_event_ = loop_.ScheduleRearmableAt(rto_deadline_, rto_ticket_, "tcp.rto",
                                         std::move(fire_rto));
}

void TcpSender::FireRto() {
  if (rto_ticket_.seq == rto_event_ticket_.seq) {
    // This firing is the deadline itself: a real timeout.
    rto_firing_ = rto_event_;
    rto_event_ = 0;
    OnRto();
    rto_firing_ = 0;
    if (rto_event_ == 0) return;  // not re-armed: the chain ends.
  }
  // The deadline moved since this event was armed (or OnRto set a new one):
  // sleep until it, keeping the tie-break position it was set with.
  rto_event_at_ = rto_deadline_;
  rto_event_ticket_ = rto_ticket_;
  loop_.RearmCurrentAt(rto_deadline_, rto_ticket_);
}

void TcpSender::OnRto() {
  if (!running_) return;
  if (next_seq_ == high_ack_) return;  // nothing outstanding.
  ++timeouts_;
  if (recorder_ != nullptr) {
    recorder_->Record(loop_.now(), obs::FlightEventKind::kTcpTimeout, 0,
                      static_cast<std::uint64_t>(flow_));
  }
  cc_->OnRto(loop_.now());
  SyncPacer();
  dup_acks_ = 0;
  in_fast_recovery_ = false;
  next_seq_ = high_ack_;  // go-back-N from the hole.
  rto_backoff_ = std::min(rto_backoff_ + 1, 4);
  SendSegment(next_seq_, /*retransmission=*/true);
  ++next_seq_;
  ArmRto();
}

void TcpSender::EnterFastRecovery() {
  cc_->OnLoss(loop_.now());
  in_fast_recovery_ = true;
  recovery_point_ = next_seq_;
  SendSegment(high_ack_, /*retransmission=*/true);
}

void TcpSender::OnAck(const net::Packet& ack) {
  if (!running_) return;
  if (!ack.tcp.is_ack || ack.flow != flow_) return;
  const std::int64_t ack_seq = ack.tcp.ack;

  if (ack_seq > high_ack_) {
    // New data acknowledged.
    rto_backoff_ = 0;
    if (rtt_probe_seq_ >= 0 && ack_seq > rtt_probe_seq_) {
      const sim::Duration sample = loop_.now() - rtt_probe_sent_;
      if (srtt_ == 0) {
        srtt_ = sample;
        rttvar_ = sample / 2;
      } else {
        const sim::Duration err = std::abs(sample - srtt_);
        rttvar_ = (3 * rttvar_ + err) / 4;
        srtt_ = (7 * srtt_ + sample) / 8;
      }
      rto_ = std::clamp(srtt_ + 4 * rttvar_, config_.min_rto, config_.max_rto);
      rtt_probe_seq_ = -1;
      cc_->OnRttSample(sample, loop_.now());
    }

    const std::int64_t newly_acked = ack_seq - high_ack_;
    high_ack_ = ack_seq;
    dup_acks_ = 0;
    if (in_fast_recovery_) {
      if (high_ack_ >= recovery_point_) {
        cc_->OnRecoveryExit(loop_.now());
        in_fast_recovery_ = false;
      } else {
        // Partial ACK (NewReno-style): retransmit the next hole.
        SendSegment(high_ack_, /*retransmission=*/true);
        cc_->OnPartialAck();
      }
    } else {
      // Report *wire* in-flight: segments sitting in the pacer's backlog
      // haven't left the host, and counting them would keep a rate-based
      // CC's DRAIN state from ever observing in_flight <= BDP.
      std::int64_t wire_in_flight = next_seq_ - high_ack_;
      if (pacer_ != nullptr) {
        wire_in_flight -= static_cast<std::int64_t>(pacer_->backlog());
      }
      cc_->OnAck(newly_acked, wire_in_flight, loop_.now());
    }
    if (next_seq_ > high_ack_) {
      ArmRto();
    } else if (rto_event_ != 0) {
      loop_.Cancel(rto_event_);
      rto_event_ = 0;
    }
  } else if (ack_seq == high_ack_ && next_seq_ > high_ack_) {
    ++dup_acks_;
    if (in_fast_recovery_) {
      cc_->OnDupAckInRecovery();
    } else if (dup_acks_ == 3) {
      EnterFastRecovery();
    }
  }
  SyncPacer();
  TrySend();
}

TcpRenoReceiver::TcpRenoReceiver(net::FlowId flow, net::Address src,
                                 net::Address dst,
                                 net::PacketIdAllocator& ids, net::SendFn send,
                                 std::int32_t ack_bytes)
    : flow_(flow),
      src_(src),
      dst_(dst),
      ids_(ids),
      send_(std::move(send)),
      ack_bytes_(ack_bytes) {}

void TcpRenoReceiver::OnSegment(const net::Packet& segment, sim::Time arrival) {
  if (segment.protocol != net::Protocol::kTcp || segment.tcp.is_ack ||
      segment.flow != flow_) {
    return;
  }
  const std::int64_t seq = segment.tcp.seq;
  const std::int64_t payload = segment.size_bytes - 40;  // approximate.
  if (seq == cumulative_) {
    // In order: take it and the buffered run it completes. Everything
    // buffered is above cumulative_, so only the head can match.
    ++cumulative_;
    bytes_ += payload;
    while (out_of_order_head_ < out_of_order_.size() &&
           out_of_order_[out_of_order_head_] == cumulative_) {
      ++out_of_order_head_;
      ++cumulative_;
      bytes_ += payload;
    }
    if (out_of_order_head_ == out_of_order_.size()) {
      out_of_order_.clear();  // keeps the capacity.
      out_of_order_head_ = 0;
    }
  } else if (seq > cumulative_) {
    Buffer(seq);
  }

  net::Packet ack;
  ack.id = ids_.Next();
  ack.protocol = net::Protocol::kTcp;
  ack.src = src_;
  ack.dst = dst_;
  ack.flow = flow_;
  ack.size_bytes = ack_bytes_;
  ack.created_at = arrival;
  ack.tcp.ack = cumulative_;
  ack.tcp.is_ack = true;
  send_(std::move(ack));
}

void TcpRenoReceiver::Buffer(std::int64_t seq) {
  // The segments after a hole mostly arrive in order: an append.
  auto at = out_of_order_.end();
  if (out_of_order_head_ < out_of_order_.size() &&
      seq <= out_of_order_.back()) {
    at = std::lower_bound(out_of_order_.begin() + out_of_order_head_,
                          out_of_order_.end(), seq);
    if (*at == seq) return;  // a duplicate.
  }
  if (out_of_order_head_ > 0 &&
      out_of_order_.size() == out_of_order_.capacity()) {
    // Full, with a drained prefix: reuse that room instead of growing.
    const auto offset = at - out_of_order_.begin();
    const auto head = static_cast<std::ptrdiff_t>(out_of_order_head_);
    out_of_order_.erase(out_of_order_.begin(), out_of_order_.begin() + head);
    out_of_order_head_ = 0;
    at = out_of_order_.begin() + (offset - head);
  }
  out_of_order_.insert(at, seq);
}

}  // namespace kwikr::transport
