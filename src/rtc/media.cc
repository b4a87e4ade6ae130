#include "rtc/media.h"

#include <algorithm>
#include <utility>

namespace kwikr::rtc {

// The media timers hand PeriodicTimer `[this]` closures, stored in a
// sim::InlineTask: frame emission and feedback ticks never allocate. The
// assert pins the closure shape (one object pointer) to the inline buffer.
static_assert(sim::InlineTask::fits_inline<
              decltype([p = static_cast<MediaSender*>(nullptr)] {
                (void)p;
              })>);

MediaSender::MediaSender(sim::EventLoop& loop, net::PacketIdAllocator& ids,
                         Config config, net::SendFn send)
    : loop_(loop),
      ids_(ids),
      config_(config),
      send_(std::move(send)),
      timer_(loop, config.frame_interval, [this] { EmitFrame(); }),
      rate_bps_(config.start_rate_bps) {}

void MediaSender::Start() { timer_.Start(sim::Duration{0}); }

void MediaSender::Stop() { timer_.Stop(); }

void MediaSender::EmitFrame() {
  const double frame_s = sim::ToSeconds(config_.frame_interval);
  double budget =
      static_cast<double>(rate_bps_) / 8.0 * frame_s + carry_bytes_;
  // Emit at least one (possibly small) packet per frame so the receiver's
  // delay signal never starves, then fill the budget with full packets.
  do {
    const auto bytes = static_cast<std::int32_t>(std::clamp(
        budget, static_cast<double>(config_.min_packet_bytes),
        static_cast<double>(config_.max_packet_bytes)));
    net::Packet packet;
    packet.id = ids_.Next();
    packet.protocol = net::Protocol::kUdp;
    packet.src = config_.src;
    packet.dst = config_.dst;
    packet.tos = config_.tos;
    packet.flow = config_.flow;
    packet.size_bytes = bytes;
    packet.created_at = loop_.now();
    packet.udp.sequence = next_seq_++;
    packet.udp.sender_timestamp = loop_.now();
    bytes_sent_ += bytes;
    budget -= bytes;
    send_(std::move(packet));
  } while (budget >= config_.max_packet_bytes);
  carry_bytes_ = std::max(0.0, budget);
}

void MediaSender::OnFeedback(const net::Packet& packet, sim::Time arrival) {
  if (!packet.rtc_feedback.valid || packet.flow != config_.flow) return;
  const auto& fb = packet.rtc_feedback;
  if (fb.target_rate_bps > 0) rate_bps_ = fb.target_rate_bps;
  if (fb.echo_sender_ts > 0) {
    const sim::Duration rtt = arrival - fb.echo_sender_ts - fb.echo_hold;
    if (rtt >= 0) rtt_samples_.push_back(sim::ToSeconds(rtt));
  }
}

MediaReceiver::MediaReceiver(sim::EventLoop& loop, net::PacketIdAllocator& ids,
                             Config config, net::SendFn send_feedback)
    : loop_(loop),
      ids_(ids),
      config_(config),
      send_feedback_(std::move(send_feedback)),
      feedback_timer_(loop, config.feedback_interval,
                      [this] { SendFeedback(); }),
      estimator_(config.estimator),
      controller_(config.controller),
      gcc_(config.gcc) {}

void MediaReceiver::Start() { feedback_timer_.Start(); }

void MediaReceiver::Stop() { feedback_timer_.Stop(); }

void MediaReceiver::SetCrossTrafficProvider(
    BandwidthEstimator::CrossTrafficProvider p) {
  gcc_.SetCrossTrafficProvider(p);
  estimator_.SetCrossTrafficProvider(std::move(p));
}

void MediaReceiver::OnPathChange() {
  estimator_.OnPathChange();
  gcc_.OnPathChange();
  jitter_buffer_.OnPathChange();
}

std::int64_t MediaReceiver::target_rate_bps() const {
  return config_.adaptation == Adaptation::kDelayGradient
             ? gcc_.target_rate_bps()
             : controller_.target_rate_bps();
}

double MediaReceiver::loss_fraction() const {
  const std::uint64_t expected = received_ + lost_;
  if (expected == 0) return 0.0;
  return static_cast<double>(lost_) / static_cast<double>(expected);
}

void MediaReceiver::OnPacket(const net::Packet& packet, sim::Time arrival) {
  if (packet.protocol != net::Protocol::kUdp || packet.flow != config_.flow ||
      packet.rtc_feedback.valid) {
    return;
  }
  // Loss accounting via sequence gaps (late packets beyond the gap window
  // would be counted as lost, as a real-time receiver does).
  if (any_received_) {
    if (packet.udp.sequence > highest_seq_ + 1) {
      const std::uint64_t gap = packet.udp.sequence - highest_seq_ - 1;
      lost_ += gap;
      window_lost_ += gap;
    }
    highest_seq_ = std::max(highest_seq_, packet.udp.sequence);
  } else {
    highest_seq_ = packet.udp.sequence;
    any_received_ = true;
  }
  ++received_;
  ++window_received_;
  if (arrival - window_start_ >= sim::Millis(500)) {
    const std::uint64_t expected = window_received_ + window_lost_;
    window_loss_ = expected > 0 ? static_cast<double>(window_lost_) /
                                      static_cast<double>(expected)
                                : 0.0;
    window_start_ = arrival;
    window_received_ = 0;
    window_lost_ = 0;
  }
  bytes_ += packet.size_bytes;
  RollRateBuckets(arrival);
  bucket_bytes_ += packet.size_bytes;

  last_sender_ts_ = packet.udp.sender_timestamp;
  last_arrival_ = arrival;

  jitter_buffer_.OnPacket(packet.udp.sender_timestamp - config_.clock_offset,
                          arrival);
  if (config_.adaptation == Adaptation::kDelayGradient) {
    gcc_.OnPacket(packet.udp.sender_timestamp - config_.clock_offset,
                  arrival, packet.size_bytes);
  } else {
    estimator_.OnPacket(packet.udp.sender_timestamp - config_.clock_offset,
                        arrival, packet.size_bytes);
    controller_.Update(estimator_.bandwidth_bps(),
                       estimator_.self_queueing_delay_s(), window_loss_,
                       loop_.now());
  }
}

void MediaReceiver::RollRateBuckets(sim::Time arrival) {
  if (rate_series_.empty() && bucket_bytes_ == 0 && bucket_start_ == 0) {
    bucket_start_ = arrival - arrival % sim::kSecond;
  }
  while (arrival >= bucket_start_ + sim::kSecond) {
    rate_series_.push_back(static_cast<double>(bucket_bytes_) * 8.0 / 1000.0);
    bucket_bytes_ = 0;
    bucket_start_ += sim::kSecond;
  }
}

void MediaReceiver::SendFeedback() {
  net::Packet packet;
  packet.id = ids_.Next();
  packet.protocol = net::Protocol::kUdp;
  packet.src = config_.src;
  packet.dst = config_.dst;
  packet.flow = config_.flow;
  packet.size_bytes = config_.feedback_bytes;
  packet.created_at = loop_.now();
  packet.rtc_feedback.valid = true;
  packet.rtc_feedback.target_rate_bps = target_rate_bps();
  packet.rtc_feedback.echo_sender_ts = last_sender_ts_;
  packet.rtc_feedback.echo_hold =
      last_sender_ts_ > 0 ? loop_.now() - last_arrival_ : 0;
  packet.rtc_feedback.loss_fraction = loss_fraction();
  send_feedback_(std::move(packet));
}

}  // namespace kwikr::rtc
