#include "transport/token_bucket.h"

#include <algorithm>
#include <utility>

namespace kwikr::transport {

TokenBucket::TokenBucket(sim::EventLoop& loop, Config config,
                         net::SendFn forward)
    : loop_(loop),
      config_(config),
      forward_(std::move(forward)),
      tokens_bytes_(static_cast<double>(config.burst_bytes)),
      last_refill_(loop.now()) {}

void TokenBucket::Send(net::Packet&& packet) {
  if (config_.rate_bps <= 0) {
    Forward(std::move(packet));
    return;
  }
  Refill();
  if (queue_.empty() &&
      tokens_bytes_ >= static_cast<double>(packet.size_bytes)) {
    // Unqueued fast path: spend tokens directly. Same arithmetic as
    // push-then-Drain, but it also works with queue_capacity_packets == 0
    // (a pure policer), which previously dropped despite a full bucket.
    tokens_bytes_ -= static_cast<double>(packet.size_bytes);
    Forward(std::move(packet));
    return;
  }
  if (queue_.size() >= config_.queue_capacity_packets) {
    ++dropped_;
    return;
  }
  queue_.push_back(std::move(packet));
  Drain();
}

void TokenBucket::SetRate(std::int64_t rate_bps) {
  Refill();  // settle tokens at the old rate first.
  config_.rate_bps = rate_bps;
  if (rate_bps <= 0) {
    if (drain_event_ != 0) {
      loop_.Cancel(drain_event_);
      drain_event_ = 0;
    }
    while (!queue_.empty()) {
      Forward(std::move(queue_.front()));
      queue_.pop_front();
    }
    return;
  }
  Drain();
}

void TokenBucket::Refill() {
  const sim::Time now = loop_.now();
  if (config_.rate_bps > 0 && now > last_refill_) {
    tokens_bytes_ += static_cast<double>(config_.rate_bps) / 8.0 *
                     sim::ToSeconds(now - last_refill_);
    tokens_bytes_ =
        std::min(tokens_bytes_, static_cast<double>(config_.burst_bytes));
  }
  last_refill_ = now;
}

void TokenBucket::Drain() {
  Refill();
  while (!queue_.empty() &&
         tokens_bytes_ >= static_cast<double>(queue_.front().size_bytes)) {
    tokens_bytes_ -= static_cast<double>(queue_.front().size_bytes);
    Forward(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (queue_.empty() || drain_event_ != 0) return;
  if (static_cast<std::int64_t>(queue_.front().size_bytes) >
      config_.burst_bytes) {
    // Tokens cap at burst_bytes, so this head can never drain at the
    // current rate; a wake-up would just reschedule itself forever. The
    // packet waits for a SetRate (rate 0 flushes; a real rate re-Drains).
    return;
  }
  // Wake up when enough tokens have accrued for the head packet.
  const double deficit =
      static_cast<double>(queue_.front().size_bytes) - tokens_bytes_;
  const double seconds = deficit * 8.0 / static_cast<double>(config_.rate_bps);
  auto drain = [this] {
    drain_event_ = 0;
    Drain();
  };
  static_assert(sim::InlineTask::fits_inline<decltype(drain)>);
  drain_event_ = loop_.ScheduleIn(sim::FromSeconds(seconds) + 1,
                                  "net.token_drain", std::move(drain));
}

void TokenBucket::Forward(net::Packet&& packet) {
  ++forwarded_;
  forward_(std::move(packet));
}

}  // namespace kwikr::transport
