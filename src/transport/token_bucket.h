#pragma once

#include <cstdint>
#include <deque>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace kwikr::transport {

/// Token-bucket rate limiter with a bounded FIFO backlog, matching the
/// paper's self-congestion experiment ("bandwidth was artificially throttled
/// mid-stream using a token bucket filter", Section 8.3 / Figure 9).
///
/// Packets that arrive when the bucket is empty queue (adding delay); when
/// the backlog is full they are dropped (adding loss). `SetRate` changes the
/// drain rate mid-simulation; rate 0 disables shaping entirely (packets pass
/// through unconditionally).
class TokenBucket {
 public:
  struct Config {
    std::int64_t rate_bps = 0;           ///< 0 = unshaped passthrough.
    std::int64_t burst_bytes = 15'000;
    std::size_t queue_capacity_packets = 100;
  };

  /// `forward` gets a queued packet by reference to its backlog cell, so it
  /// must not send into this same bucket.
  TokenBucket(sim::EventLoop& loop, Config config, net::SendFn forward);

  TokenBucket(const TokenBucket&) = delete;
  TokenBucket& operator=(const TokenBucket&) = delete;

  /// Forwards the packet now, queues it for tokens, or drops it when the
  /// backlog is full.
  void Send(net::Packet&& packet);

  /// Changes the shaping rate; 0 disables shaping and flushes the backlog.
  void SetRate(std::int64_t rate_bps);

  [[nodiscard]] std::int64_t rate_bps() const { return config_.rate_bps; }
  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }

 private:
  void Refill();
  void Drain();
  void Forward(net::Packet&& packet);

  sim::EventLoop& loop_;
  Config config_;
  net::SendFn forward_;
  std::deque<net::Packet> queue_;
  double tokens_bytes_;
  sim::Time last_refill_ = 0;
  sim::EventId drain_event_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t forwarded_ = 0;
};

}  // namespace kwikr::transport
