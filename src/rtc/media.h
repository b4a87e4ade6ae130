#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.h"
#include "rtc/bandwidth_estimator.h"
#include "rtc/controller.h"
#include "rtc/gcc.h"
#include "rtc/jitter_buffer.h"
#include "sim/event_loop.h"
#include "sim/time.h"

namespace kwikr::rtc {

/// Paced real-time media sender (the remote Skype peer). Emits packets every
/// `frame_interval` sized to the current target rate; the target follows the
/// receiver's feedback reports. Also measures RTT from feedback echoes, the
/// metric of Figures 1(d) and 8(c).
class MediaSender {
 public:
  struct Config {
    net::Address src = 0;
    net::Address dst = 0;
    net::FlowId flow = net::kNoFlow;
    std::uint8_t tos = net::kTosBestEffort;  ///< media arrives BE at the AP.
    sim::Duration frame_interval = sim::Millis(20);
    std::int32_t max_packet_bytes = 1200;
    std::int32_t min_packet_bytes = 120;
    std::int64_t start_rate_bps = 500'000;
  };

  MediaSender(sim::EventLoop& loop, net::PacketIdAllocator& ids, Config config,
              net::SendFn send);

  void Start();
  void Stop();

  /// Processes a feedback report from the receiver.
  void OnFeedback(const net::Packet& packet, sim::Time arrival);

  [[nodiscard]] std::int64_t current_rate_bps() const { return rate_bps_; }
  [[nodiscard]] std::uint64_t packets_sent() const { return next_seq_; }
  [[nodiscard]] std::int64_t bytes_sent() const { return bytes_sent_; }
  /// RTT samples (seconds) measured from feedback echoes.
  [[nodiscard]] const std::vector<double>& rtt_samples_s() const {
    return rtt_samples_;
  }

 private:
  void EmitFrame();

  sim::EventLoop& loop_;
  net::PacketIdAllocator& ids_;
  Config config_;
  net::SendFn send_;
  sim::PeriodicTimer timer_;
  std::int64_t rate_bps_;
  std::uint64_t next_seq_ = 0;
  std::int64_t bytes_sent_ = 0;
  double carry_bytes_ = 0.0;
  std::vector<double> rtt_samples_;
};

/// Receiver half of the media flow: runs the bandwidth estimator and rate
/// controller, tracks loss and goodput, and reports the target rate back to
/// the sender on a fixed cadence.
class MediaReceiver {
 public:
  /// Which adaptation stack drives the reported target rate.
  enum class Adaptation {
    /// Skype-style: leaky-bucket UKF + conservative controller (default).
    kUkfConservative,
    /// GCC/WebRTC-style delay-gradient controller (Section 2 baseline).
    kDelayGradient,
  };

  struct Config {
    net::Address src = 0;  ///< this endpoint (feedback source).
    net::Address dst = 0;  ///< the media sender (feedback destination).
    net::FlowId flow = net::kNoFlow;
    std::int32_t feedback_bytes = 64;
    sim::Duration feedback_interval = sim::Millis(100);
    /// Clock offset added to the receiver's reading of sender timestamps —
    /// exercised by tests of minimum tracking.
    sim::Duration clock_offset = 0;
    Adaptation adaptation = Adaptation::kUkfConservative;
    LeakyBucketUkf::Config estimator;
    RateController::Config controller;
    GccController::Config gcc;
  };

  MediaReceiver(sim::EventLoop& loop, net::PacketIdAllocator& ids,
                Config config, net::SendFn send_feedback);

  void Start();
  void Stop();

  /// Feeds a received media packet (from the Wi-Fi station's receiver hook).
  void OnPacket(const net::Packet& packet, sim::Time arrival);

  /// Installs the Kwikr cross-traffic provider on the estimator.
  void SetCrossTrafficProvider(BandwidthEstimator::CrossTrafficProvider p);

  /// Resets path-learned state after a Wi-Fi handoff (wire to
  /// core::HandoffDetector::AddResetHook).
  void OnPathChange();

  [[nodiscard]] const BandwidthEstimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] const RateController& controller() const {
    return controller_;
  }
  [[nodiscard]] const GccController& gcc() const { return gcc_; }
  /// Playout-quality metric: the adaptive jitter buffer's verdicts.
  [[nodiscard]] const JitterBuffer& jitter_buffer() const {
    return jitter_buffer_;
  }

  /// The rate currently reported to the sender (whichever stack is active).
  [[nodiscard]] std::int64_t target_rate_bps() const;

  [[nodiscard]] std::uint64_t packets_received() const { return received_; }
  [[nodiscard]] std::uint64_t packets_lost() const { return lost_; }
  [[nodiscard]] std::int64_t bytes_received() const { return bytes_; }
  /// Loss fraction over the whole call so far.
  [[nodiscard]] double loss_fraction() const;
  /// Loss fraction over the last completed 500 ms window (the controller's
  /// TCP-style backoff signal).
  [[nodiscard]] double recent_loss_fraction() const { return window_loss_; }

  /// Goodput time series: received kbps in consecutive 1 s buckets.
  [[nodiscard]] const std::vector<double>& rate_series_kbps() const {
    return rate_series_;
  }

 private:
  void SendFeedback();
  void RollRateBuckets(sim::Time arrival);

  sim::EventLoop& loop_;
  net::PacketIdAllocator& ids_;
  Config config_;
  net::SendFn send_feedback_;
  sim::PeriodicTimer feedback_timer_;
  BandwidthEstimator estimator_;
  RateController controller_;
  GccController gcc_;
  JitterBuffer jitter_buffer_;

  std::uint64_t received_ = 0;
  std::uint64_t lost_ = 0;
  // Rolling loss window.
  sim::Time window_start_ = 0;
  std::uint64_t window_received_ = 0;
  std::uint64_t window_lost_ = 0;
  double window_loss_ = 0.0;
  std::int64_t bytes_ = 0;
  std::uint64_t highest_seq_ = 0;
  bool any_received_ = false;

  // Echo state for RTT measurement.
  sim::Time last_sender_ts_ = 0;
  sim::Time last_arrival_ = 0;

  // 1-second goodput buckets.
  std::vector<double> rate_series_;
  sim::Time bucket_start_ = 0;
  std::int64_t bucket_bytes_ = 0;
};

}  // namespace kwikr::rtc
