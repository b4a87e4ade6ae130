#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/inline_task.h"
#include "sim/frame_ring.h"
#include "sim/function_ref.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "wifi/airtime_cache.h"
#include "wifi/edca.h"
#include "wifi/edca_core.h"

namespace kwikr::wifi {

/// Identifier of a MAC entity (an AP or a station). Every contender belongs
/// to one owner; an owner's access categories resolve internal (virtual)
/// collisions by priority as 802.11e specifies.
using OwnerId = std::uint32_t;

/// A queued MAC frame: an IP packet plus link-layer transmit parameters.
struct Frame {
  net::Packet packet;
  OwnerId dest = 0;               ///< receiving MAC entity.
  std::int64_t phy_rate_bps = 0;  ///< PHY data rate for this frame.
};

// Size guards for the two structs that ride the per-frame fast path. A Frame
// travels (a) by value inside "wifi.deliver" closures, which must stay within
// sim::InlineTask's inline buffer or every delivery allocates, and (b) as a
// sim::FrameRing cell, where growth copies cost sizeof(Frame) each. Growing
// net::Packet grows both. If this fires, either shrink the new field, move
// the payload behind an out-of-band side table, or consciously raise
// InlineTask::kInlineCapacity (and re-run bench/micro_channel to see what the
// extra bytes cost per frame hop).
static_assert(sizeof(Frame) + 3 * sizeof(void*) <=
                  sim::InlineTask::kInlineCapacity,
              "wifi::Frame grew past the budget for a [this, dest, frame] "
              "delivery closure in sim::InlineTask's inline storage — frame "
              "delivery would silently start heap-allocating.");
static_assert(std::is_trivially_copyable_v<Frame>,
              "wifi::Frame must stay trivially copyable: FrameRing growth "
              "and InlineTask dispatch both assume memcpy-grade moves.");

/// Pluggable per-attempt frame-error model (wireless noise, not collisions).
/// Returns the probability in [0,1] that a single transmission attempt from
/// `tx` to `rx` is corrupted. Used by the mobility scenario of Figure 4.
///
/// Like every Channel hook this is a non-owning kwikr::FunctionRef: the
/// callable behind it must outlive the channel's use of it (bind a member
/// function with FunctionRef::Member, or keep the lambda in a named owner —
/// see scenario::Testbed and faults::FaultInjector for the two idioms).
using FrameErrorModel =
    FunctionRef<double(OwnerId tx, OwnerId rx, const Frame& frame)>;

/// Shared 802.11 medium implementing EDCA contention.
///
/// All BSSs attached to the same Channel contend with each other — this is
/// how the paper's co-channel interference setting (two APs on one channel,
/// Figure 5) is modelled.
///
/// Mechanics (event-driven, no per-slot events):
///  * Every contender owns a FIFO of Frames and EDCA parameters.
///  * When the medium goes idle, each backlogged contender's next possible
///    transmit start is `ref + AIFS + backoff_slots x slot`; the earliest
///    wins. Exact ties transmit simultaneously and collide (unless they share
///    an owner, in which case the higher access category wins the internal
///    collision and the lower one backs off, per 802.11e).
///  * Losers freeze their remaining backoff (decremented by the idle slots
///    that elapsed) and resume after the next idle transition, as in DCF.
///  * Failed attempts (collision or frame error) double the contention
///    window, set the 802.11 retry bit, and drop the frame after
///    `retry_limit` attempts.
///
/// Fast path: hooks are devirtualized FunctionRefs (one null check + one
/// indirect call, no allocation), per-contender queues are sim::FrameRing
/// (index arithmetic, no deque segment churn), and the contention math —
/// countdown bases, backoff counters, the CW ladder — lives in wifi::EdcaCore
/// as struct-of-arrays columns swept in batched, largely branchless passes
/// with generation-stamped lazy backlog removal. Per-frame airtime goes
/// through a small shared (rate, size) -> duration table
/// (wifi::AirtimeCache), so the PHY airtime division runs once per frame
/// SHAPE per run, not per contender transition. TXOP bursts ride ONE
/// rearmable finish event (sim::EventLoop::RearmCurrentAt) and deliver each
/// frame's owner hook inline at its exact finish tick instead of scheduling
/// a per-frame delivery event. See DESIGN.md §11, §14 and §16.
class Channel {
 public:
  /// Delivery callback: frame arrived intact at its destination. MacInfo in
  /// `frame.packet.mac` is filled in (sequence number, retry, rate, AC).
  /// The frame is handed over by rvalue reference so the 184-byte Frame is
  /// not re-copied at every hand-off layer (hook thunk, member function) —
  /// a receiver that wants a copy takes the parameter by value.
  using DeliveryHandler = FunctionRef<void(Frame&& frame)>;
  /// A frame was abandoned after retry_limit failed attempts.
  using DropHandler = FunctionRef<void(const Frame& frame)>;

  Channel(sim::EventLoop& loop, sim::Rng rng, PhyParams phy = PhyParams{});

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Registers a MAC entity and its delivery handler; returns its OwnerId.
  /// The handler is non-owning — see FrameErrorModel's lifetime note.
  OwnerId RegisterOwner(DeliveryHandler on_delivery);

  /// Creates a transmit queue for (owner, ac) with the given EDCA parameters
  /// and queue capacity (frames). Drop-tail on overflow.
  ContenderId CreateContender(OwnerId owner, AccessCategory ac,
                              EdcaParams params,
                              std::size_t queue_capacity = 512);

  /// Enqueues a frame for transmission; returns false (and counts a drop) if
  /// the queue is full.
  bool Enqueue(ContenderId id, Frame frame);

  /// Installs the wireless frame-error model (default: no errors).
  void SetFrameErrorModel(FrameErrorModel model);

  /// Fault-injection verdict for one successfully received frame, consulted
  /// before its delivery is scheduled (see faults::FaultInjector). `delay`
  /// postpones this frame's delivery past later frames (reordering);
  /// `duplicates` delivers extra copies; `drop` swallows the frame after the
  /// MAC already counted it delivered (a vanishing-frame pathology).
  struct DeliveryFault {
    bool drop = false;
    int duplicates = 0;
    sim::Duration delay = 0;
  };
  using DeliveryFaultHook =
      FunctionRef<DeliveryFault(const Frame& frame, sim::Time at)>;
  /// Installs the delivery fault hook (default: none). The hook sees every
  /// frame that survived MAC contention, across all owners of this channel.
  void SetDeliveryFaultHook(DeliveryFaultHook hook);

  /// Optional handler invoked when a frame exhausts its retries.
  void SetDropHandler(DropHandler handler);

  /// Per-frame transmit feedback for one contender: `delivered` plus the
  /// link-layer attempts used. This is what rate-adaptation algorithms
  /// (wifi::ArfPolicy) consume.
  using TxFeedback =
      FunctionRef<void(const Frame& frame, bool delivered, int attempts)>;
  void SetTxFeedback(ContenderId id, TxFeedback feedback);

  /// Queue length of a contender (frames waiting, excluding in-flight).
  [[nodiscard]] std::size_t QueueLength(ContenderId id) const;
  /// Total frames ever enqueued minus delivered/dropped for this contender.
  [[nodiscard]] std::uint64_t Delivered(ContenderId id) const;
  [[nodiscard]] std::uint64_t QueueDrops(ContenderId id) const;
  [[nodiscard]] std::uint64_t RetryDrops(ContenderId id) const;

  /// Fraction of simulated time the medium was busy since construction.
  [[nodiscard]] double BusyFraction() const;

  [[nodiscard]] const PhyParams& phy() const { return phy_; }
  [[nodiscard]] sim::EventLoop& loop() { return loop_; }

  /// Total collisions (simultaneous-start events) observed.
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

  /// Frames sent as TXOP burst continuations (without re-contending).
  [[nodiscard]] std::uint64_t txop_continuations() const {
    return txop_continuations_;
  }

 private:
  struct Contender {
    OwnerId owner = 0;
    AccessCategory ac = AccessCategory::kBestEffort;
    EdcaParams params;
    sim::FrameRing<Frame> queue;
    int attempts = 0;        ///< attempts for the head frame.
    sim::Duration txop_used = 0;  ///< airtime consumed in the current TXOP.
    std::uint64_t delivered = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t retry_drops = 0;
    TxFeedback tx_feedback;
  };

  struct Owner {
    DeliveryHandler on_delivery;
    std::uint16_t next_sequence = 0;
  };

  [[nodiscard]] bool MediumIdle() const;
  /// Airtime of `f` through the shared shape cache.
  [[nodiscard]] sim::Duration FrameAirtimeCached(const Frame& f) {
    return airtime_cache_.Lookup(f.packet.size_bytes, f.phy_rate_bps);
  }
  /// Invokes the staged owner hook, if a frame is staged, inside the
  /// current dispatch.
  void DrainStagedDelivery();
  void BeginIdlePeriod();
  void ScheduleArbitration();
  /// Arms (or re-arms) the arbitration event for candidate time `earliest`
  /// (EdcaCore::kNoCandidate means "no candidate": any pending arbitration
  /// is cancelled).
  void ArmArbitration(sim::Time earliest);
  /// Cancels the pending arbitration event, if any.
  void CancelArbitration();
  void StartTransmissions(sim::Time start);
  void FinishTransmissions(sim::Time end);
  void HandleFailure(ContenderId id);
  void HandleSuccess(ContenderId id, sim::Time end);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  PhyParams phy_;
  EdcaCore edca_;  ///< the batched SoA contention machine.
  /// Shared (rate, size) -> airtime table; points at phy_, so it must be
  /// declared after it.
  AirtimeCache airtime_cache_;
  FrameErrorModel error_model_;
  DeliveryFaultHook delivery_fault_hook_;
  DropHandler drop_handler_;

  std::vector<Owner> owners_;
  std::vector<Contender> contenders_;

  bool busy_ = false;
  sim::Time busy_until_ = 0;
  sim::EventId arbitration_event_ = 0;
  sim::Time scheduled_start_ = -1;

  /// The single transmission set currently on the air (the medium is a
  /// mutex: once busy_, no further arbitration fires until tx_done). Kept as
  /// a member so the tx_done closure captures nothing but `this` and the
  /// end time — the per-transmission vector allocations this replaces were
  /// a top line in the fig10 profile.
  std::vector<ContenderId> in_flight_;
  /// The delivered frame awaiting its owner hook at the tail of the current
  /// FinishTransmissions. The common (unfaulted, undelayed) delivery is
  /// moved here instead of into a 200-byte Frame-by-value "wifi.deliver"
  /// closure, and DrainStagedDelivery hands it over inline — no event, no
  /// extra copy. One slot is enough: a FinishTransmissions resolves at most
  /// one successful frame (a collision delivers nothing) and drains it
  /// before returning, and owner hooks never re-enter FinishTransmissions;
  /// HandleSuccess asserts the slot is free. Delayed / duplicated deliveries
  /// (fault hook) ride by-value closures, which tolerate any ordering.
  Frame staged_;
  bool has_staged_ = false;
  // Scratch for StartTransmissions (not re-entrant; event-driven only).
  std::vector<ContenderId> winners_scratch_;
  std::vector<ContenderId> losers_scratch_;

  sim::Duration busy_accum_ = 0;
  sim::Time busy_started_ = 0;
  std::uint64_t collisions_ = 0;
  std::uint64_t txop_continuations_ = 0;
};

}  // namespace kwikr::wifi
