#include "wifi/channel.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace kwikr::wifi {

Channel::Channel(sim::EventLoop& loop, sim::Rng rng, PhyParams phy)
    : loop_(loop),
      rng_(rng),
      phy_(phy),
      edca_(phy.slot),
      airtime_cache_(phy_) {}

OwnerId Channel::RegisterOwner(DeliveryHandler on_delivery) {
  owners_.push_back(Owner{on_delivery, 0});
  return static_cast<OwnerId>(owners_.size() - 1);
}

ContenderId Channel::CreateContender(OwnerId owner, AccessCategory ac,
                                     EdcaParams params,
                                     std::size_t queue_capacity) {
  assert(owner < owners_.size());
  Contender c;
  c.owner = owner;
  c.ac = ac;
  c.params = params;
  c.queue = sim::FrameRing<Frame>(queue_capacity);
  contenders_.push_back(std::move(c));
  const ContenderId id =
      edca_.Add(phy_.Aifs(params), params.cw_min, params.cw_max);
  assert(id + 1 == contenders_.size());
  // Each contender appears at most once per arbitration round in these, so
  // contenders_.size() is a hard bound. Reserving here (setup time) keeps a
  // rare many-way tie late in a run from being the first to reach the
  // high-water mark — the steady state must never allocate (the invariant
  // bench/micro_channel enforces with its operator-new counter).
  winners_scratch_.reserve(contenders_.size());
  losers_scratch_.reserve(contenders_.size());
  in_flight_.reserve(contenders_.size());
  return id;
}

bool Channel::Enqueue(ContenderId id, Frame frame) {
  assert(id < contenders_.size());
  Contender& c = contenders_[id];
  if (!c.queue.push_back(std::move(frame))) {
    ++c.queue_drops;
    return false;
  }
  if (c.queue.size() == 1) {
    // Newly backlogged: join contention.
    c.attempts = 0;
    const bool idle = MediumIdle();
    edca_.Join(id, loop_.now(), idle);
    if (idle) ScheduleArbitration();
  }
  return true;
}

void Channel::SetFrameErrorModel(FrameErrorModel model) {
  error_model_ = model;
}

void Channel::SetDeliveryFaultHook(DeliveryFaultHook hook) {
  delivery_fault_hook_ = hook;
}

void Channel::SetDropHandler(DropHandler handler) { drop_handler_ = handler; }

void Channel::SetTxFeedback(ContenderId id, TxFeedback feedback) {
  assert(id < contenders_.size());
  contenders_[id].tx_feedback = feedback;
}

std::size_t Channel::QueueLength(ContenderId id) const {
  return contenders_[id].queue.size();
}

std::uint64_t Channel::Delivered(ContenderId id) const {
  return contenders_[id].delivered;
}

std::uint64_t Channel::QueueDrops(ContenderId id) const {
  return contenders_[id].queue_drops;
}

std::uint64_t Channel::RetryDrops(ContenderId id) const {
  return contenders_[id].retry_drops;
}

double Channel::BusyFraction() const {
  const sim::Time now = loop_.now();
  sim::Duration busy = busy_accum_;
  if (busy_) busy += now - busy_started_;
  if (now <= 0) return 0.0;
  return static_cast<double>(busy) / static_cast<double>(now);
}

bool Channel::MediumIdle() const { return !busy_; }

void Channel::BeginIdlePeriod() {
  busy_ = false;
  // One batched sweep restarts every backlogged countdown AND finds the
  // earliest candidate (draw order and result are exactly those of the old
  // per-contender restart-then-rescan code — see EdcaCore::BeginIdle).
  ArmArbitration(edca_.BeginIdle(loop_.now(), rng_));
}

void Channel::CancelArbitration() {
  if (arbitration_event_ != 0) {
    loop_.Cancel(arbitration_event_);
    arbitration_event_ = 0;
    scheduled_start_ = -1;
  }
}

void Channel::ScheduleArbitration() {
  if (edca_.backlog_live() == 0 || busy_) {
    CancelArbitration();
    return;
  }
  ArmArbitration(edca_.EarliestCandidate(rng_));
}

void Channel::ArmArbitration(sim::Time earliest) {
  if (earliest == EdcaCore::kNoCandidate) {
    CancelArbitration();
    return;
  }
  // A pending arbitration at the same tick is already correct: keep it
  // instead of paying a Cancel + reschedule (the common case when a new
  // contender joins with a later candidate time).
  if (arbitration_event_ != 0) {
    if (scheduled_start_ == earliest) return;
    loop_.Cancel(arbitration_event_);
  }
  scheduled_start_ = earliest;
  auto arbitrate = [this, earliest] {
    arbitration_event_ = 0;
    scheduled_start_ = -1;
    StartTransmissions(earliest);
  };
  static_assert(sim::InlineTask::fits_inline<decltype(arbitrate)>);
  arbitration_event_ =
      loop_.ScheduleAt(earliest, "wifi.arbitration", std::move(arbitrate));
}

void Channel::StartTransmissions(sim::Time start) {
  // One core sweep does both halves of the arbitration outcome: contenders
  // whose candidate time is exactly `start` win the medium; every other
  // counting contender freezes its backoff with the idle slots consumed so
  // far (a branchless column pass — see EdcaCore::Arbitrate). The
  // winner/loser sets live in member scratch vectors: after warm-up this
  // function performs no allocation at all (see bench/micro_channel).
  std::vector<ContenderId>& winners = winners_scratch_;
  winners.clear();
  edca_.Arbitrate(start, winners);
  if (winners.empty()) {
    ScheduleArbitration();
    return;
  }

  // Resolve internal (same-owner) virtual collisions: the highest access
  // category transmits; lower ones behave as if they collided.
  in_flight_.clear();
  std::vector<ContenderId>& virtual_losers = losers_scratch_;
  virtual_losers.clear();
  for (ContenderId id : winners) {
    const Contender& c = contenders_[id];
    bool dominated = false;
    for (ContenderId other : winners) {
      if (other == id) continue;
      const Contender& o = contenders_[other];
      if (o.owner == c.owner && Index(o.ac) > Index(c.ac)) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      virtual_losers.push_back(id);
    } else {
      in_flight_.push_back(id);
    }
  }
  for (ContenderId id : virtual_losers) HandleFailure(id);

  // Medium goes busy for the longest of the simultaneous transmissions.
  sim::Time end = start;
  for (ContenderId id : in_flight_) {
    Contender& c = contenders_[id];
    assert(!c.queue.empty());
    const Frame& f = c.queue.front();
    const sim::Duration airtime = FrameAirtimeCached(f);
    c.txop_used = airtime;  // a fresh medium win opens a new TXOP.
    end = std::max(end, start + airtime);
  }
  busy_ = true;
  busy_started_ = start;
  busy_until_ = end;

  // The transmitter set rides in in_flight_ (the medium is busy until
  // tx_done fires, so there is exactly one set in flight), and the event is
  // rearmable: TXOP continuations re-fire this same slot and closure (see
  // FinishTransmissions), so a whole burst costs one schedule. The closure
  // reads busy_until_ — updated per continuation — instead of capturing the
  // end time.
  auto tx_done = [this] { FinishTransmissions(busy_until_); };
  static_assert(sim::InlineTask::fits_inline<decltype(tx_done)>);
  loop_.ScheduleRearmableAt(end, "wifi.tx_done", std::move(tx_done));
}

void Channel::FinishTransmissions(sim::Time end) {
  busy_accum_ += end - busy_started_;

  bool continued = false;
  if (in_flight_.size() > 1) {
    ++collisions_;
    for (ContenderId id : in_flight_) HandleFailure(id);
  } else if (in_flight_.size() == 1) {
    const ContenderId id = in_flight_.front();
    Contender& c = contenders_[id];
    assert(!c.queue.empty());
    const Frame& f = c.queue.front();
    double error_prob = 0.0;
    if (error_model_) error_prob = error_model_(c.owner, f.dest, f);
    if (rng_.Bernoulli(error_prob)) {
      HandleFailure(id);
    } else {
      HandleSuccess(id, end);
      // TXOP continuation (802.11e): within the AC's TXOP limit, further
      // queued frames go out back-to-back without re-contending.
      if (!c.queue.empty() && c.params.txop_limit > 0) {
        const Frame& next = c.queue.front();
        const sim::Duration airtime = FrameAirtimeCached(next);
        if (c.txop_used + airtime <= c.params.txop_limit) {
          c.txop_used += airtime;
          ++txop_continuations_;
          busy_started_ = end;
          // Burst frames are SIFS-separated inside the TXOP. in_flight_
          // already holds exactly {id}; the medium stays busy — no idle
          // transition yet.
          busy_until_ = end + phy_.sifs + airtime;
          // Re-fire this very event (slot + closure reused, zero churn);
          // retag so the probe keeps the tx_done/txop_burst split.
          loop_.RearmCurrentAt(busy_until_, "wifi.txop_burst");
          continued = true;
        }
      }
    }
  }

  if (!continued) BeginIdlePeriod();
  // Deliver the staged frame inline, AFTER the medium-state transition
  // above: the owner hook observes the channel state a zero-delay delivery
  // event scheduled here would observe, and its reactions (Enqueue -> Join
  // -> arbitration re-arm, with their RNG draws) happen in the same relative
  // order.
  DrainStagedDelivery();
}

void Channel::DrainStagedDelivery() {
  if (!has_staged_) return;
  owners_[staged_.dest].on_delivery(std::move(staged_));
  has_staged_ = false;
}

void Channel::HandleFailure(ContenderId id) {
  Contender& c = contenders_[id];
  assert(!c.queue.empty());
  ++c.attempts;
  if (c.attempts >= phy_.retry_limit) {
    Frame dropped = std::move(c.queue.front());
    c.queue.pop_front();
    ++c.retry_drops;
    if (c.tx_feedback) c.tx_feedback(dropped, false, c.attempts);
    c.attempts = 0;
    edca_.OnRetryDrop(id);
    if (c.queue.empty()) edca_.Leave(id);
    if (drop_handler_) drop_handler_(dropped);
    return;
  }
  edca_.OnTxFailure(id);
}

void Channel::HandleSuccess(ContenderId id, sim::Time end) {
  Contender& c = contenders_[id];
  // The frame is stamped IN the ring head and moved straight into the
  // staging slot / delivery closure below — one 184-byte copy per delivered
  // frame, not two. Nothing between here and the pop re-enters this queue:
  // delivery runs after the medium-state transition (inline drain or
  // scheduled event), and the tx-feedback / fault hooks only update rate
  // state.
  Frame& frame = c.queue.front();
  ++c.delivered;

  Owner& owner = owners_[c.owner];
  frame.packet.mac.sequence = owner.next_sequence;
  owner.next_sequence = static_cast<std::uint16_t>(
      (owner.next_sequence + 1) & 0x0FFF);
  frame.packet.mac.transmissions = static_cast<std::uint8_t>(
      std::min(c.attempts + 1, 255));
  frame.packet.mac.retry = c.attempts > 0;
  frame.packet.mac.data_rate_bps = frame.phy_rate_bps;
  frame.packet.mac.access_category = static_cast<std::uint8_t>(Index(c.ac));

  if (c.tx_feedback) c.tx_feedback(frame, true, c.attempts + 1);
  c.attempts = 0;
  edca_.OnTxSuccess(id);

  const OwnerId dest = frame.dest;
  assert(dest < owners_.size());
  if (owners_[dest].on_delivery) {
    // Fault injection: the hook may swallow, delay (reorder) or duplicate
    // the delivery. The MAC bookkeeping above is untouched either way — a
    // faulted frame was still transmitted and acknowledged on the air.
    sim::Time deliver_at = end;
    int copies = 1;
    if (delivery_fault_hook_) {
      const DeliveryFault fault = delivery_fault_hook_(frame, end);
      if (fault.drop) {
        c.queue.pop_front();
        if (c.queue.empty()) edca_.Leave(id);
        return;
      }
      deliver_at = end + std::max<sim::Duration>(fault.delay, 0);
      copies = 1 + std::max(fault.duplicates, 0);
    }
    // Deliver at the end of the frame (now). The common (unfaulted,
    // undelayed) frame is staged for FinishTransmissions' tail, which hands
    // it to the owner right after the medium-state transition — one
    // dispatch for the whole frame cycle (see staged_).
    if (deliver_at == end && copies == 1) {
      assert(!has_staged_ && "a frame cycle stages at most one delivery");
      staged_ = std::move(frame);
      has_staged_ = true;
      c.queue.pop_front();
    } else {
      // Delayed or duplicated deliveries (fault hook) tolerate arbitrary
      // ordering, so they ride the Frame-by-value closure — the largest
      // event closure in the tree; InlineTask's buffer is sized to hold it,
      // and the static_assert keeps that true as Packet/Frame grow.
      for (int copy = 1; copy < copies; ++copy) {
        auto deliver_copy = [this, dest, frame]() mutable {
          owners_[dest].on_delivery(std::move(frame));
        };
        static_assert(sim::InlineTask::fits_inline<decltype(deliver_copy)>);
        loop_.ScheduleAt(deliver_at, "wifi.deliver", std::move(deliver_copy));
      }
      auto deliver = [this, dest, frame = std::move(frame)]() mutable {
        owners_[dest].on_delivery(std::move(frame));
      };
      static_assert(sim::InlineTask::fits_inline<decltype(deliver)>);
      c.queue.pop_front();
      loop_.ScheduleAt(deliver_at, "wifi.deliver", std::move(deliver));
    }
  } else {
    c.queue.pop_front();
  }
  if (c.queue.empty()) edca_.Leave(id);
}

}  // namespace kwikr::wifi
