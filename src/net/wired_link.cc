#include "net/wired_link.h"

#include <algorithm>
#include <utility>

namespace kwikr::net {

WiredLink::WiredLink(sim::EventLoop& loop, Config config, Receiver receiver)
    : loop_(loop), config_(config), receiver_(receiver) {}

WiredLink::~WiredLink() {
  loop_.Cancel(serializer_);
  loop_.Cancel(line_event_);
  for (const Jittered& jittered : jittered_) loop_.Cancel(jittered.id);
}

void WiredLink::Send(Packet&& packet) {
  if (QueueFull()) {
    ++dropped_;
    return;
  }
  if (fault_hook_) {
    queue_.push_back(std::move(packet));
    if (serializer_ == 0) {
      serializer_ = loop_.ScheduleRearmableAt(
          BookSerializer(queue_.front()), "net.wire_tx",
          [this] { FinishSerialization(); });
    }
    return;
  }
  // No hook: nothing happens at the serialization end, so the packet goes
  // straight onto the line. Its ticket is taken now, not at the
  // serialization end; DESIGN.md §17 bounds what that can reorder.
  const sim::Time tx_end = BookSerializer(packet);
  ++launched_;
  Launch(std::move(packet), tx_end, loop_.TakeTicket());
}

void WiredLink::SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

sim::Time WiredLink::BookSerializer(const Packet& packet) {
  // One-entry memo: a link carries runs of one size (data segments one
  // way, ACKs the other), and the division is the costliest step here.
  if (packet.size_bytes != memo_size_bytes_) {
    memo_size_bytes_ = packet.size_bytes;
    memo_tx_time_ = sim::TransmissionTime(
        static_cast<std::int64_t>(packet.size_bytes) * 8, config_.rate_bps);
  }
  last_tx_end_ = std::max(loop_.now(), last_tx_end_) + memo_tx_time_;
  return last_tx_end_;
}

bool WiredLink::QueueFull() const {
  const std::size_t capacity = config_.queue_capacity_packets;
  if (queue_.size() >= capacity) return true;
  // tx_end never decreases along the line, so at least `room` line packets
  // are still serializing exactly when the room-th one from the back is:
  // O(1), where counting them would search a full queue on every drop.
  const std::size_t room = capacity - queue_.size();
  return line_.size() >= room &&
         line_.at(line_.size() - room).tx_end > loop_.now();
}

std::size_t WiredLink::Serializing() const {
  std::size_t n = 0;
  while (n < line_.size() &&
         line_.at(line_.size() - 1 - n).tx_end > loop_.now()) {
    ++n;
  }
  return n;
}

void WiredLink::Launch(Packet&& packet, sim::Time tx_end, sim::Ticket ticket) {
  const sim::Time arrive_at =
      tx_end + std::max<sim::Duration>(config_.propagation, 0);
  line_.emplace_back(std::move(packet), tx_end, arrive_at, ticket);
  if (line_event_ == 0) {
    line_event_ = loop_.ScheduleRearmableAt(arrive_at, ticket, "net.wire_prop",
                                            [this] { DeliverHead(); });
  }
}

void WiredLink::FinishSerialization() {
  // Runs at the head's serialization end, in FIFO order, so the hook's RNG
  // draws interleave with the rest of the simulation exactly as they would
  // with one serializer event per packet.
  const LinkFault fault = fault_hook_(queue_.front());
  const sim::Time now = loop_.now();
  if (fault.drop) {
    ++faulted_;
  } else if (fault.extra_delay > 0) {
    // A jittered packet cannot keep its place in the FIFO line; it takes a
    // one-off delivery event, later packets overtaking it.
    ++launched_;
    const sim::Duration delay = config_.propagation + fault.extra_delay;
    auto deliver = [this, packet = queue_.front()]() mutable {
      receiver_(std::move(packet));
    };
    static_assert(sim::InlineTask::fits_inline<decltype(deliver)>);
    std::erase_if(jittered_,
                  [now](const Jittered& j) { return j.arrive_at < now; });
    const sim::EventId id =
        loop_.ScheduleIn(delay, "net.wire_prop", std::move(deliver));
    jittered_.push_back(Jittered{now + delay, id});
  } else {
    ++launched_;
    Launch(std::move(queue_.front()), now, loop_.TakeTicket());
  }
  queue_.pop_front();
  if (queue_.empty()) {
    serializer_ = 0;
  } else {
    loop_.RearmCurrentAt(BookSerializer(queue_.front()));
  }
}

void WiredLink::DeliverHead() {
  // Move the packet out before the receiver runs: it may send on this link.
  Packet packet = line_.front().packet;
  line_.pop_front();
  if (line_.empty()) {
    line_event_ = 0;
  } else {
    loop_.RearmCurrentAt(line_.front().arrive_at, line_.front().ticket);
  }
  receiver_(std::move(packet));
}

}  // namespace kwikr::net
