#include "sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace kwikr::sim {

bool EventLoop::FindNextL0(std::uint64_t* tick) const {
  // Circular scan of the 256-bit occupancy map starting just after the scan
  // position. Bucket index == tick & 255, and every occupied bucket's tick
  // is in (scanned_tick_, scanned_tick_ + 256] — 256 consecutive ticks in
  // 256 distinct buckets — so the circular distance from `start` recovers
  // the absolute tick unambiguously. (Inserts stop at scanned_tick_ + 255;
  // only an L1 cascade can park an entry at the full +256 distance, in its
  // window's last tick.)
  const std::uint32_t start = (scanned_tick_ + 1) & (kL0Buckets - 1);
  std::uint32_t word = start >> 6;
  for (std::uint32_t i = 0; i < 5; ++i, word = (word + 1) & 3) {
    std::uint64_t bits = l0_bits_[word];
    if (i == 0) bits &= ~std::uint64_t{0} << (start & 63);
    if (i == 4) {
      if ((start & 63) == 0) break;
      bits &= ~(~std::uint64_t{0} << (start & 63));
    }
    if (bits != 0) {
      const std::uint32_t pos = (word << 6) + std::countr_zero(bits);
      const std::uint32_t dist = (pos - start) & (kL0Buckets - 1);
      *tick = scanned_tick_ + 1 + dist;
      return true;
    }
  }
  return false;
}

bool EventLoop::FindNextL1(std::uint64_t* window) const {
  if (l1_bits_ == 0) return false;
  const std::uint64_t cur = scanned_tick_ >> (kL1Shift - kL0Shift);
  const std::uint32_t start = (cur + 1) & (kL1Buckets - 1);
  // Rotate so bit 0 means "window cur + 1"; countr_zero is the distance.
  const std::uint64_t rotated =
      (l1_bits_ >> start) | (start == 0 ? 0 : l1_bits_ << (64 - start));
  *window = cur + 1 + std::countr_zero(rotated);
  return true;
}

void EventLoop::DrainL0(std::uint64_t tick) {
  const std::uint32_t b = tick & (kL0Buckets - 1);
  std::vector<HeapEntry>& bucket = l0_[b];
  for (const HeapEntry& entry : bucket) {
    const std::uint32_t slot = EntrySlot(entry);
    if (SlotAt(slot).cancelled) {
      ReleaseSlot(slot);
      --tombstones_;
    } else {
      drain_.push_back(entry);
    }
  }
  wheel_count_ -= bucket.size();
  bucket.clear();
  l0_bits_[b >> 6] &= ~(1ull << (b & 63));
  scanned_tick_ = tick;
  std::sort(drain_.begin(), drain_.end());
}

void EventLoop::CascadeL1(std::uint64_t window) {
  // The scan stops just short of this L1 window's first tick, which makes
  // the whole window — ticks [window << 8, window << 8 + 255] — exactly the
  // L0 ring's addressable range (scanned_tick_, scanned_tick_ + 256], so
  // every entry cascades into L0 (merging with any entries already parked
  // there). The window's LAST tick sits a full ring turn ahead of the scan
  // position's bucket; that is still unambiguous — the circular scan maps
  // that bucket to distance 255, i.e. tick scanned_tick_ + 256 — because
  // the 256 addressable ticks occupy 256 distinct buckets.
  scanned_tick_ = (window << (kL1Shift - kL0Shift)) - 1;
  const std::uint32_t b = window & (kL1Buckets - 1);
  std::vector<HeapEntry>& bucket = l1_[b];
  for (const HeapEntry& entry : bucket) {
    const std::uint32_t slot = EntrySlot(entry);
    if (SlotAt(slot).cancelled) {
      ReleaseSlot(slot);
      --tombstones_;
      --wheel_count_;
      continue;
    }
    const auto tick = static_cast<std::uint64_t>(EntryTime(entry)) >> kL0Shift;
    assert(tick > scanned_tick_ && tick - scanned_tick_ <= kL0Buckets);
    const std::uint32_t lb = tick & (kL0Buckets - 1);
    l0_[lb].push_back(entry);
    l0_bits_[lb >> 6] |= 1ull << (lb & 63);
  }
  bucket.clear();
  l1_bits_ &= ~(1ull << b);
}

bool EventLoop::RefillDrain() {
  drain_.clear();
  drain_head_ = 0;
  while (wheel_count_ > 0) {
    // An L1 window must cascade before the scan passes its boundary — its
    // entries' ticks all lie inside the window — so an occupied L0 bucket
    // is only drained if it comes first.
    std::uint64_t t0 = 0;
    const bool has_l0 = FindNextL0(&t0);
    std::uint64_t w = 0;
    if (FindNextL1(&w)) {
      if (has_l0 && t0 < (w << (kL1Shift - kL0Shift))) {
        DrainL0(t0);
      } else {
        CascadeL1(w);
      }
    } else if (has_l0) {
      DrainL0(t0);
    } else {
      assert(false && "wheel_count_ > 0 with no occupied bucket");
      break;
    }
    if (!drain_.empty()) return true;
  }
  return false;
}

bool EventLoop::PeekTimer(HeapEntry* out, bool* from_drain) {
  if (drain_head_ == drain_.size()) {
    if (wheel_count_ > 0) {
      RefillDrain();
    } else if (!drain_.empty()) {
      drain_.clear();
      drain_head_ = 0;
    }
  }
  const bool has_drain = drain_head_ < drain_.size();
  if (has_drain &&
      (heap_.empty() || drain_[drain_head_] < heap_.front())) {
    *out = drain_[drain_head_];
    *from_drain = true;
    return true;
  }
  if (heap_.empty()) return false;
  *out = heap_.front();
  *from_drain = false;
  return true;
}

void EventLoop::PopRoot() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

// `inline` backs the always_inline attribute on the declaration; every
// caller lives in this translation unit.
inline void EventLoop::Dispatch(std::uint32_t slot_index, Time at) {
  // Invoke IN the slot (slots are address-stable, so a callback scheduling
  // more events cannot move the closure under its own feet). Marking the
  // slot unoccupied first makes Cancel of the now-running id fail, as it
  // always has; the slot cannot be recycled until it is released below.
  Slot& slot = SlotAt(slot_index);
  const Slot* next = nullptr;
  if (drain_head_ < drain_.size()) {
    next = &SlotAt(EntrySlot(drain_[drain_head_]));
  } else if (!heap_.empty()) {
    next = &SlotAt(EntrySlot(heap_.front()));
  }
  if (next != nullptr) {
    __builtin_prefetch(next);
    __builtin_prefetch(reinterpret_cast<const char*>(next) + 64);
    __builtin_prefetch(reinterpret_cast<const char*>(next) + 128);
  }
  assert(slot.occupied && !slot.cancelled);
  assert(!rearm_pending_);
  slot.occupied = false;
  --live_;
  now_ = at;
  ++executed_;
  // Rearmable events (ScheduleRearmableAt) are invoked NON-destructively so
  // a RearmCurrentAt from inside the callback can re-enqueue the same slot
  // and closure; everything else takes the fused invoke+destroy. The flag
  // rides the slot cache line already loaded above, so the extra branch is
  // one predicted-not-taken test on the common path.
  const bool rearmable = slot.rearmable;
  if (rearmable) {
    slot.fn();
  } else {
    slot.fn.InvokeAndDispose();
  }
  if (probe_ != nullptr) probe_->OnExecuted(slot.type, now_);
  if (rearmable) {
    if (rearm_pending_) {
      // Reuse the slot in place: the generation is untouched (the original
      // EventId keeps cancelling the chain), the closure is not re-emplaced,
      // and no freelist churn happens — a burst firing costs one timer
      // insert plus the dispatch itself.
      rearm_pending_ = false;
      slot.occupied = true;
      ++live_;
      if (rearm_type_ != nullptr) slot.type = rearm_type_;
      const std::uint32_t seq = rearm_seq_ != 0 ? rearm_seq_ : NextSeq();
      InsertEntry(MakeEntry(std::max(rearm_at_, now_), seq, slot_index));
      return;
    }
    slot.fn.Dispose();  // chain over: destroy separately (non-fused path).
  }
  ReleaseSlot(slot_index);
}

void EventLoop::Compact() {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    const std::uint32_t slot = EntrySlot(entry);
    if (SlotAt(slot).cancelled) {
      ReleaseSlot(slot);
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  // Floyd heap construction: O(n) instead of n pushes.
  for (std::size_t i = kept / 4 + 1; i-- > 0;) {
    if (i < kept) SiftDown(i);
  }
  // Wheel buckets: compact each in place (insertion order within a bucket
  // is irrelevant — the drain sort orders them) and refresh the occupancy
  // bits for buckets that empty out entirely.
  const auto sweep_bucket = [this](std::vector<HeapEntry>& bucket) {
    std::size_t out = 0;
    for (const HeapEntry& entry : bucket) {
      const std::uint32_t slot = EntrySlot(entry);
      if (SlotAt(slot).cancelled) {
        ReleaseSlot(slot);
        --wheel_count_;
      } else {
        bucket[out++] = entry;
      }
    }
    bucket.resize(out);
    return out;
  };
  for (std::uint32_t b = 0; b < kL0Buckets; ++b) {
    if (!l0_[b].empty() && sweep_bucket(l0_[b]) == 0) {
      l0_bits_[b >> 6] &= ~(1ull << (b & 63));
    }
  }
  for (std::uint32_t b = 0; b < kL1Buckets; ++b) {
    if (!l1_[b].empty() && sweep_bucket(l1_[b]) == 0) {
      l1_bits_ &= ~(1ull << b);
    }
  }
  // Drain run: keep the live suffix, order preserved, head rewound to 0.
  std::size_t drain_kept = 0;
  for (std::size_t i = drain_head_; i < drain_.size(); ++i) {
    const std::uint32_t slot = EntrySlot(drain_[i]);
    if (SlotAt(slot).cancelled) {
      ReleaseSlot(slot);
    } else {
      drain_[drain_kept++] = drain_[i];
    }
  }
  drain_.resize(drain_kept);
  drain_head_ = 0;
  tombstones_ = 0;
}

bool EventLoop::Cancel(EventId id) {
  const std::uint64_t slot_plus_one = id >> 32;
  if (slot_plus_one == 0 || slot_plus_one > slot_count_) return false;
  const auto slot_index = static_cast<std::uint32_t>(slot_plus_one - 1);
  Slot& slot = SlotAt(slot_index);
  if (!slot.occupied || slot.cancelled ||
      slot.generation != static_cast<std::uint32_t>(id)) {
    return false;
  }
  slot.cancelled = true;
  slot.fn.Dispose();  // release captures now, not at reap time.
  ++tombstones_;
  --live_;
  // Reap tombstones in bulk once they are three quarters of the pending
  // timer population; below the size floor, lazy reaping at the heap top /
  // bucket drain is cheaper than a sweep. (The old 1/2 threshold swept ~20k
  // times per fig10 run; each tombstone the sweep saves would otherwise
  // cost one pop+sift, so sweeping is only worth it once garbage strongly
  // dominates.)
  const std::size_t timer_entries = TimerEntries();
  if (timer_entries >= kCompactionMinEntries &&
      tombstones_ * 4 > timer_entries * 3) {
    Compact();
  }
  return true;
}

bool EventLoop::RunNext(Time deadline) {
  // Cancelled heads are reaped before the deadline check, so a tombstone
  // can neither satisfy nor fail it: only the earliest LIVE event decides.
  // The wheel may drain/cascade past the deadline while peeking, which is
  // harmless: drained entries stay pending in the sorted run.
  HeapEntry top;
  bool from_drain = false;
  while (PeekTimer(&top, &from_drain)) {
    const std::uint32_t slot_index = EntrySlot(top);
    if (SlotAt(slot_index).cancelled) {
      PopTimer(from_drain);
      ReleaseSlot(slot_index);
      --tombstones_;
      continue;
    }
    if (EntryTime(top) > deadline) return false;
    PopTimer(from_drain);
    Dispatch(slot_index, EntryTime(top));
    return true;
  }
  return false;
}

void EventLoop::RenumberSequences() {
  // The 32-bit sequence counter wrapped (once per 2^32 - 1 schedules).
  // Every pending timer entry — heap, wheel buckets, drain run — is
  // gathered into the heap vector, sorted by full key (which preserves the
  // relative FIFO order exactly), and renumbered densely. A sorted array
  // satisfies the heap property, so the population restarts heap-resident
  // and the wheel refills naturally from future schedules; at once per
  // 2^32 - 1 schedules the rebuild cost is irrelevant. The pending count is
  // < 2^32 always (slot indices are 32-bit), so the dense numbering cannot
  // itself wrap.
  for (auto& bucket : l0_) {
    heap_.insert(heap_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  for (auto& bucket : l1_) {
    heap_.insert(heap_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  heap_.insert(heap_.end(), drain_.begin() + drain_head_, drain_.end());
  drain_.clear();
  drain_head_ = 0;
  for (std::uint64_t& word : l0_bits_) word = 0;
  l1_bits_ = 0;
  wheel_count_ = 0;
  std::sort(heap_.begin(), heap_.end());
  std::uint32_t seq = 1;
  for (HeapEntry& entry : heap_) entry = WithSeq(entry, seq++);
  next_seq_ = seq;
}

void EventLoop::Run() {
  while (RunNext(std::numeric_limits<Time>::max())) {
  }
}

void EventLoop::RunUntil(Time deadline) {
  while (RunNext(deadline)) {
  }
  now_ = std::max(now_, deadline);
}

void EventLoop::RunFor(Duration duration) { RunUntil(now_ + duration); }

bool EventLoop::Step() { return RunNext(std::numeric_limits<Time>::max()); }

// -------------------------------------------------------- periodic timer ----

PeriodicTimer::PeriodicTimer(EventLoop& loop, Duration period, InlineTask fn)
    : loop_(loop), period_(period), fn_(std::move(fn)) {
  if (period <= 0) {
    throw std::invalid_argument("sim::PeriodicTimer: period must be positive");
  }
}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start(Duration initial_delay) {
  Stop();
  running_ = true;
  pending_ = loop_.ScheduleIn(initial_delay, "timer", [this] { Fire(); });
}

void PeriodicTimer::Stop() {
  if (pending_ != 0) {
    loop_.Cancel(pending_);
    pending_ = 0;
  }
  running_ = false;
}

void PeriodicTimer::Fire() {
  // Reschedule BEFORE invoking so the cadence is anchored to the tick and
  // the callback observes a consistent "next firing pending" state; see the
  // class comment for the Stop()/destruction-from-callback contract. The
  // callback runs last — if it destroys this timer, nothing here touches
  // `this` afterwards.
  pending_ = loop_.ScheduleIn(period_, "timer", [this] { Fire(); });
  fn_();
}

}  // namespace kwikr::sim
