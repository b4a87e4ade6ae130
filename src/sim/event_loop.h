#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_task.h"
#include "sim/time.h"

namespace kwikr::sim {

/// Handle to a scheduled event, usable for cancellation. Encodes the event's
/// scheduler slot and a per-slot generation counter; 0 is never a valid id.
using EventId = std::uint64_t;

/// Type tag given to events scheduled through the untyped overloads.
inline constexpr const char kDefaultEventType[] = "event";

/// A reserved position in the loop's (time, seq) order (EventLoop::TakeTicket).
/// `seq` 0 is never issued.
struct Ticket {
  std::uint32_t seq = 0;
};

/// Observer of event execution (the observability hook). Attach with
/// EventLoop::SetProbe; with no probe attached the loop's dispatch path
/// performs a single null check.
class EventLoopProbe {
 public:
  virtual ~EventLoopProbe() = default;

  /// Called after each event ran: the event's static type tag and the
  /// simulated time it ran at.
  virtual void OnExecuted(const char* type, Time at) = 0;
};

/// Single-threaded discrete-event loop.
///
/// Events run in (time, seq) order, where seq is the order they were
/// scheduled in: events at the same tick run in scheduling (FIFO) order,
/// which keeps back-to-back operations like the Ping-Pair's two sends
/// well-defined. An event scheduled for the current tick is no exception; it
/// takes the next sequence number and runs after every event already due.
///
/// The dispatch path is allocation- and hash-free:
///  - Callables are built directly inside InlineTask slots (Schedule* is a
///    template, so the closure is constructed in place — one copy from the
///    call site, none on dispatch) and invoked in place: the slot table is
///    chunked so slots never move, even when a callback schedules more
///    events mid-run.
///  - Ordering is a two-level hierarchical timer wheel for the near future
///    (L0: 256 buckets of 8.192 us, spanning 2.10 ms; L1: 64 buckets of
///    2.097 ms, horizon 134.2 ms) backed by a hand-rolled 4-ary min-heap of
///    small POD entries (time, sequence, slot) for the far-future overflow.
///    Wheel inserts are O(1) bucket pushes; a bucket is sorted only when
///    the clock reaches it (into the drain run), so dense timer populations
///    never pay per-event log-depth sifts. Sparse populations (fewer than
///    kWheelMinPopulation pending timers) skip the wheel entirely and use
///    the heap, whose shallow sifts win there. The dispatch order is the
///    exact (time, seq) total order either way — see DESIGN.md §14 and the
///    wheel differential test in tests/sim_test.cc.
///  - Cancellation is O(1) without hashing: EventId encodes (slot,
///    generation), and Cancel flips the slot's tombstone bit and releases
///    the captured state immediately. Tombstoned entries are reaped lazily
///    at the heap top / bucket drain, or in one O(n) compaction sweep when
///    they outnumber live events.
class EventLoop {
 private:
  template <typename F>
  using EnableIfCallable =
      std::enable_if_t<std::is_invocable_r_v<void, std::decay_t<F>&>>;

 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `at` (clamped to now()).
  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleAt(Time at, F&& fn) {
    return ScheduleAt(at, kDefaultEventType, std::forward<F>(fn));
  }

  /// Schedules `fn` after `delay` (clamped to non-negative).
  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleIn(Duration delay, F&& fn) {
    return ScheduleIn(delay, kDefaultEventType, std::forward<F>(fn));
  }

  /// Typed variants: `type` must be a string with static storage duration
  /// (a literal); it tags the event for the EventLoopProbe.
  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleAt(Time at, const char* type, F&& fn) {
    return Add(at, NextSeq(), type, /*rearmable=*/false, std::forward<F>(fn));
  }

  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleIn(Duration delay, const char* type, F&& fn) {
    return ScheduleAt(now_ + std::max<Duration>(delay, 0), type,
                      std::forward<F>(fn));
  }

  /// Schedules a *rearmable* event: from inside its own callback, the event
  /// may call RearmCurrentAt() to fire again, reusing its slot and callable —
  /// the closure is neither destroyed nor reconstructed between firings, and
  /// no slot churn (acquire/release, generation bump) happens per firing.
  /// Built for long burst chains (the wifi TXOP path fires the same
  /// continuation closure once per frame of a burst). The returned EventId
  /// stays valid across rearms: Cancel(id) cancels whichever firing is
  /// currently pending. A rearmable event that returns without rearming is
  /// released exactly like a normal event.
  ///
  /// Cost note: a rearmable firing invokes the callable non-destructively and
  /// pays a separate destroy when the chain ends, instead of the fused
  /// invoke+destroy — one extra indirect call per *chain*, amortized across
  /// its firings.
  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleRearmableAt(Time at, const char* type, F&& fn) {
    return Add(at, NextSeq(), type, /*rearmable=*/true, std::forward<F>(fn));
  }

  /// Re-arms the currently-executing rearmable event to fire again at `at`
  /// (clamped to now()). The firing takes its sequence number when the
  /// callback returns, so it orders like a ScheduleAt made at that moment.
  /// Must only be called from inside the callback of an event scheduled with
  /// ScheduleRearmableAt, at most once per firing.
  /// `type`, when non-null, retags the event for the probe from the next
  /// firing on (e.g. "wifi.tx_done" chains retag to "wifi.txop_burst").
  void RearmCurrentAt(Time at, const char* type = nullptr) {
    rearm_pending_ = true;
    rearm_at_ = at;
    rearm_seq_ = 0;
    rearm_type_ = type;
  }

  /// Reserves the tie-break position an event scheduled right now would get.
  /// An event armed later with the ticket (the Ticket overloads below) runs
  /// at its time in exactly the place among same-time events that an event
  /// scheduled at the moment of TakeTicket() would have taken: after every
  /// event scheduled before the ticket was taken, before every one scheduled
  /// after it. That lets one long-lived event stand in for a series of
  /// per-packet or per-ACK timers without moving a single (time, seq) tie
  /// (net::WiredLink's delivery line, TcpSender's RTO deadline; DESIGN.md
  /// §17).
  ///
  /// A ticket costs one sequence number and nothing else; an unused one is
  /// simply dropped. It keeps its place until the 32-bit sequence counter
  /// wraps (once per 2^32 - 1 events; RenumberSequences cannot see tickets
  /// held outside the loop), after which it still fires at its time but ties
  /// after the renumbered events.
  [[nodiscard]] Ticket TakeTicket() { return Ticket{NextSeq()}; }

  /// ScheduleRearmableAt with a reserved tie-break position (`at` is clamped
  /// to now(); even then the event orders by its ticket among the events of
  /// the current tick).
  template <typename F, typename = EnableIfCallable<F>>
  EventId ScheduleRearmableAt(Time at, Ticket ticket, const char* type,
                              F&& fn) {
    return Add(at, ticket.seq, type, /*rearmable=*/true, std::forward<F>(fn));
  }

  /// RearmCurrentAt with a reserved tie-break position (see TakeTicket).
  void RearmCurrentAt(Time at, Ticket ticket) {
    rearm_pending_ = true;
    rearm_at_ = at;
    rearm_seq_ = ticket.seq;
    rearm_type_ = nullptr;
  }

  /// Attaches (or with nullptr detaches) the execution probe.
  void SetProbe(EventLoopProbe* probe) { probe_ = probe; }
  [[nodiscard]] EventLoopProbe* probe() const { return probe_; }

  /// Cancels a pending event; returns false if it already ran / was
  /// cancelled / never existed. O(1): flips the slot's tombstone bit and
  /// releases the callable immediately (captured resources are freed at
  /// cancel time, not when the tombstone is reaped).
  bool Cancel(EventId id);

  /// Runs events until the queue is empty.
  void Run();

  /// Runs events with time <= deadline, then advances the clock to deadline.
  /// Cancelled events never count against the deadline check: the next LIVE
  /// event decides whether the loop keeps going.
  void RunUntil(Time deadline);

  /// Runs for `duration` past the current time.
  void RunFor(Duration duration);

  /// Executes at most one pending event; returns false if queue is empty.
  bool Step();

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed (for micro-benchmarks).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Cancelled-but-unreaped entries (introspection for tests).
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }

 private:
  friend struct EventLoopTestPeer;

  // Heap ordering key: (time, schedule sequence) — FIFO within a tick —
  // with the slot index packed into the same 16 bytes. Scheduled times are
  // clamped to now() >= 0, so `at` is non-negative and (time, seq, slot)
  // packs into one 128-bit unsigned integer that orders lexicographically
  // with a SINGLE compare (the naive two-field compare costs two
  // data-dependent, unpredictable branches per heap comparison). The slot
  // index riding in the low 32 bits never influences the order — the
  // sequence field is already unique among pending entries — but it shrinks
  // HeapEntry from 32 bytes (key + slot + alignment padding) to 16, which
  // halves the cache traffic of every sift: a 4-ary node's children span
  // one cache line instead of two.
  //
  // The sequence field is 32 bits wide; when it wraps (once per 2^32 - 1
  // schedules) RenumberSequences() reassigns dense sequence numbers to the
  // pending entries in FIFO order, preserving the total order exactly.
  struct HeapEntry {
    unsigned __int128 key;  // (time << 64) | (seq << 32) | slot.
    friend constexpr bool operator<(const HeapEntry& a, const HeapEntry& b) {
      return a.key < b.key;
    }
    friend constexpr bool operator>=(const HeapEntry& a, const HeapEntry& b) {
      return a.key >= b.key;
    }
  };
  static constexpr HeapEntry MakeEntry(Time at, std::uint32_t seq,
                                       std::uint32_t slot) {
    return HeapEntry{
        (static_cast<unsigned __int128>(static_cast<std::uint64_t>(at))
         << 64) |
        (static_cast<std::uint64_t>(seq) << 32) | slot};
  }
  static constexpr Time EntryTime(const HeapEntry& e) {
    return static_cast<Time>(static_cast<std::uint64_t>(e.key >> 64));
  }
  static constexpr std::uint32_t EntrySlot(const HeapEntry& e) {
    return static_cast<std::uint32_t>(e.key);
  }
  static constexpr HeapEntry WithSeq(const HeapEntry& e, std::uint32_t seq) {
    constexpr auto kSeqMask = static_cast<unsigned __int128>(0xFFFFFFFFull)
                              << 32;
    return HeapEntry{(e.key & ~kSeqMask) |
                     (static_cast<std::uint64_t>(seq) << 32)};
  }
  static_assert(sizeof(HeapEntry) == 16,
                "HeapEntry must stay 16 bytes: sift cost is dominated by "
                "cache traffic, and a 4-ary node's children must fit one "
                "cache line.");

  /// Slot table cell: owns the callable of one pending event. Slots are
  /// recycled through a free list; `generation` increments on every release
  /// so stale EventIds can never cancel the slot's next tenant.
  struct Slot {
    InlineTask fn;
    const char* type = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNilSlot;
    bool occupied = false;
    bool cancelled = false;
    /// Set by ScheduleRearmableAt: Dispatch invokes non-destructively and
    /// honours RearmCurrentAt from inside the callback.
    bool rearmable = false;
  };

  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;
  /// Slots live in fixed 256-cell chunks so their addresses are stable:
  /// Dispatch invokes the callable IN the slot, and a callback that
  /// schedules (growing the table) must not move the closure under its own
  /// feet.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  /// Compaction sweeps only once the heap is mostly garbage AND big enough
  /// that lazy top-reaping alone could retain a lot of memory.
  static constexpr std::size_t kCompactionMinEntries = 64;
  /// Below this many pending timers the wheel loses: with 1-4 entries the
  /// 4-ary heap's one-level sifts cost a few ns while every wheel pop pays
  /// a drain refill (bitmap scan + bucket drain + sort). InsertEntry routes
  /// sparse-regime timers to the heap; the split is invisible to dispatch
  /// order because PeekTimer always takes min(drain head, heap top) by the
  /// full (time, seq) key.
  static constexpr std::size_t kWheelMinPopulation = 64;

  static EventId MakeId(std::uint32_t slot, std::uint32_t generation) {
    // +1 keeps 0 (the conventional "no event" sentinel) unused.
    return (static_cast<EventId>(slot + 1) << 32) | generation;
  }

  [[nodiscard]] Slot& SlotAt(std::uint32_t index) {
    return chunks_[index >> kChunkShift][index & (kChunkSize - 1)];
  }

  std::uint32_t AcquireSlot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t index = free_head_;
      Slot& slot = SlotAt(index);
      free_head_ = slot.next_free;
      slot.next_free = kNilSlot;
      slot.occupied = true;
      slot.cancelled = false;
      return index;
    }
    if ((slot_count_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    const std::uint32_t index = slot_count_++;
    SlotAt(index).occupied = true;
    return index;
  }

  void ReleaseSlot(std::uint32_t index) {
    Slot& slot = SlotAt(index);
    // The callable is already gone on every release path: Dispatch fuses
    // invoke+destroy, and Cancel disposes at cancel time.
    slot.occupied = false;
    slot.cancelled = false;
    slot.rearmable = false;
    ++slot.generation;  // invalidates every EventId minted for this tenancy.
    slot.next_free = free_head_;
    free_head_ = index;
  }

  void SiftUp(std::size_t index) {
    const HeapEntry entry = heap_[index];
    while (index > 0) {
      const std::size_t parent = (index - 1) / 4;
      if (entry >= heap_[parent]) break;
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = entry;
  }

  void SiftDown(std::size_t index) {
    const std::size_t size = heap_.size();
    const HeapEntry entry = heap_[index];
    while (true) {
      const std::size_t first_child = index * 4 + 1;
      std::size_t best;
      if (first_child + 4 <= size) {
        // Full node: pick the min child with a branchless tournament. Which
        // child wins is data-dependent and essentially random, so the
        // compiler's conditional moves beat a compare-and-branch scan.
        const std::size_t b01 = heap_[first_child + 1] < heap_[first_child]
                                    ? first_child + 1
                                    : first_child;
        const std::size_t b23 = heap_[first_child + 3] < heap_[first_child + 2]
                                    ? first_child + 3
                                    : first_child + 2;
        best = heap_[b23] < heap_[b01] ? b23 : b01;
      } else {
        if (first_child >= size) break;
        best = first_child;
        for (std::size_t c = first_child + 1; c < size; ++c) {
          if (heap_[c] < heap_[best]) best = c;
        }
      }
      if (heap_[best] >= entry) break;
      heap_[index] = heap_[best];
      index = best;
    }
    heap_[index] = entry;
  }

  // ------------------------------------------------ hierarchical wheel ----
  // Level geometry: an L0 bucket spans 2^13 ns (8.192 us) and the 256-bucket
  // ring covers the next 2.10 ms; an L1 bucket spans 2^21 ns (2.097 ms) —
  // exactly 256 L0 ticks — and its 64-bucket ring pushes the wheel horizon
  // to 134.2 ms. Anything farther out overflows to the heap (and events
  // scheduled while beyond the horizon simply stay there: the dispatch path
  // always takes min(drain head, heap top), so the split is invisible).
  //
  // `scanned_tick_` is the wheel's scan position in L0 ticks: every L0
  // bucket entry has tick in (scanned_tick_, scanned_tick_ + 255], every L1
  // entry's window is in (scanned_tick_ >> 8, (scanned_tick_ >> 8) + 63],
  // and everything at or before the scan position lives in `drain_` — a
  // sorted run popped front to back (the bucket sort happens HERE, once the
  // clock actually needs the bucket, which is what makes inserts O(1)).
  // Late arrivals for an already-scanned tick are sorted-inserted into the
  // remaining drain run; keys are unique, so the (time, seq) order is the
  // exact heap order.
  static constexpr int kL0Shift = 13;
  static constexpr std::uint32_t kL0Buckets = 256;
  static constexpr int kL1Shift = 21;
  static constexpr std::uint32_t kL1Buckets = 64;
  static_assert(kL1Shift - kL0Shift == 8,
                "an L1 bucket must span exactly kL0Buckets L0 ticks — the "
                "cascade routes straight into the L0 ring");

  /// Issues the next sequence number, renumbering the pending entries first
  /// when the 32-bit counter is about to wrap.
  std::uint32_t NextSeq() {
    if (next_seq_ == kMaxSeq) RenumberSequences();
    return next_seq_++;
  }

  /// Builds `fn` in a fresh slot and enqueues it at (max(at, now_), seq).
  /// Hot: inlined into the Schedule* templates.
  template <typename F>
  EventId Add(Time at, std::uint32_t seq, const char* type, bool rearmable,
              F&& fn) {
    const std::uint32_t slot_index = AcquireSlot();
    Slot& slot = SlotAt(slot_index);
    slot.fn.Emplace(std::forward<F>(fn));
    slot.type = type;
    slot.rearmable = rearmable;
    InsertEntry(MakeEntry(std::max(at, now_), seq, slot_index));
    ++live_;
    return MakeId(slot_index, slot.generation);
  }

  /// Routes one pending timer entry to the drain run, a wheel bucket, or the
  /// overflow heap. The entry's time is >= now_; an entry for the current
  /// tick lands wherever its tick maps and pops in key order like any other.
  void InsertEntry(const HeapEntry entry) {
    const Time at = EntryTime(entry);
    if (TimerEntries() < kWheelMinPopulation) {
      // Sparse regime: see kWheelMinPopulation. The regimes mix freely —
      // entries already in the wheel stay there and drain in order
      // regardless of where new inserts land.
      heap_.push_back(entry);
      SiftUp(heap_.size() - 1);
      return;
    }
    // With the wheel fully idle the scan position can be resynced to the
    // clock for free (there is no bucket whose window mapping could break).
    // Forward resync keeps heap-driven quiet periods from pushing
    // near-future timers into the overflow heap. The BACKWARD resync
    // matters just as much: reap-walking a tail of cancelled far-future
    // guards (the RTO pattern at quiesce) parks the scan position way
    // ahead of the clock, and without the pull-back every timer of the
    // next activity phase would classify as a late arrival and
    // sorted-insert into one ever-growing drain run — O(run) memmove per
    // insert until the clock catches up with the parked scan.
    if (wheel_count_ == 0 && drain_head_ == drain_.size()) {
      scanned_tick_ = static_cast<std::uint64_t>(now_) >> kL0Shift;
    }
    const auto tick = static_cast<std::uint64_t>(at) >> kL0Shift;
    if (tick <= scanned_tick_) {
      // Already-scanned tick: join the sorted drain run. The search starts
      // at drain_head_, so the popped prefix is undisturbed (every popped
      // key has time <= now_ <= at; an entry for the current tick is placed
      // among the keys that have not run yet).
      const auto it = std::upper_bound(drain_.begin() + drain_head_,
                                       drain_.end(), entry);
      drain_.insert(it, entry);
    } else if (tick - scanned_tick_ <= kL0Buckets - 1) {
      const std::uint32_t b = tick & (kL0Buckets - 1);
      l0_[b].push_back(entry);
      l0_bits_[b >> 6] |= 1ull << (b & 63);
      ++wheel_count_;
    } else if ((tick >> (kL1Shift - kL0Shift)) -
                   (scanned_tick_ >> (kL1Shift - kL0Shift)) <=
               kL1Buckets - 1) {
      const std::uint32_t b =
          (tick >> (kL1Shift - kL0Shift)) & (kL1Buckets - 1);
      l1_[b].push_back(entry);
      l1_bits_ |= 1ull << b;
      ++wheel_count_;
    } else {
      heap_.push_back(entry);
      SiftUp(heap_.size() - 1);
    }
  }

  /// Refills the drain run from the wheel: advances the scan to the next
  /// occupied L0 bucket (cascading L1 windows as the scan crosses their
  /// boundaries) and sorts it. Returns false once the wheel is empty.
  bool RefillDrain();
  /// Drains L0 bucket `tick` into drain_ (reaping tombstones) and sorts.
  void DrainL0(std::uint64_t tick);
  /// Cascades L1 window `window` into the L0 ring / drain run.
  void CascadeL1(std::uint64_t window);
  /// Next occupied L0 tick after scanned_tick_ (circular bitmap scan).
  [[nodiscard]] bool FindNextL0(std::uint64_t* tick) const;
  /// Next occupied L1 window after scanned_tick_'s window.
  [[nodiscard]] bool FindNextL1(std::uint64_t* window) const;
  /// Minimal pending timer entry across drain run + overflow heap (refilling
  /// the drain from the wheel as needed) without removing it. The entry may
  /// be tombstoned — callers reap after PopTimer, as with the old heap top.
  bool PeekTimer(HeapEntry* out, bool* from_drain);
  void PopTimer(bool from_drain) {
    if (from_drain) {
      ++drain_head_;
    } else {
      PopRoot();
    }
  }
  /// Pending timer entries, live and tombstoned (compaction heuristics).
  [[nodiscard]] std::size_t TimerEntries() const {
    return heap_.size() + wheel_count_ + (drain_.size() - drain_head_);
  }

  /// Runs the earliest live event if it is due at or before `deadline`,
  /// reaping the cancelled entries ahead of it; returns false, with nothing
  /// run, once no live event is due. The one dispatch loop: Run, RunUntil
  /// and Step are short loops over it.
  bool RunNext(Time deadline);
  /// Removes the heap root: back entry to the front, then one sift down.
  /// Precondition: the heap is non-empty.
  void PopRoot();
  /// Runs the already-popped live event in slot `slot_index` at time `at`:
  /// advances the clock, invokes the callable in place (fused
  /// invoke+destroy), fires the probe, releases the slot. Force-inlined
  /// into RunNext: the out-of-line call was measurable at ~19M dispatches
  /// per fig10 run.
#if defined(__GNUC__)
  __attribute__((always_inline))
#endif
  void Dispatch(std::uint32_t slot_index, Time at);
  /// Removes every tombstoned entry and rebuilds the heap in O(n).
  void Compact();
  /// Reassigns dense sequence numbers to the pending entries (FIFO order
  /// preserved exactly) when the 32-bit sequence counter wraps.
  void RenumberSequences();

  static constexpr std::uint32_t kMaxSeq = 0xFFFFFFFFu;

  Time now_ = 0;
  std::uint32_t next_seq_ = 1;
  EventLoopProbe* probe_ = nullptr;
  std::uint64_t executed_ = 0;
  /// Far-future overflow, plus every pending timer in the sparse regime.
  std::vector<HeapEntry> heap_;
  // Wheel state — see the geometry comment above. Bucket vectors grow to
  // their high-water mark and are then reused forever (clear() keeps
  // capacity), so the steady state stays allocation-free.
  std::vector<HeapEntry> l0_[kL0Buckets];
  std::vector<HeapEntry> l1_[kL1Buckets];
  std::uint64_t l0_bits_[kL0Buckets / 64] = {};
  std::uint64_t l1_bits_ = 0;
  /// Sorted run of the entries at/before the scan position; popped
  /// [drain_head_, size) front to back.
  std::vector<HeapEntry> drain_;
  std::size_t drain_head_ = 0;
  std::uint64_t scanned_tick_ = 0;
  /// Entries (live + tombstoned) currently in l0_/l1_ buckets.
  std::size_t wheel_count_ = 0;
  /// RearmCurrentAt latch, consumed by Dispatch after a rearmable callback
  /// returns. Dispatch is not re-entrant (single-threaded loop, callbacks
  /// never run the loop recursively), so one latch suffices.
  bool rearm_pending_ = false;
  Time rearm_at_ = 0;
  std::uint32_t rearm_seq_ = 0;  ///< ticket of a ticketed rearm, else 0.
  const char* rearm_type_ = nullptr;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
};

/// Repeating timer built on EventLoop. Fires first after `period` (or a
/// custom initial delay) and then every `period` until stopped or destroyed.
/// The period must be positive: the constructor throws std::invalid_argument
/// otherwise, since a timer re-armed at its own tick never lets the clock
/// advance.
///
/// Callback contract: by the time `fn` runs, the NEXT firing is already
/// scheduled (rescheduling happens first so the cadence stays anchored even
/// if `fn` inspects the loop). Calling Stop() — directly or via the
/// destructor — from inside `fn` cancels that already-pending firing, so a
/// callback may halt or destroy its own timer. If the timer's owner is
/// destroyed WITHOUT destroying/stopping the timer, the pending firing's
/// `this` capture dangles — the timer must not outlive its callback's
/// captures.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop& loop, Duration period, InlineTask fn);
  ~PeriodicTimer();
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  /// Starts (or restarts) the timer; first firing after `initial_delay`.
  void Start(Duration initial_delay);
  void Start() { Start(period_); }
  void Stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void Fire();

  EventLoop& loop_;
  Duration period_;
  InlineTask fn_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace kwikr::sim
