#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/inline_task.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace kwikr::sim {

/// White-box access for the generation-wraparound tests: lets a test place a
/// slot's generation counter at the wrap boundary without 2^32 schedules.
struct EventLoopTestPeer {
  static void SetSlotGeneration(EventLoop& loop, std::uint32_t slot,
                                std::uint32_t generation) {
    loop.SlotAt(slot).generation = generation;
  }
  static std::uint32_t SlotOfId(EventId id) {
    return static_cast<std::uint32_t>((id >> 32) - 1);
  }
  static std::uint32_t GenerationOfId(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
};

namespace {

// ---------------------------------------------------------------- Time ----

TEST(Time, UnitConversions) {
  EXPECT_EQ(Micros(1), 1'000);
  EXPECT_EQ(Millis(1), 1'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(ToMillis(Micros(1500)), 1.5);
  EXPECT_DOUBLE_EQ(ToMicros(Nanos(2500)), 2.5);
}

TEST(Time, FromSecondsRoundTrips) {
  EXPECT_EQ(FromSeconds(0.25), Millis(250));
  EXPECT_EQ(FromSeconds(1e-6), Micros(1));
}

TEST(Time, TransmissionTimeBasics) {
  // 8000 bits at 1 Mbps = 8 ms.
  EXPECT_EQ(TransmissionTime(8000, 1'000'000), Millis(8));
  // Rounds up to a whole tick.
  EXPECT_EQ(TransmissionTime(1, 1'000'000'000), 1);
  EXPECT_EQ(TransmissionTime(100, 0), 0);
}

TEST(Time, TransmissionTimeLargeValuesDontOverflow) {
  // 1 GB at 1 kbps: ~8e12 ms — fits comfortably via the 128-bit intermediate.
  const Duration d = TransmissionTime(8'000'000'000LL, 1'000);
  EXPECT_EQ(d, Seconds(8'000'000));
}

// ----------------------------------------------------------- EventLoop ----

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAt(Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Millis(20), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), Millis(30));
}

TEST(EventLoop, SameTickRunsInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ScheduleInIsRelative) {
  EventLoop loop;
  Time fired_at = -1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleIn(Millis(5), [&] { fired_at = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, Millis(15));
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop;
  Time fired_at = -1;
  loop.ScheduleAt(Millis(10), [&] {
    loop.ScheduleAt(Millis(1), [&] { fired_at = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired_at, Millis(10));
}

TEST(EventLoop, CascadeParksEntryAtFullWindowDistance) {
  // Regression: an L1 cascade can legally park an entry a full L0-ring turn
  // (256 ticks) ahead of the scan position — the last tick of the cascaded
  // window when the scan sits just before the window boundary. The wheel's
  // debug assert used to reject that distance and abort. L0 ticks are
  // 2^13 ns wide and an L1 window spans 256 of them, so an event in tick
  // 255 followed by one in tick 511 reproduces the exact geometry.
  constexpr Time kL0Tick = 1 << 13;
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(255 * kL0Tick, [&] { order.push_back(1); });
  loop.ScheduleAt(511 * kL0Tick, [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), 511 * kL0Tick);
}

TEST(EventLoop, CascadeBoundaryOffsetsDispatchInOrder) {
  // Brute sweep of every pairwise geometry around the L0-ring boundary: a
  // first event pins the scan position, a second lands at distances that
  // straddle one and two full ring turns from it.
  constexpr Time kL0Tick = 1 << 13;
  for (std::int64_t first : {254, 255, 256, 257}) {
    for (std::int64_t delta : {1, 255, 256, 257, 511, 512, 513}) {
      EventLoop loop;
      std::vector<std::int64_t> order;
      loop.ScheduleAt(first * kL0Tick, [&] { order.push_back(first); });
      loop.ScheduleAt((first + delta) * kL0Tick,
                      [&] { order.push_back(first + delta); });
      loop.Run();
      EXPECT_EQ(order, (std::vector<std::int64_t>{first, first + delta}))
          << "first " << first << " delta " << delta;
    }
  }
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelOfExecutedEventFails) {
  EventLoop loop;
  const EventId id = loop.ScheduleAt(Millis(1), [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, DoubleCancelFails) {
  EventLoop loop;
  const EventId id = loop.ScheduleAt(Millis(1), [] {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, CancelUnknownIdFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(12345));
  EXPECT_FALSE(loop.Cancel(0));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(Millis(10), [&] { ++count; });
  loop.ScheduleAt(Millis(20), [&] { ++count; });
  loop.ScheduleAt(Millis(30), [&] { ++count; });
  loop.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), Millis(20));
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, RunUntilAdvancesClockWithoutEvents) {
  EventLoop loop;
  loop.RunUntil(Seconds(5));
  EXPECT_EQ(loop.now(), Seconds(5));
}

TEST(EventLoop, RunForIsRelative) {
  EventLoop loop;
  loop.RunUntil(Millis(10));
  loop.RunFor(Millis(10));
  EXPECT_EQ(loop.now(), Millis(20));
}

TEST(EventLoop, PendingTracksLiveEvents) {
  EventLoop loop;
  const EventId a = loop.ScheduleAt(Millis(1), [] {});
  loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending(), 1u);
  loop.Run();
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, StepExecutesOneEvent) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(Millis(1), [&] { ++count; });
  loop.ScheduleAt(Millis(2), [&] { ++count; });
  EXPECT_TRUE(loop.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(loop.Step());
  EXPECT_FALSE(loop.Step());
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) loop.ScheduleIn(Millis(1), recurse);
  };
  loop.ScheduleIn(Millis(1), recurse);
  loop.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.now(), Millis(10));
}

TEST(EventLoop, ExecutedCounterCounts) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.ScheduleIn(i, [] {});
  loop.Run();
  EXPECT_EQ(loop.executed(), 7u);
}

// -------------------------------------------------------- PeriodicTimer ----

TEST(PeriodicTimer, FiresAtFixedCadence) {
  EventLoop loop;
  std::vector<Time> fires;
  PeriodicTimer timer(loop, Millis(10), [&] { fires.push_back(loop.now()); });
  timer.Start();
  loop.RunUntil(Millis(35));
  EXPECT_EQ(fires, (std::vector<Time>{Millis(10), Millis(20), Millis(30)}));
}

TEST(PeriodicTimer, CustomInitialDelay) {
  EventLoop loop;
  std::vector<Time> fires;
  PeriodicTimer timer(loop, Millis(10), [&] { fires.push_back(loop.now()); });
  timer.Start(Duration{0});
  loop.RunUntil(Millis(25));
  EXPECT_EQ(fires, (std::vector<Time>{0, Millis(10), Millis(20)}));
}

TEST(PeriodicTimer, StopHaltsFiring) {
  EventLoop loop;
  int count = 0;
  PeriodicTimer timer(loop, Millis(10), [&] { ++count; });
  timer.Start();
  loop.ScheduleAt(Millis(25), [&] { timer.Stop(); });
  loop.RunUntil(Millis(100));
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, RestartResets) {
  EventLoop loop;
  int count = 0;
  PeriodicTimer timer(loop, Millis(10), [&] { ++count; });
  timer.Start();
  loop.RunUntil(Millis(15));
  timer.Start();  // restart at t=15
  loop.RunUntil(Millis(34));
  EXPECT_EQ(count, 2);  // t=10 and t=25.
}

TEST(PeriodicTimer, DestructorCancels) {
  EventLoop loop;
  int count = 0;
  {
    PeriodicTimer timer(loop, Millis(10), [&] { ++count; });
    timer.Start();
  }
  loop.RunUntil(Millis(100));
  EXPECT_EQ(count, 0);
}

// Contract regression: Fire() reschedules before invoking the callback, so a
// callback that stops its own timer must also cancel that already-pending
// next firing — otherwise "Stop" would still deliver one more tick.
TEST(PeriodicTimer, StopFromInsideCallbackCancelsRescheduledFiring) {
  EventLoop loop;
  int count = 0;
  PeriodicTimer timer(loop, Millis(10), [&] {
    ++count;
    timer.Stop();
  });
  timer.Start();
  loop.RunUntil(Millis(200));
  EXPECT_EQ(count, 1);
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(loop.pending(), 0u);  // the rescheduled firing is gone, not live.
}

TEST(PeriodicTimer, RestartFromInsideCallbackKeepsFiring) {
  EventLoop loop;
  std::vector<Time> fires;
  PeriodicTimer timer(loop, Millis(10), [&] {
    fires.push_back(loop.now());
    if (fires.size() == 1) timer.Start(Millis(5));  // re-anchor mid-stream.
  });
  timer.Start();
  loop.RunUntil(Millis(30));
  EXPECT_EQ(fires, (std::vector<Time>{Millis(10), Millis(15), Millis(25)}));
}

// ------------------------------------------------- scheduler internals ----

// Regression for the RunUntil deadline overrun: with a cancelled event at
// the heap top, the old `top().at <= deadline` check inspected the cancelled
// entry and then executed the NEXT event even when it lay past the deadline.
TEST(EventLoop, RunUntilIgnoresCancelledHeadAtDeadline) {
  EventLoop loop;
  int ran = 0;
  const EventId head = loop.ScheduleAt(Millis(10), [&] { ++ran; });
  loop.ScheduleAt(Millis(30), [&] { ++ran; });
  ASSERT_TRUE(loop.Cancel(head));
  loop.RunUntil(Millis(20));
  EXPECT_EQ(ran, 0);  // nothing past the deadline may run.
  EXPECT_EQ(loop.now(), Millis(20));
  EXPECT_EQ(loop.pending(), 1u);
  loop.RunUntil(Millis(30));
  EXPECT_EQ(ran, 1);
}

TEST(EventLoop, RunUntilWithOnlyCancelledEventsAdvancesClock) {
  EventLoop loop;
  const EventId a = loop.ScheduleAt(Millis(5), [] {});
  const EventId b = loop.ScheduleAt(Millis(6), [] {});
  loop.Cancel(a);
  loop.Cancel(b);
  loop.RunUntil(Millis(50));
  EXPECT_EQ(loop.now(), Millis(50));
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.executed(), 0u);
}

TEST(EventLoop, CompactionBoundsTombstonesUnderCancelChurn) {
  EventLoop loop;
  std::vector<EventId> ids;
  ids.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(loop.ScheduleAt(Millis(i + 1), [] {}));
  }
  // Cancel 900 events spread across the heap. Without compaction the heap
  // would carry all 900 tombstones until they surface at the top.
  int cancelled = 0;
  for (std::size_t i = 0; i < ids.size() && cancelled < 900; i += 1) {
    if (i % 10 != 9) {  // skip every 10th to interleave live survivors.
      ASSERT_TRUE(loop.Cancel(ids[i]));
      ++cancelled;
    }
  }
  EXPECT_EQ(loop.pending(), 100u);
  // The sweep fires once tombstones exceed three quarters of the heap
  // (below that, lazy top-reaping is cheaper than a sweep — see
  // EventLoop::Cancel), so the steady state can never hold the full cancel
  // count.
  EXPECT_LT(loop.tombstones(), 300u);
  int ran = 0;
  loop.SetProbe(nullptr);
  loop.Run();
  EXPECT_EQ(loop.executed(), 100u);
  EXPECT_EQ(loop.tombstones(), 0u);
  (void)ran;
}

TEST(EventLoop, CancelChurnPreservesFifoOfSurvivors) {
  EventLoop loop;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(loop.ScheduleAt(Millis(7), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < 200; i += 2) loop.Cancel(ids[i]);
  loop.Run();
  ASSERT_EQ(order.size(), 100u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventLoop, SlotReuseInvalidatesOldIds) {
  EventLoop loop;
  const EventId first = loop.ScheduleAt(Millis(1), [] {});
  ASSERT_TRUE(loop.Cancel(first));
  loop.Run();  // reaps the tombstone, which releases the slot.
  // The freed slot is recycled for the next schedule with a new generation.
  const EventId second = loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(EventLoopTestPeer::SlotOfId(first),
            EventLoopTestPeer::SlotOfId(second));
  EXPECT_NE(first, second);
  EXPECT_FALSE(loop.Cancel(first));  // stale id must not hit the new tenant.
  EXPECT_TRUE(loop.Cancel(second));
}

TEST(EventLoop, GenerationWraparoundRejectsStaleCancel) {
  EventLoop loop;
  // Park slot 0's generation at the 32-bit boundary.
  const EventId seed = loop.ScheduleAt(Millis(1), [] {});
  ASSERT_EQ(EventLoopTestPeer::SlotOfId(seed), 0u);
  loop.Run();
  EventLoopTestPeer::SetSlotGeneration(loop, 0, 0xFFFFFFFFu);

  const EventId pre_wrap = loop.ScheduleAt(Millis(2), [] {});
  EXPECT_EQ(EventLoopTestPeer::GenerationOfId(pre_wrap), 0xFFFFFFFFu);
  loop.Run();  // executing releases the slot; the generation wraps to 0.

  const EventId post_wrap = loop.ScheduleAt(Millis(3), [] {});
  EXPECT_EQ(EventLoopTestPeer::SlotOfId(post_wrap), 0u);
  EXPECT_EQ(EventLoopTestPeer::GenerationOfId(post_wrap), 0u);
  EXPECT_NE(pre_wrap, post_wrap);
  // The stale pre-wrap id carries generation 0xFFFFFFFF and must not cancel
  // the post-wrap tenant of the same slot.
  EXPECT_FALSE(loop.Cancel(pre_wrap));
  EXPECT_TRUE(loop.Cancel(post_wrap));
}

// ----------------------------------------------------------- InlineTask ----

/// Counts constructions/destructions so the tests can prove captured state
/// is destroyed exactly once across moves, schedules, cancels, and runs.
struct Tracked {
  static int live;
  static int total_constructed;
  int payload = 42;
  Tracked() { ++live; ++total_constructed; }
  Tracked(const Tracked& o) : payload(o.payload) { ++live; ++total_constructed; }
  Tracked(Tracked&& o) noexcept : payload(o.payload) {
    ++live;
    ++total_constructed;
  }
  ~Tracked() { --live; }
};
int Tracked::live = 0;
int Tracked::total_constructed = 0;

TEST(InlineTask, MoveTransfersAndDestroysExactlyOnce) {
  Tracked::live = 0;
  int invoked = 0;
  {
    InlineTask a = [t = Tracked{}, &invoked] { invoked += t.payload; };
    EXPECT_TRUE(a.is_inline());
    EXPECT_GE(Tracked::live, 1);
    InlineTask b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(Tracked::live, 1);  // relocation destroyed the source copy.
    b();
    b();  // invocation is non-destructive (PeriodicTimer re-fires it).
    EXPECT_EQ(invoked, 84);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineTask, MoveAssignmentReleasesPreviousTask) {
  Tracked::live = 0;
  InlineTask a = [t = Tracked{}] { (void)t; };
  InlineTask b = [t = Tracked{}] { (void)t; };
  EXPECT_EQ(Tracked::live, 2);
  b = std::move(a);
  EXPECT_EQ(Tracked::live, 1);  // b's old capture destroyed, a's moved in.
  b = InlineTask();
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineTask, OversizedCaptureFallsBackToHeapAndStillDestroysOnce) {
  struct Big {
    Tracked t;
    unsigned char ballast[2 * InlineTask::kInlineCapacity] = {};
  };
  static_assert(!InlineTask::fits_inline<Big>);
  Tracked::live = 0;
  int invoked = 0;
  {
    InlineTask task = [big = Big{}, &invoked]() { invoked += big.t.payload; };
    EXPECT_FALSE(task.is_inline());
    InlineTask moved = std::move(task);
    moved();
    EXPECT_EQ(invoked, 42);
  }
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineTask, EventLoopDestroysCancelledCapturesEagerly) {
  EventLoop loop;
  Tracked::live = 0;
  const EventId id = loop.ScheduleAt(Millis(1), [t = Tracked{}] { (void)t; });
  EXPECT_EQ(Tracked::live, 1);
  ASSERT_TRUE(loop.Cancel(id));
  // Cancellation releases the capture immediately — not when the tombstone
  // is eventually reaped from the heap.
  EXPECT_EQ(Tracked::live, 0);
  loop.Run();
  EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineTask, InTreeEventClosureShapesFitInline) {
  // Archetypes of every scheduling layer's captures. The wifi.deliver shape
  // (a ~184-byte Frame by value) is the sizing floor for kInlineCapacity.
  struct PacketSized { unsigned char bytes[168]; };
  struct FrameSized { unsigned char bytes[184]; };
  auto this_only = [this] {};
  auto timeout = [this, id = std::uint64_t{1}] {};
  auto packet_hop = [this, p = PacketSized{}]() mutable { (void)p; };
  auto frame_delivery = [this, dest = std::uint32_t{0},
                         f = FrameSized{}]() mutable { (void)f; };
  static_assert(InlineTask::fits_inline<decltype(this_only)>);
  static_assert(InlineTask::fits_inline<decltype(timeout)>);
  static_assert(InlineTask::fits_inline<decltype(packet_hop)>);
  static_assert(InlineTask::fits_inline<decltype(frame_delivery)>);
}

// ------------------------------------------------- differential testing ----

/// Naive reference scheduler: a flat vector scanned for the (time, seq)
/// minimum on every step. Trivially correct; the real loop must match it
/// operation for operation.
class ReferenceScheduler {
 public:
  std::uint64_t Schedule(Time at, int tag) {
    events_.push_back({std::max(at, now_), next_seq_++, tag, false});
    return events_.back().seq;
  }
  bool Cancel(std::uint64_t seq) {
    for (auto& e : events_) {
      if (e.seq == seq && !e.cancelled) {
        e.cancelled = true;
        return true;
      }
    }
    return false;
  }
  /// Runs the earliest live event; returns its tag or -1 when empty.
  int Step() {
    std::size_t best = events_.size();
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].cancelled) continue;
      if (best == events_.size() || events_[i].at < events_[best].at ||
          (events_[i].at == events_[best].at &&
           events_[i].seq < events_[best].seq)) {
        best = i;
      }
    }
    if (best == events_.size()) return -1;
    const int tag = events_[best].tag;
    now_ = events_[best].at;
    events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
    events_.erase(std::remove_if(events_.begin(), events_.end(),
                                 [](const auto& e) { return e.cancelled; }),
                  events_.end());
    return tag;
  }
  [[nodiscard]] std::size_t pending() const {
    std::size_t n = 0;
    for (const auto& e : events_) n += e.cancelled ? 0 : 1;
    return n;
  }
  [[nodiscard]] Time now() const { return now_; }

 private:
  struct Ref {
    Time at;
    std::uint64_t seq;
    int tag;
    bool cancelled;
  };
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::vector<Ref> events_;
};

// 10^5 randomized mixed schedule/cancel/run operations executed in lockstep
// against the reference scheduler: execution order, cancellation results,
// clock, and pending counts must all agree.
TEST(EventLoop, DifferentialAgainstReferenceScheduler) {
  EventLoop loop;
  ReferenceScheduler ref;
  Rng rng(0xD1FFu);
  std::vector<int> real_log;
  std::vector<int> ref_log;
  // Parallel vectors: the i-th schedule's id in both schedulers.
  std::vector<EventId> real_ids;
  std::vector<std::uint64_t> ref_ids;
  int next_tag = 0;

  for (int op = 0; op < 100'000; ++op) {
    const auto roll = rng.UniformInt(0, 9);
    if (roll < 5) {  // schedule (50%)
      const Time at = loop.now() + rng.UniformInt(0, 100);
      const int tag = next_tag++;
      real_ids.push_back(
          loop.ScheduleAt(at, [tag, &real_log] { real_log.push_back(tag); }));
      ref_ids.push_back(ref.Schedule(at, tag));
    } else if (roll < 8) {  // cancel a random past id, maybe stale (30%)
      if (!real_ids.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(real_ids.size()) - 1));
        EXPECT_EQ(loop.Cancel(real_ids[pick]), ref.Cancel(ref_ids[pick]));
      }
    } else {  // run one event (20%)
      const int expect_tag = ref.Step();
      const bool ran = loop.Step();
      EXPECT_EQ(ran, expect_tag != -1);
      if (ran) {
        ASSERT_FALSE(real_log.empty());
        EXPECT_EQ(real_log.back(), expect_tag);
        EXPECT_EQ(loop.now(), ref.now());
      }
    }
    if (op % 1024 == 0) {
      EXPECT_EQ(loop.pending(), ref.pending());
    }
  }
  // Drain both completely and compare the full execution order.
  while (true) {
    const int tag = ref.Step();
    if (tag == -1) break;
    ref_log.push_back(tag);
  }
  std::size_t drained = real_log.size();
  loop.Run();
  std::vector<int> real_tail(real_log.begin() +
                                 static_cast<std::ptrdiff_t>(drained),
                             real_log.end());
  EXPECT_EQ(real_tail, ref_log);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.now(), ref.now());
}

// --------------------------------------------------------- timer wheel ----
//
// The hierarchical wheel (L0: 256 x 8.192 us buckets, L1: 64 x 2.097 ms
// buckets, heap overflow past 134.2 ms) must dispatch in the exact (time,
// seq) order of a plain priority queue. Below kWheelMinPopulation pending
// timers inserts take the heap path, so these tests first build a padding
// population that forces subsequent inserts into the wheel proper.

namespace {

constexpr Time kL0TickSpan = Time{1} << 13;   // one L0 bucket
constexpr Time kL1TickSpan = Time{1} << 21;   // one L1 bucket (256 L0 ticks)
constexpr Time kL1Horizon = kL1TickSpan * 64; // beyond: overflow heap

/// Schedules enough far-future timers to push TimerEntries() past the
/// sparse-regime threshold, so the timers a test schedules NEXT land in the
/// wheel. Returns their (time, tag) pairs so tests can fold them into the
/// expected order.
std::vector<std::pair<Time, int>> PadPopulation(EventLoop& loop,
                                                std::vector<int>& log,
                                                int first_tag) {
  std::vector<std::pair<Time, int>> padded;
  for (int i = 0; i < 96; ++i) {
    const Time at = Seconds(2) + i * Micros(10);
    const int tag = first_tag + i;
    loop.ScheduleAt(at, [tag, &log] { log.push_back(tag); });
    padded.emplace_back(at, tag);
  }
  return padded;
}

}  // namespace

TEST(EventLoop, WheelCascadeBoundariesPreserveTimeOrder) {
  EventLoop loop;
  std::vector<int> log;
  std::vector<std::pair<Time, int>> scheduled = PadPopulation(loop, log, 1000);

  // Every boundary the bucket math can get wrong: around an L0 bucket edge,
  // the exact L0 window edge where the first cascade fires, an L1 bucket
  // edge (the tick == window << 8 collision case, where the cascaded
  // bucket's first L0 tick IS the cascade tick), the L1 horizon, and past
  // it into the overflow heap — plus same-tick duplicates for FIFO.
  const Time boundary[] = {
      kL0TickSpan - 1, kL0TickSpan, kL0TickSpan + 1,
      kL0TickSpan * 255, kL0TickSpan * 256, kL0TickSpan * 256 + 1,
      kL1TickSpan * 2, kL1TickSpan * 2,              // collision tick, FIFO
      kL1TickSpan * 2 + kL0TickSpan,
      kL1Horizon - 1, kL1Horizon, kL1Horizon + kL1TickSpan,
      kL0TickSpan, kL1Horizon,                       // more duplicates
  };
  int tag = 0;
  for (const Time at : boundary) {
    loop.ScheduleAt(at, [tag, &log] { log.push_back(tag); });
    scheduled.emplace_back(at, tag);
    ++tag;
  }
  loop.Run();

  // Expected: time order, schedule order within a tick (stable sort).
  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<int> expect;
  for (const auto& [at, t] : scheduled) expect.push_back(t);
  EXPECT_EQ(log, expect);
}

TEST(EventLoop, CancelInsideWheelBuckets) {
  EventLoop loop;
  std::vector<int> log;
  auto scheduled = PadPopulation(loop, log, 1000);

  // Spread timers across L0, L1, and the overflow heap, then cancel every
  // other one. The (slot, generation) ids must cancel entries that already
  // sit inside wheel buckets, and the survivors' order must be untouched.
  std::vector<EventId> ids;
  for (int i = 0; i < 120; ++i) {
    const Time at = (i % 3 == 0) ? Micros(50) + i * kL0TickSpan
                  : (i % 3 == 1) ? Millis(5) + i * kL1TickSpan / 4
                                 : Millis(200) + i * Millis(1);
    const int tag = i;
    ids.push_back(loop.ScheduleAt(at, [tag, &log] { log.push_back(tag); }));
    scheduled.emplace_back(at, tag);
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(loop.Cancel(ids[i]));
    EXPECT_FALSE(loop.Cancel(ids[i]));  // second cancel: stale id.
  }
  loop.Run();

  std::stable_sort(scheduled.begin(), scheduled.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<int> expect;
  for (const auto& [at, t] : scheduled) {
    if (t < 1000 && t % 2 == 0) continue;  // cancelled
    expect.push_back(t);
  }
  EXPECT_EQ(log, expect);
}

TEST(EventLoop, WheelIdleResyncSurvivesFarFutureCancelChurn) {
  // The RTO pattern that motivated the backward resync: a burst of activity
  // leaves far-future guard timers that all get cancelled, the reap-walk
  // parks the scan position ahead of the clock, and the next activity
  // phase's timers must still dispatch in exact (time, seq) order.
  EventLoop loop;
  std::vector<int> log;
  for (int phase = 0; phase < 3; ++phase) {
    std::vector<EventId> guards;
    for (int i = 0; i < 128; ++i) {
      guards.push_back(loop.ScheduleIn(Millis(50) + i * Micros(100), [] {}));
    }
    for (const EventId id : guards) EXPECT_TRUE(loop.Cancel(id));

    std::vector<std::pair<Time, int>> scheduled;
    for (int i = 0; i < 128; ++i) {
      const Time at = loop.now() + Micros(5) + (i % 17) * Micros(40);
      const int tag = phase * 1000 + i;
      loop.ScheduleAt(at, [tag, &log] { log.push_back(tag); });
      scheduled.emplace_back(at, tag);
    }
    log.clear();
    loop.Run();
    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<int> expect;
    for (const auto& [at, t] : scheduled) expect.push_back(t);
    ASSERT_EQ(log, expect) << "phase " << phase;
    // Idle gap before the next phase so the resync actually runs.
    loop.RunUntil(loop.now() + Seconds(1));
  }
}

// 10^5 randomized schedule/cancel/step operations executed in lockstep on
// the loop and an ordered-map oracle keyed by (time, schedule order) — the
// total order the loop promises. The wheel, with its sparse-regime heap
// fallback and its cascades, must agree on execution order, clock, cancel
// results, and pending counts. Deltas mix the now-queue, L0, L1, and
// overflow scales so the population migrates between every regime. (The
// flat-scan ReferenceScheduler above is the same oracle, but its linear
// steps are too slow at this population under the sanitizers.)
TEST(EventLoop, WheelDifferentialAgainstOrderedMapOracle) {
  EventLoop loop;
  std::map<std::pair<Time, int>, int> oracle;  // (time, order) -> tag
  Time oracle_now = 0;
  Rng rng(0x5EED'0002u);
  std::vector<int> log;
  // The i-th schedule's loop id and oracle key; its tag is i.
  std::vector<EventId> ids;
  std::vector<std::pair<Time, int>> keys;

  for (int op = 0; op < 100'000; ++op) {
    const auto roll = rng.UniformInt(0, 9);
    if (roll < 5) {  // schedule (50%), mixed horizon scales
      const auto scale = rng.UniformInt(0, 3);
      const Duration delta =
          scale == 0 ? rng.UniformInt(0, 100)              // same tick-ish
          : scale == 1 ? rng.UniformInt(0, Millis(2))      // L0 span
          : scale == 2 ? rng.UniformInt(0, Millis(130))    // L1 span
                       : rng.UniformInt(0, Seconds(1));    // overflow heap
      const Time at = loop.now() + delta;
      const int tag = static_cast<int>(ids.size());
      ids.push_back(loop.ScheduleAt(at, [tag, &log] { log.push_back(tag); }));
      keys.emplace_back(at, tag);
      oracle.emplace(keys.back(), tag);
    } else if (roll < 8) {  // cancel a random past id, maybe stale (30%)
      if (!ids.empty()) {
        const auto pick = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int>(ids.size()) - 1));
        ASSERT_EQ(loop.Cancel(ids[pick]), oracle.erase(keys[pick]) == 1)
            << "op " << op;
      }
    } else {  // step one event (20%)
      const std::size_t ran_before = log.size();
      const bool ran = loop.Step();
      ASSERT_EQ(ran, !oracle.empty()) << "op " << op;
      if (ran) {
        ASSERT_EQ(log.size(), ran_before + 1) << "op " << op;
        const auto head = oracle.begin();
        ASSERT_EQ(log.back(), head->second) << "op " << op;
        oracle_now = head->first.first;
        oracle.erase(head);
        ASSERT_EQ(loop.now(), oracle_now) << "op " << op;
      }
    }
    if (op % 1024 == 0) {
      ASSERT_EQ(loop.pending(), oracle.size()) << "op " << op;
    }
  }
  const std::size_t drained = log.size();
  loop.Run();
  std::vector<int> expect;
  for (const auto& [key, tag] : oracle) {
    expect.push_back(tag);
    oracle_now = key.first;
  }
  EXPECT_EQ(std::vector<int>(log.begin() + static_cast<std::ptrdiff_t>(drained),
                             log.end()),
            expect);
  EXPECT_EQ(loop.now(), oracle_now);
  EXPECT_EQ(loop.pending(), 0u);
}

// ----------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 15);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliApproximatesProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, NormalHasRequestedMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(31);
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent2(31);
  parent2.Fork();
  int equal = 0;
  for (int i = 0; i < 20; ++i) {
    if (child.Next() == parent.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, StreamForkIsDeterministicAndConst) {
  const Rng base(42);
  Rng a = base.Fork(7);
  Rng b = base.Fork(7);
  // Same parent state + same stream index => identical child stream, and
  // forking never advances the parent (it is const).
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng untouched(42);
  Rng fresh(42);
  base.Fork(123);
  EXPECT_EQ(untouched.Next(), fresh.Next());
}

TEST(Rng, StreamForksAreDecorrelated) {
  const Rng base(42);
  // Consecutive stream indices (the fleet's task indices) must not produce
  // overlapping or correlated streams.
  Rng s0 = base.Fork(0);
  Rng s1 = base.Fork(1);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (s0.Next() == s1.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
  double mean = 0.0;
  Rng s2 = base.Fork(2);
  for (int i = 0; i < 2000; ++i) mean += s2.UniformDouble() / 2000.0;
  EXPECT_NEAR(mean, 0.5, 0.05);
}

}  // namespace
}  // namespace kwikr::sim
