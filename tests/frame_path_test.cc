// Frame-path primitives: kwikr::FunctionRef (the devirtualized hook type),
// sim::FrameRing (the pooled frame queue), the event loop's same-tick order
// and rearm path, the EDCA arbitration core differentially tested against a
// scalar reference, burst delivery, and fleet-sharded runs that must be
// worker-count invariant. Registered under the `frame_path` CTest
// label; scripts/check.sh and CI also run this suite under
// ThreadSanitizer, where the sharded tests exercise concurrent EventLoop +
// Channel instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/frame_ring.h"
#include "sim/function_ref.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "wifi/channel.h"
#include "wifi/edca.h"
#include "wifi/edca_core.h"

namespace kwikr {
namespace {

// ---------------------------------------------------------- FunctionRef ----

TEST(FunctionRef, NullFastPath) {
  FunctionRef<void()> ref;
  EXPECT_FALSE(ref);
  EXPECT_TRUE(ref == nullptr);

  int hits = 0;
  auto fn = [&hits] { ++hits; };
  ref = fn;
  EXPECT_TRUE(ref);
  EXPECT_FALSE(ref == nullptr);
  ref();
  EXPECT_EQ(hits, 1);

  ref = nullptr;
  EXPECT_FALSE(ref);
  EXPECT_TRUE(ref == nullptr);
}

TEST(FunctionRef, CapturelessLambdaBindsFromTemporary) {
  // A captureless lambda decays to a function pointer, so binding from a
  // temporary is safe — there is no state whose lifetime could end.
  FunctionRef<int(int)> ref = [](int x) { return x * 2; };
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRef, RvalueReferenceSignaturePassesThroughThunk) {
  // The delivery hooks use rvalue-reference signatures (void(Frame&&)) so
  // the payload is handed through the thunk by reference; a move-only
  // argument proves nothing is copied on the way.
  FunctionRef<int(std::unique_ptr<int>&&)> ref =
      [](std::unique_ptr<int>&& p) { return *p; };
  EXPECT_EQ(ref(std::make_unique<int>(7)), 7);
}

TEST(FunctionRef, StatefulCallableIsReferencedNotCopied) {
  auto counter = [n = 0]() mutable { return ++n; };
  FunctionRef<int()> ref = counter;
  // The ref sees the named lambda's state: advancing either side advances
  // the one shared counter.
  EXPECT_EQ(counter(), 1);
  EXPECT_EQ(ref(), 2);
  EXPECT_EQ(counter(), 3);
}

TEST(FunctionRef, RebindingSwitchesTarget) {
  int a_hits = 0;
  int b_hits = 0;
  auto a = [&a_hits] { ++a_hits; };
  auto b = [&b_hits] { ++b_hits; };
  FunctionRef<void()> ref = a;
  ref();
  ref = b;  // trivially copyable: rebinding is a plain assignment.
  ref();
  ref();
  EXPECT_EQ(a_hits, 1);
  EXPECT_EQ(b_hits, 2);
}

TEST(FunctionRef, MemberDispatch) {
  struct Tally {
    int total = 0;
    void Add(int x) { total += x; }
    [[nodiscard]] int Get() const { return total; }
  };
  Tally tally;
  const auto add = FunctionRef<void(int)>::Member<&Tally::Add>(&tally);
  add(5);
  add(7);
  EXPECT_EQ(tally.total, 12);

  // Const member on a const object.
  const Tally& view = tally;
  const auto get = FunctionRef<int()>::Member<&Tally::Get>(&view);
  EXPECT_EQ(get(), 12);
}

TEST(FunctionRef, IsTwoWordsAndTriviallyCopyable) {
  using Ref = FunctionRef<void(int)>;
  static_assert(std::is_trivially_copyable_v<Ref>);
  static_assert(sizeof(Ref) == 2 * sizeof(void*));
  SUCCEED();
}

// ------------------------------------------------------------ FrameRing ----

TEST(FrameRing, FifoSurvivesWraparound) {
  sim::FrameRing<int> ring;
  int next = 0;
  int expect = 0;
  // Drive the indices around the 8-slot initial ring many times with a
  // push/push/pop cadence; FIFO order must hold across every wrap.
  for (int step = 0; step < 200; ++step) {
    ASSERT_TRUE(ring.push_back(next++));
    ASSERT_TRUE(ring.push_back(next++));
    ASSERT_EQ(ring.front(), expect++);
    ring.pop_front();
  }
  while (!ring.empty()) {
    ASSERT_EQ(ring.front(), expect++);
    ring.pop_front();
  }
  EXPECT_EQ(expect, next);
}

TEST(FrameRing, CapacityDropLeavesRingUntouched) {
  sim::FrameRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.push_back(int{i}));
  }
  EXPECT_TRUE(ring.full());
  EXPECT_FALSE(ring.push_back(99));  // drop-tail: the caller counts this.
  EXPECT_EQ(ring.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(static_cast<std::size_t>(i)), i);
  }
  // After draining one, capacity admits exactly one more.
  ring.pop_front();
  EXPECT_TRUE(ring.push_back(4));
  EXPECT_FALSE(ring.push_back(5));
}

TEST(FrameRing, MoveOnlyContents) {
  sim::FrameRing<std::unique_ptr<int>> ring;
  // Enough pushes to force growth, which must move (not copy) every cell.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ring.push_back(std::make_unique<int>(i)));
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_EQ(*ring.front(), i);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(FrameRing, GrowthIsGeometricAndCappedAtCapacityCeiling) {
  sim::FrameRing<int> ring(20);
  EXPECT_EQ(ring.allocated(), 0u);  // empty rings own no storage.
  std::vector<std::size_t> highwater;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ring.push_back(int{i}));
    if (highwater.empty() || ring.allocated() != highwater.back()) {
      highwater.push_back(ring.allocated());
    }
  }
  // 8 -> 16 -> 32 == bit_ceil(20); the bound's power-of-two ceiling is the
  // most the ring will ever allocate.
  EXPECT_EQ(highwater, (std::vector<std::size_t>{8, 16, 32}));
  EXPECT_FALSE(ring.push_back(21));
  EXPECT_EQ(ring.allocated(), 32u);
}

TEST(FrameRing, CopyingPushLeavesSourceIntact) {
  sim::FrameRing<std::string> ring;
  const std::string original = "keep me";
  ASSERT_TRUE(ring.push_back(original));
  EXPECT_EQ(original, "keep me");
  EXPECT_EQ(ring.front(), "keep me");
}

TEST(FrameRing, MoveTransferAndClear) {
  sim::FrameRing<int> ring(16);
  for (int i = 0; i < 5; ++i) ring.push_back(int{i});
  sim::FrameRing<int> stolen(std::move(ring));
  EXPECT_EQ(stolen.size(), 5u);
  EXPECT_EQ(stolen.front(), 0);

  sim::FrameRing<int> assigned;
  assigned = std::move(stolen);
  EXPECT_EQ(assigned.size(), 5u);
  assigned.clear();
  EXPECT_TRUE(assigned.empty());
  EXPECT_GT(assigned.allocated(), 0u);  // storage is pooled, not released.
}

// ------------------------------------------------------ same-tick order ----

TEST(SameTickOrder, EventsScheduledBeforeTheTickRunFirst) {
  // A, B, C are scheduled for t=100 before the clock gets there; D, E are
  // scheduled AT t=100 while A runs. Every event takes a sequence number
  // when it is scheduled, so the order must be A B C D E.
  sim::EventLoop loop;
  std::string order;
  loop.ScheduleAt(100, "A", [&] {
    order += 'A';
    loop.ScheduleAt(100, "D", [&order] { order += 'D'; });
    loop.ScheduleIn(0, "E", [&order] { order += 'E'; });
  });
  loop.ScheduleAt(100, "B", [&order] { order += 'B'; });
  loop.ScheduleAt(100, "C", [&order] { order += 'C'; });
  loop.Run();
  EXPECT_EQ(order, "ABCDE");
}

TEST(SameTickOrder, CancelledSameTickEventDoesNotRun) {
  sim::EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(5, "outer", [&] {
    const auto doomed = loop.ScheduleIn(0, "doomed", [&ran] { ran += 100; });
    loop.ScheduleIn(0, "live", [&ran] { ran += 1; });
    EXPECT_TRUE(loop.Cancel(doomed));
  });
  loop.Run();
  EXPECT_EQ(ran, 1);
}

// ------------------------------------------- fleet-sharded contention ----

/// Minimal closed-loop BSS: an AP with BE + VO downlinks and a station BE
/// uplink, every delivery refilling its source queue. Drives the whole
/// devirtualized frame path (FunctionRef hooks, FrameRing queues, the EDCA
/// core) from a single seed.
class MiniBss {
 public:
  explicit MiniBss(std::uint64_t seed) : channel_(loop_, sim::Rng(seed)) {
    const auto handler =
        wifi::Channel::DeliveryHandler::Member<&MiniBss::OnDelivery>(this);
    const wifi::OwnerId ap = channel_.RegisterOwner(handler);
    const wifi::OwnerId sta = channel_.RegisterOwner(handler);
    const auto edca = wifi::DefaultEdcaParams();
    auto make = [&](wifi::OwnerId owner, wifi::OwnerId dest,
                    wifi::AccessCategory ac) {
      tx_[tx_count_++] = Tx{
          channel_.CreateContender(owner, ac, edca[wifi::Index(ac)], 32),
          dest};
    };
    make(ap, sta, wifi::AccessCategory::kBestEffort);
    make(ap, sta, wifi::AccessCategory::kVoice);
    make(sta, ap, wifi::AccessCategory::kBestEffort);
    for (std::uint32_t i = 0; i < tx_count_; ++i) {
      for (int k = 0; k < 8; ++k) Refill(i);
    }
  }

  [[nodiscard]] std::uint64_t Digest(sim::Duration horizon) {
    loop_.RunFor(horizon);
    // Mixes every observable the frame path influences; any divergence in
    // event order or rng draw order shows up here.
    return delivered_ * 1'000'003u + channel_.collisions() * 97u +
           loop_.executed();
  }

 private:
  struct Tx {
    wifi::ContenderId id = 0;
    wifi::OwnerId dest = 0;
  };

  void Refill(std::uint32_t index) {
    net::Packet p;
    p.size_bytes = 600;
    p.flow = index;
    channel_.Enqueue(tx_[index].id,
                     wifi::Frame{std::move(p), tx_[index].dest, 60'000'000});
  }

  void OnDelivery(wifi::Frame&& frame) {
    ++delivered_;
    Refill(frame.packet.flow);
  }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  Tx tx_[3];
  std::uint32_t tx_count_ = 0;
  std::uint64_t delivered_ = 0;
};

// ----------------------------------------- EdcaCore scalar differential ----

/// The arbitration logic as the 802.11 rules state it, one contender at a
/// time: individual per-contender structs, an insertion-ordered backlog list,
/// and a hardware divide in the freeze path. Kept as the differential oracle
/// for wifi::EdcaCore — every observable (candidate times, winner sets in
/// backlog order, RNG draw order, the cw/backoff/counting state) must match
/// draw for draw, or the golden corpus would drift.
class ScalarEdcaReference {
 public:
  explicit ScalarEdcaReference(sim::Duration slot) : slot_(slot) {}

  wifi::ContenderId Add(sim::Duration aifs, int cw_min, int cw_max) {
    contenders_.push_back(Contender{0, -1, cw_min, false, false,
                                    aifs, cw_min, cw_max});
    return static_cast<wifi::ContenderId>(contenders_.size() - 1);
  }

  [[nodiscard]] int cw(wifi::ContenderId id) const {
    return contenders_[id].cw;
  }
  [[nodiscard]] int backoff(wifi::ContenderId id) const {
    return contenders_[id].backoff;
  }
  [[nodiscard]] bool counting(wifi::ContenderId id) const {
    return contenders_[id].counting;
  }
  [[nodiscard]] bool in_backlog(wifi::ContenderId id) const {
    return contenders_[id].in_backlog;
  }

  void Join(wifi::ContenderId id, sim::Time now, bool medium_idle) {
    // Rejoining moves the contender to the back of the backlog walk.
    Unlink(id);
    order_.push_back(id);
    Contender& c = contenders_[id];
    c.in_backlog = true;
    c.backoff = -1;
    c.cw = c.cw_min;
    if (medium_idle) {
      c.base = now + c.aifs;
      c.counting = true;
    } else {
      c.counting = false;
    }
  }

  void Leave(wifi::ContenderId id) {
    Unlink(id);
    contenders_[id].in_backlog = false;
    contenders_[id].counting = false;
  }

  sim::Time BeginIdle(sim::Time now, sim::Rng& rng) {
    sim::Time earliest = wifi::EdcaCore::kNoCandidate;
    for (const wifi::ContenderId id : order_) {
      Contender& c = contenders_[id];
      c.base = now + c.aifs;
      c.counting = true;
      DrawIfNeeded(c, rng);
      earliest = std::min(earliest, Candidate(c));
    }
    return earliest;
  }

  sim::Time EarliestCandidate(sim::Rng& rng) {
    sim::Time earliest = wifi::EdcaCore::kNoCandidate;
    for (const wifi::ContenderId id : order_) {
      Contender& c = contenders_[id];
      if (!c.counting) continue;
      DrawIfNeeded(c, rng);
      earliest = std::min(earliest, Candidate(c));
    }
    return earliest;
  }

  void Arbitrate(sim::Time start, std::vector<wifi::ContenderId>& winners) {
    for (const wifi::ContenderId id : order_) {
      Contender& c = contenders_[id];
      if (!c.counting) continue;
      if (Candidate(c) == start) {
        winners.push_back(id);  // keeps counting through its transmission.
        continue;
      }
      const sim::Duration delta = start - c.base;
      const auto consumed =
          static_cast<int>(delta > 0 ? delta / slot_ : 0);
      c.backoff = std::max(0, c.backoff - consumed);
      c.counting = false;
    }
  }

  void OnTxSuccess(wifi::ContenderId id) {
    contenders_[id].cw = contenders_[id].cw_min;
    contenders_[id].backoff = -1;
  }

  void OnTxFailure(wifi::ContenderId id) {
    Contender& c = contenders_[id];
    c.cw = std::min(c.cw * 2 + 1, c.cw_max);
    c.backoff = -1;
    c.counting = false;
  }

  void OnRetryDrop(wifi::ContenderId id) {
    contenders_[id].cw = contenders_[id].cw_min;
    contenders_[id].backoff = -1;
  }

 private:
  struct Contender {
    sim::Time base;
    int backoff;
    int cw;
    bool counting;
    bool in_backlog;
    sim::Duration aifs;
    int cw_min;
    int cw_max;
  };

  void Unlink(wifi::ContenderId id) {
    order_.erase(std::remove(order_.begin(), order_.end(), id), order_.end());
  }

  static void DrawIfNeeded(Contender& c, sim::Rng& rng) {
    if (c.backoff < 0) {
      c.backoff = static_cast<int>(rng.UniformInt(0, c.cw));
    }
  }

  [[nodiscard]] sim::Time Candidate(const Contender& c) const {
    return c.base + static_cast<sim::Duration>(c.backoff) * slot_;
  }

  sim::Duration slot_;
  std::vector<Contender> contenders_;
  std::vector<wifi::ContenderId> order_;  ///< backlog, insertion-ordered.
};

/// The 10^5-round randomized differential: the core against the
/// per-contender reference, draw for draw and field for field.
TEST(EdcaCoreDifferential, MatchesScalarReference) {
  constexpr int kContenders = 12;
  constexpr int kRounds = 100'000;
  const sim::Duration slot = sim::Micros(9);
  wifi::EdcaCore core(slot);
  ScalarEdcaReference ref(slot);
  // Both machines consume from identically seeded streams: any divergence
  // in draw ORDER (not just draw values) desynchronizes the streams and
  // shows up in the next state audit.
  sim::Rng core_rng(0xEDCA0001);
  sim::Rng ref_rng(0xEDCA0001);
  sim::Rng control(0xC0FFEE);

  // Mixed access-category timing: VO/VI/BE/BK-flavoured AIFS and CW ladders,
  // three contenders of each, so sweeps always mix short and long windows.
  const struct {
    sim::Duration aifs;
    int cw_min;
    int cw_max;
  } kParams[] = {
      {slot * 2, 3, 7},
      {slot * 2, 7, 15},
      {slot * 3, 15, 1023},
      {slot * 7, 15, 1023},
  };
  for (int i = 0; i < kContenders; ++i) {
    const auto& p = kParams[i % 4];
    ASSERT_EQ(core.Add(p.aifs, p.cw_min, p.cw_max),
              ref.Add(p.aifs, p.cw_min, p.cw_max));
  }

  sim::Time now = 0;
  std::vector<wifi::ContenderId> core_winners;
  std::vector<wifi::ContenderId> ref_winners;
  int arbitrations = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Membership churn while the medium is busy: joins, leaves, and the
    // leave-then-rejoin-before-the-next-sweep pattern (the rejoiner must move
    // to the back of the backlog, or the RNG streams shift).
    const auto churn = static_cast<int>(control.UniformInt(0, 3));
    for (int k = 0; k < churn; ++k) {
      const auto id = static_cast<wifi::ContenderId>(
          control.UniformInt(0, kContenders - 1));
      if (core.in_backlog(id)) {
        core.Leave(id);
        ref.Leave(id);
        if (control.Bernoulli(0.5)) {
          core.Join(id, now, /*medium_idle=*/false);
          ref.Join(id, now, /*medium_idle=*/false);
        }
      } else {
        core.Join(id, now, /*medium_idle=*/false);
        ref.Join(id, now, /*medium_idle=*/false);
      }
    }

    now += control.UniformInt(1, 200) * sim::Micros(1);
    sim::Time core_e = core.BeginIdle(now, core_rng);
    const sim::Time ref_begin = ref.BeginIdle(now, ref_rng);
    ASSERT_EQ(core_e, ref_begin) << "round " << round;

    // Occasional mid-idle churn plus re-evaluation — the EarliestCandidate
    // path, where a joiner starts counting immediately on the idle medium.
    if (control.Bernoulli(0.25)) {
      const auto id = static_cast<wifi::ContenderId>(
          control.UniformInt(0, kContenders - 1));
      if (core.in_backlog(id)) {
        core.Leave(id);
        ref.Leave(id);
      } else {
        core.Join(id, now, /*medium_idle=*/true);
        ref.Join(id, now, /*medium_idle=*/true);
      }
      core_e = core.EarliestCandidate(core_rng);
      const sim::Time ref_e = ref.EarliestCandidate(ref_rng);
      ASSERT_EQ(core_e, ref_e) << "round " << round;
    }

    if (core_e != wifi::EdcaCore::kNoCandidate) {
      core_winners.clear();
      ref_winners.clear();
      core.Arbitrate(core_e, core_winners);
      ref.Arbitrate(core_e, ref_winners);
      ASSERT_EQ(core_winners, ref_winners) << "round " << round;
      ASSERT_FALSE(core_winners.empty()) << "round " << round;
      ++arbitrations;
      // Transmission outcomes walk the CW ladder both ways; some winners
      // drain their queue and leave.
      for (const wifi::ContenderId id : core_winners) {
        const double roll = control.Uniform(0.0, 1.0);
        if (roll < 0.55) {
          core.OnTxSuccess(id);
          ref.OnTxSuccess(id);
          if (control.Bernoulli(0.3)) {
            core.Leave(id);
            ref.Leave(id);
          }
        } else if (roll < 0.9) {
          core.OnTxFailure(id);
          ref.OnTxFailure(id);
        } else {
          core.OnRetryDrop(id);
          ref.OnRetryDrop(id);
          if (control.Bernoulli(0.5)) {
            core.Leave(id);
            ref.Leave(id);
          }
        }
      }
      now = core_e + control.UniformInt(1, 3'000) * sim::Micros(1);
    }

    // Full-state audit every round: the state the channel reads back.
    for (wifi::ContenderId id = 0; id < kContenders; ++id) {
      ASSERT_EQ(core.cw(id), ref.cw(id)) << "round " << round << " id " << id;
      ASSERT_EQ(core.backoff(id), ref.backoff(id))
          << "round " << round << " id " << id;
      ASSERT_EQ(core.counting(id), ref.counting(id))
          << "round " << round << " id " << id;
      ASSERT_EQ(core.in_backlog(id), ref.in_backlog(id))
          << "round " << round << " id " << id;
    }
  }
  // The workload must actually contend most rounds, or the test proves
  // nothing about arbitration.
  EXPECT_GT(arbitrations, kRounds / 2);
}

// ------------------------------------------------- EventLoop rearm lane ----

TEST(EventLoopRearm, RearmReusesTheEventAcrossFirings) {
  sim::EventLoop loop;
  std::vector<sim::Time> fired;
  loop.ScheduleRearmableAt(10, "test.rearm", [&] {
    fired.push_back(loop.now());
    if (fired.size() < 3) loop.RearmCurrentAt(loop.now() + 10);
  });
  loop.Run();
  EXPECT_EQ(fired, (std::vector<sim::Time>{10, 20, 30}));
  EXPECT_EQ(loop.executed(), 3u);
}

TEST(EventLoopRearm, OriginalEventIdCancelsTheRearmedFiring) {
  sim::EventLoop loop;
  int fires = 0;
  const sim::EventId id =
      loop.ScheduleRearmableAt(10, "test.rearm", [&] {
        ++fires;
        loop.RearmCurrentAt(loop.now() + 10);
      });
  // Let exactly two firings happen, then cancel: the slot generation is
  // untouched by rearming, so the original id must still hit.
  loop.ScheduleAt(25, "test.cancel", [&] { EXPECT_TRUE(loop.Cancel(id)); });
  loop.Run();
  EXPECT_EQ(fires, 2);
}

TEST(EventLoopRearm, SameTickRearmRunsThisTick) {
  sim::EventLoop loop;
  std::string order;
  loop.ScheduleAt(10, "test.a", [&] { order += 'a'; });
  loop.ScheduleRearmableAt(10, "test.r", [&] {
    order += 'r';
    if (order.size() < 4) loop.RearmCurrentAt(loop.now());  // same tick
  });
  loop.ScheduleAt(10, "test.b", [&] { order += 'b'; });
  loop.Run();
  // First r-firing rearms at the SAME tick: the rearmed event takes the next
  // sequence number and runs behind b, exactly like a fresh ScheduleAt(now)
  // would.
  EXPECT_EQ(order, "arbr");
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopRearm, NotRearmingReleasesTheSlot) {
  sim::EventLoop loop;
  int fires = 0;
  const sim::EventId id =
      loop.ScheduleRearmableAt(5, "test.once", [&] { ++fires; });
  loop.Run();
  EXPECT_EQ(fires, 1);
  // The slot was released at the end of the single firing: the id is dead.
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopRearm, TicketedEventTiesInTheTicketsPlace) {
  // Run twice: with a handful of timers pending the loop keeps them in its
  // sparse-regime heap; padded past kWheelMinPopulation (64) with far-future
  // no-ops, the same timers and tickets land in the wheel's drain run.
  for (const bool padded : {false, true}) {
    sim::EventLoop loop;
    for (int i = 0; padded && i < 96; ++i) {
      loop.ScheduleAt(sim::Seconds(2) + i, "test.pad", [] {});
    }
    std::string order;
    loop.ScheduleAt(100, "test.a", [&] { order += 'a'; });
    const sim::Ticket early = loop.TakeTicket();
    loop.ScheduleAt(100, "test.b", [&] { order += 'b'; });
    const sim::Ticket late = loop.TakeTicket();
    loop.ScheduleAt(100, "test.c", [&] { order += 'c'; });
    // Armed at 50, long after its ticket was taken, the event still ties at
    // 100 where the ticket put it; its same-tick rearm with the later ticket
    // runs after b, and both run ahead of s, scheduled at 100 after every
    // ticket was taken.
    loop.ScheduleAt(50, "test.arm", [&] {
      loop.ScheduleRearmableAt(100, early, "test.t", [&] {
        order += 't';
        if (order.size() == 2) {
          loop.ScheduleAt(loop.now(), "test.s", [&] { order += 's'; });
          loop.RearmCurrentAt(loop.now(), late);
        }
      });
      loop.ScheduleAt(100, "test.d", [&] { order += 'd'; });
    });
    loop.Run();
    EXPECT_EQ(order, "atbtcds") << (padded ? "padded" : "sparse");
  }
}

// ------------------------------------------------------- burst delivery ----

/// Closed-loop AP->station harness that records every frame's outcome —
/// delivered (with its sim time) or retry-dropped — keyed by source
/// contender and a per-contender frame id: a BE bulk downlink plus a VI
/// downlink whose TXOP limit makes bursts happen, so the run covers both the
/// fresh-win delivery and the rearmed continuation. Doubles as the loop's
/// probe to count dispatches by type.
class RecordingBss : public sim::EventLoopProbe {
 public:
  struct Outcome {
    std::uint32_t flow = 0;
    std::uint64_t id = 0;
    bool delivered = false;
    sim::Time at = 0;
  };

  RecordingBss() : channel_(loop_, sim::Rng(0xB0B0)) {
    loop_.SetProbe(this);
    const auto handler =
        wifi::Channel::DeliveryHandler::Member<&RecordingBss::OnDelivery>(
            this);
    const wifi::OwnerId ap = channel_.RegisterOwner(handler);
    const wifi::OwnerId sta = channel_.RegisterOwner(handler);
    channel_.SetDropHandler(
        wifi::Channel::DropHandler::Member<&RecordingBss::OnDrop>(this));
    const auto edca = wifi::DefaultEdcaParams();
    auto make = [&](wifi::OwnerId owner, wifi::OwnerId dest,
                    wifi::AccessCategory ac, std::int32_t size) {
      tx_[tx_count_] =
          Tx{channel_.CreateContender(owner, ac, edca[wifi::Index(ac)], 32),
             dest, size};
      ++tx_count_;
    };
    make(ap, sta, wifi::AccessCategory::kBestEffort, 1200);
    make(ap, sta, wifi::AccessCategory::kVideo, 1000);
    make(sta, ap, wifi::AccessCategory::kBestEffort, 600);
    for (std::uint32_t i = 0; i < tx_count_; ++i) {
      for (int k = 0; k < 8; ++k) Refill(i);
    }
  }

  void OnExecuted(const char* type, sim::Time) override {
    ++dispatched_;
    if (std::string_view(type) == "wifi.deliver") ++deliver_events_;
  }

  [[nodiscard]] wifi::Channel& channel() { return channel_; }
  void RunFor(sim::Duration d) { loop_.RunFor(d); }

  [[nodiscard]] const std::vector<Outcome>& outcomes() const {
    return outcomes_;
  }
  [[nodiscard]] std::uint32_t flows() const { return tx_count_; }
  /// Frames ever enqueued on `flow` (its next frame id).
  [[nodiscard]] std::uint64_t issued(std::uint32_t flow) const {
    return tx_[flow].next_id;
  }
  [[nodiscard]] std::size_t queued(std::uint32_t flow) const {
    return channel_.QueueLength(tx_[flow].id);
  }
  [[nodiscard]] std::uint64_t executed() const { return loop_.executed(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  [[nodiscard]] std::uint64_t deliver_events() const {
    return deliver_events_;
  }

 private:
  struct Tx {
    wifi::ContenderId id = 0;
    wifi::OwnerId dest = 0;
    std::int32_t size = 0;
    std::uint64_t next_id = 0;
  };

  void Refill(std::uint32_t index) {
    net::Packet p;
    p.id = tx_[index].next_id++;
    p.size_bytes = tx_[index].size;
    p.flow = index;
    channel_.Enqueue(tx_[index].id,
                     wifi::Frame{std::move(p), tx_[index].dest, 60'000'000});
  }

  void OnDelivery(wifi::Frame&& frame) {
    outcomes_.push_back(
        Outcome{frame.packet.flow, frame.packet.id, true, loop_.now()});
    Refill(frame.packet.flow);
  }

  void OnDrop(const wifi::Frame& frame) {
    outcomes_.push_back(
        Outcome{frame.packet.flow, frame.packet.id, false, loop_.now()});
    Refill(frame.packet.flow);
  }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  Tx tx_[3];
  std::uint32_t tx_count_ = 0;
  std::vector<Outcome> outcomes_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t deliver_events_ = 0;
};

TEST(BurstDelivery, DeliveriesAreOrderedOnceEachAndDispatchFree) {
  RecordingBss bss;
  bss.RunFor(sim::Millis(200));

  std::vector<std::uint64_t> resolved(bss.flows(), 0);
  std::size_t delivered = 0;
  sim::Time last_delivery = -1;
  for (const RecordingBss::Outcome& o : bss.outcomes()) {
    ASSERT_LT(o.flow, bss.flows());
    // Per-contender FIFO with exactly one outcome per frame: each source's
    // outcomes name its frame ids 0, 1, 2, ... in order.
    ASSERT_EQ(o.id, resolved[o.flow]++) << "flow " << o.flow;
    if (!o.delivered) continue;
    ++delivered;
    // One medium, at most one delivered frame per transmission end: the
    // delivery ticks strictly increase.
    ASSERT_GT(o.at, last_delivery);
    last_delivery = o.at;
  }
  ASSERT_GT(delivered, 500u);
  // No frame is lost or delivered twice: every frame ever enqueued is
  // either resolved above or still queued.
  for (std::uint32_t flow = 0; flow < bss.flows(); ++flow) {
    EXPECT_EQ(resolved[flow] + bss.queued(flow), bss.issued(flow))
        << "flow " << flow;
  }
  // The run must have exercised the rearmed TXOP continuation.
  EXPECT_GT(bss.channel().txop_continuations(), 0u);
  // Unfaulted deliveries run inline at the end of their transmission: the
  // probe sees every real dispatch, and none of them is a "wifi.deliver".
  EXPECT_EQ(bss.dispatched(), bss.executed());
  EXPECT_EQ(bss.deliver_events(), 0u);
}

TEST(FramePathFleet, ShardedContentionDigestIsWorkerCountInvariant) {
  constexpr std::size_t kTasks = 8;
  auto digest_for = [](std::size_t index) {
    MiniBss bss(0xF1D0'0000u + index);
    return bss.Digest(sim::Millis(50));
  };
  const auto serial = fleet::RunFleet(kTasks, 1, digest_for);
  const auto sharded = fleet::RunFleet(kTasks, 4, digest_for);
  ASSERT_EQ(serial.size(), kTasks);
  EXPECT_EQ(serial, sharded);
  // Sanity: the workload actually simulated something.
  for (const auto digest : serial) EXPECT_GT(digest, 1'000'000u);
}

}  // namespace
}  // namespace kwikr
