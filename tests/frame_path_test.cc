// Frame-path primitives: kwikr::FunctionRef (the devirtualized hook type),
// sim::FrameRing (the pooled frame queue), the event loop's same-tick
// dispatch lane, the batched SoA arbitration core differentially tested
// against a retained scalar reference, the cross-shard stream merge rule,
// and fleet-sharded runs that must be worker-count invariant. Registered
// under the `frame_path` CTest label; scripts/check.sh and CI also run this
// suite under ThreadSanitizer, where the sharded tests exercise concurrent
// EventLoop + Channel instances including BSS-group arm sharding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "fleet/scenario_shards.h"
#include "net/packet.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/event_loop.h"
#include "sim/fastdiv.h"
#include "sim/frame_ring.h"
#include "sim/function_ref.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "wifi/airtime_cache.h"
#include "wifi/channel.h"
#include "wifi/edca.h"
#include "wifi/edca_core.h"
#include "wifi/edca_simd.h"

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

// ------------------------------------------------- same-tick fast lane ----

TEST(SameTickLane, HeapEntriesAtCurrentTickPrecedeQueueEntries) {
  // A, B, C are scheduled for t=100 before the clock gets there (heap);
  // D, E are scheduled AT t=100 while A runs (same-tick queue). The heap
  // entries carry smaller sequence numbers, so the order must be
  // A B C D E — the ordering proof the fast lane relies on.
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

TEST(SameTickLane, CancelledSameTickEventDoesNotRun) {
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
/// devirtualized frame path (FunctionRef hooks, FrameRing queues, cached
/// EDCA timing, backlog stamps) from a single seed.
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

/// The pre-batching arbitration logic, one contender at a time: individual
/// per-contender structs, an insertion-ordered backlog list, and a hardware
/// divide in the freeze path. Retained verbatim-in-spirit as the differential
/// oracle for the batched wifi::EdcaCore — every observable (candidate times,
/// winner sets in backlog order, RNG draw order, the cw/backoff/counting
/// columns) must match draw for draw, or the golden corpus would drift.
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
    // Rejoining moves the contender to the back of the backlog walk — the
    // batched core gets the same order by stamping the old entry stale and
    // appending a fresh one.
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

/// The 10^5-round randomized differential, parameterized on the vector
/// sweeps: run once with the SIMD kernels enabled (where compiled in) and
/// once force-disabled, so BOTH generations of the batched core are pinned
/// against the scalar reference — the contract KWIKR_EDCA_NO_SIMD relies on.
void RunEdcaCoreDifferential(bool simd_enabled) {
  constexpr int kContenders = 12;
  constexpr int kRounds = 100'000;
  const sim::Duration slot = sim::Micros(9);
  wifi::EdcaCore core(slot);
  core.SetSimdEnabled(simd_enabled);
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
    // leave-then-rejoin-before-the-next-sweep pattern that stresses the
    // batched core's stamp mechanism (the stale backlog entry must neither
    // draw nor win, or the RNG streams shift).
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

    // Full-state audit every round: the columns the channel reads back.
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

TEST(EdcaCoreDifferential, MatchesScalarReferenceWithSimdEnabled) {
  RunEdcaCoreDifferential(/*simd_enabled=*/true);
}

TEST(EdcaCoreDifferential, MatchesScalarReferenceWithSimdForceDisabled) {
  RunEdcaCoreDifferential(/*simd_enabled=*/false);
}

// ------------------------------------------------- SIMD kernel unit tests ----
// The vector kernels (SSE2/NEON where compiled in; scalar aliases otherwise)
// against the branchless scalar forms over randomized columns, including the
// dead-lane garbage the full-column sweeps are specified to tolerate:
// undrawn backoffs (-1), stale bases, stale candidate times.

TEST(EdcaSimdKernels, MinCandidateMatchesScalarOnRandomColumns) {
  sim::Rng rng(0x51D0'0001);
  constexpr std::uint32_t kSlot = 9'000;
  for (int trial = 0; trial < 2'000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(0, 33));
    std::vector<sim::Time> base(n);
    std::vector<std::int32_t> backoff(n);
    std::vector<std::uint8_t> counting(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = rng.UniformInt(0, 1'000'000'000'000);
      counting[i] = rng.Bernoulli(0.6) ? 1 : 0;
      // Counting lanes have a drawn backoff (the kernel contract); dead
      // lanes may carry the undrawn sentinel.
      backoff[i] = counting[i] != 0 || rng.Bernoulli(0.5)
                       ? static_cast<std::int32_t>(rng.UniformInt(0, 1023))
                       : -1;
    }
    EXPECT_EQ(wifi::edca_simd::MinCandidateMasked(
                  base.data(), backoff.data(), counting.data(), n, kSlot),
              wifi::edca_simd::MinCandidateMaskedScalar(
                  base.data(), backoff.data(), counting.data(), n, kSlot))
        << "trial " << trial << " n " << n;
  }
}

TEST(EdcaSimdKernels, FreezeColumnsMatchesScalarOnRandomColumns) {
  sim::Rng rng(0x51D0'0002);
  constexpr sim::Duration kSlot = 9'000;
  const std::uint64_t magic = sim::FastDiv(kSlot).magic();
  ASSERT_NE(magic, 0u);
  ASSERT_LE(magic, 0xFFFFFFFFull);
  for (int trial = 0; trial < 2'000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(0, 33));
    // start anywhere that keeps counting-lane deltas inside the FastDiv
    // fast window — the same per-arbitration gate EdcaCore enforces.
    const sim::Time start =
        rng.UniformInt(0, sim::FastDiv::kMaxFastDividend / 2);
    std::vector<sim::Time> base(n);
    std::vector<sim::Time> cand(n);
    std::vector<std::int32_t> backoff_a(n);
    std::vector<std::uint8_t> counting_a(n);
    for (std::size_t i = 0; i < n; ++i) {
      counting_a[i] = rng.Bernoulli(0.6) ? 1 : 0;
      if (counting_a[i] != 0) {
        backoff_a[i] = static_cast<std::int32_t>(rng.UniformInt(0, 1023));
        // delta = start - base in (-2^20, 2^23): winners, losers, and the
        // negative-delta (base after start) edge all occur.
        base[i] = start - rng.UniformInt(-(1 << 20), 1 << 23);
        // Pass 1 refreshed counting lanes' cand; make ~1/3 of them winners.
        cand[i] = rng.Bernoulli(0.33)
                      ? start
                      : base[i] + static_cast<sim::Duration>(backoff_a[i]) *
                                      kSlot;
      } else {
        // Dead lanes: arbitrary stale state, including cand == start.
        backoff_a[i] = rng.Bernoulli(0.5)
                           ? -1
                           : static_cast<std::int32_t>(
                                 rng.UniformInt(0, 1023));
        base[i] = rng.UniformInt(0, 1'000'000'000'000);
        cand[i] = rng.Bernoulli(0.2) ? start
                                     : rng.UniformInt(0, 1'000'000'000'000);
      }
    }
    std::vector<std::int32_t> backoff_b = backoff_a;
    std::vector<std::uint8_t> counting_b = counting_a;
    wifi::edca_simd::FreezeColumns(start, base.data(), cand.data(),
                                   backoff_a.data(), counting_a.data(), n,
                                   magic);
    wifi::edca_simd::FreezeColumnsScalar(start, base.data(), cand.data(),
                                         backoff_b.data(), counting_b.data(),
                                         n, magic);
    EXPECT_EQ(backoff_a, backoff_b) << "trial " << trial << " n " << n;
    EXPECT_EQ(counting_a, counting_b) << "trial " << trial << " n " << n;
  }
}

// ------------------------------------------------------- AirtimeCache ----

TEST(AirtimeCache, MatchesDirectFrameAirtimeUnderRateChurn) {
  const wifi::PhyParams phy;
  wifi::AirtimeCache cache(phy);
  // Rate-adaptation ladder walks: the ARF-style pattern of stepping one
  // rung at a time, interleaved with random shape switches from a second
  // traffic mix — the alternation that thrashed the old per-contender
  // one-entry memo.
  constexpr std::int64_t kLadder[] = {6'000'000,  9'000'000,  12'000'000,
                                      18'000'000, 24'000'000, 36'000'000,
                                      48'000'000, 54'000'000, 120'000'000};
  constexpr int kRungs = static_cast<int>(std::size(kLadder));
  // Payload sizes a real mix produces: probe echoes, voice, video, bulk —
  // a handful of shapes, not a continuum (that is what makes a small shared
  // table hold the entire working set).
  constexpr std::int32_t kSizes[] = {84, 200, 600, 1200, 1460};
  sim::Rng rng(0xA1271);
  int rung = 4;
  std::int32_t size_bytes = 1200;
  for (int i = 0; i < 100'000; ++i) {
    if (rng.Bernoulli(0.3)) {
      rung = std::clamp(rung + (rng.Bernoulli(0.5) ? 1 : -1), 0, kRungs - 1);
    }
    if (rng.Bernoulli(0.1)) {
      size_bytes = kSizes[rng.UniformInt(0, std::size(kSizes) - 1)];
    }
    const std::int64_t rate = kLadder[rung];
    ASSERT_EQ(cache.Lookup(size_bytes, rate),
              phy.FrameAirtime(size_bytes, rate))
        << "i " << i << " size " << size_bytes << " rate " << rate;
  }
  // The working set is tiny, so the cache must be absorbing nearly all of
  // the churn (this is the whole point of sharing the table).
  EXPECT_GT(cache.hits(), cache.misses() * 10);
}

TEST(AirtimeCache, EvictionIsDeterministicAndValuesStayCorrect) {
  const wifi::PhyParams phy;
  // 4 slots + probe limit 4: any working set beyond 4 shapes must evict.
  wifi::AirtimeCache a(phy, 4);
  wifi::AirtimeCache b(phy, 4);
  EXPECT_EQ(a.slots(), 4u);
  sim::Rng rng(0xE71C7);
  for (int i = 0; i < 20'000; ++i) {
    const auto size = static_cast<std::int32_t>(rng.UniformInt(1, 64) * 20);
    const std::int64_t rate = rng.UniformInt(1, 16) * 6'000'000;
    const sim::Duration expect = phy.FrameAirtime(size, rate);
    ASSERT_EQ(a.Lookup(size, rate), expect);
    ASSERT_EQ(b.Lookup(size, rate), expect);
  }
  EXPECT_GT(a.evictions(), 0u);
  // Identical key sequences must take identical hit/miss/eviction paths —
  // the cache's COST sequence is deterministic, not just its values.
  EXPECT_EQ(a.hits(), b.hits());
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_EQ(a.evictions(), b.evictions());
}

TEST(AirtimeCache, ValuesAreCapacityInvariant) {
  const wifi::PhyParams phy;
  wifi::AirtimeCache tiny(phy, 1);
  wifi::AirtimeCache small(phy, 8);
  wifi::AirtimeCache big(phy, 1024);
  sim::Rng rng(0xCAFE5);
  for (int i = 0; i < 5'000; ++i) {
    const auto size = static_cast<std::int32_t>(rng.UniformInt(40, 1500));
    const std::int64_t rate = rng.UniformInt(1, 20) * 6'000'000;
    const sim::Duration expect = phy.FrameAirtime(size, rate);
    ASSERT_EQ(tiny.Lookup(size, rate), expect);
    ASSERT_EQ(small.Lookup(size, rate), expect);
    ASSERT_EQ(big.Lookup(size, rate), expect);
  }
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
  // First r-firing rearms at the SAME tick: the rearmed event joins the
  // same-tick FIFO behind b, exactly like a fresh ScheduleAt(now) would.
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
  for (const auto mode : {sim::SchedulerMode::kWheel,
                          sim::SchedulerMode::kHeapOnly}) {
    sim::EventLoop loop(mode);
    std::string order;
    loop.ScheduleAt(100, "test.a", [&] { order += 'a'; });
    const sim::Ticket early = loop.TakeTicket();
    loop.ScheduleAt(100, "test.b", [&] { order += 'b'; });
    const sim::Ticket late = loop.TakeTicket();
    loop.ScheduleAt(100, "test.c", [&] { order += 'c'; });
    // Armed at 50, long after its ticket was taken, the event still ties at
    // 100 where the ticket put it; its same-tick rearm with the later ticket
    // runs after b, and both run ahead of the same-tick lane (s).
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
    EXPECT_EQ(order, "atbtcds");
  }
}

// ------------------------------------------------- burst delivery batching ----

/// Closed-loop AP->station harness that records every delivery as
/// (flow, sim time): a BE bulk downlink plus a VI downlink whose TXOP limit
/// makes bursts happen, so the batching on/off differential covers both the
/// fresh-win path and the rearm continuation path.
class RecordingBss {
 public:
  explicit RecordingBss(bool batching)
      : channel_(loop_, sim::Rng(0xB0B0)) {
    channel_.SetDeliveryBatching(batching);
    const auto handler =
        wifi::Channel::DeliveryHandler::Member<&RecordingBss::OnDelivery>(
            this);
    const wifi::OwnerId ap = channel_.RegisterOwner(handler);
    const wifi::OwnerId sta = channel_.RegisterOwner(handler);
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

  [[nodiscard]] wifi::Channel& channel() { return channel_; }

  void RunFor(sim::Duration d) { loop_.RunFor(d); }

  [[nodiscard]] const std::vector<std::pair<std::uint32_t, sim::Time>>&
  deliveries() const {
    return deliveries_;
  }
  [[nodiscard]] std::uint64_t executed() const { return loop_.executed(); }

 private:
  struct Tx {
    wifi::ContenderId id = 0;
    wifi::OwnerId dest = 0;
    std::int32_t size = 0;
  };

  void Refill(std::uint32_t index) {
    net::Packet p;
    p.size_bytes = tx_[index].size;
    p.flow = index;
    channel_.Enqueue(tx_[index].id,
                     wifi::Frame{std::move(p), tx_[index].dest, 60'000'000});
  }

  void OnDelivery(wifi::Frame&& frame) {
    deliveries_.emplace_back(frame.packet.flow, loop_.now());
    Refill(frame.packet.flow);
  }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  Tx tx_[3];
  std::uint32_t tx_count_ = 0;
  std::vector<std::pair<std::uint32_t, sim::Time>> deliveries_;
};

TEST(BurstDelivery, HookOrderAndTimestampsIdenticalBatchingOnAndOff) {
  RecordingBss on(/*batching=*/true);
  RecordingBss off(/*batching=*/false);
  on.RunFor(sim::Millis(200));
  off.RunFor(sim::Millis(200));
  ASSERT_GT(on.deliveries().size(), 500u);
  // The whole contract in one comparison: every delivery hook fires for the
  // same frame at the same sim tick in the same order.
  EXPECT_EQ(on.deliveries(), off.deliveries());
  // executed() counts real dispatches: batching saves exactly the one
  // "wifi.deliver" event per delivered frame.
  EXPECT_EQ(off.executed() - on.executed(), off.deliveries().size());
  // The batching run must actually have exercised the rearm continuation.
  EXPECT_GT(on.channel().txop_continuations(), 0u);
  EXPECT_EQ(on.channel().txop_continuations(),
            off.channel().txop_continuations());
}

TEST(BurstDelivery, StageOverflowFallsBackToScheduledDelivery) {
  RecordingBss normal(/*batching=*/true);
  RecordingBss starved(/*batching=*/true);
  // Capacity 0 rejects every push: EVERY delivery takes the by-value
  // fallback closure, with batching still on.
  starved.channel().SetDeliverStageCapacityForTest(0);
  normal.RunFor(sim::Millis(100));
  starved.RunFor(sim::Millis(100));
  ASSERT_GT(normal.deliveries().size(), 300u);
  // The fallback is a same-tick scheduled event, so frames, order and
  // timestamps are unchanged — only the vehicle differs: one real
  // "wifi.deliver" dispatch per frame.
  EXPECT_EQ(normal.deliveries(), starved.deliveries());
  EXPECT_EQ(starved.executed() - normal.executed(),
            starved.deliveries().size());
}

// ------------------------------------- golden corpus batching differential ----

TEST(GoldenCorpusBatchingDifferential, ByteIdenticalWithBatchingOnAndOff) {
  namespace fs = std::filesystem;
  const fs::path corpus(KWIKR_GOLDEN_DIR);
  ASSERT_TRUE(fs::exists(corpus)) << corpus;
  int scenarios = 0;
  for (const auto& entry : fs::directory_iterator(corpus)) {
    if (entry.path().extension() != ".scenario") continue;
    ++scenarios;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();
    scenario::FaultScenario parsed;
    std::string error;
    ASSERT_TRUE(scenario::ParseFaultScenario(buf.str(), &parsed, &error))
        << entry.path() << ": " << error;

    wifi::Channel::SetDefaultDeliveryBatchingForTest(true);
    const std::string with_batching =
        scenario::ToCanonicalJson(scenario::RunFaultScenario(parsed));
    wifi::Channel::SetDefaultDeliveryBatchingForTest(false);
    const std::string without_batching =
        scenario::ToCanonicalJson(scenario::RunFaultScenario(parsed));
    wifi::Channel::SetDefaultDeliveryBatchingForTest(true);

    // Byte-identical against each other AND against the committed corpus:
    // batching may not move a single simulated result.
    EXPECT_EQ(with_batching, without_batching) << entry.path();
    std::ifstream want(fs::path(entry.path()).replace_extension(
                           ".expected.json"),
                       std::ios::binary);
    ASSERT_TRUE(want) << entry.path();
    std::ostringstream want_buf;
    want_buf << want.rdbuf();
    EXPECT_EQ(with_batching, want_buf.str()) << entry.path();
  }
  EXPECT_GT(scenarios, 0);
}

// ---------------------------------------------------- MergeShardStreams ----

TEST(MergeShardStreams, OrdersByTimeWithShardIndexTieBreak) {
  const std::string a = "{\"t\":5,\"s\":\"a1\"}\n{\"t\":9,\"s\":\"a2\"}\n";
  const std::string b = "{\"t\":5,\"s\":\"b1\"}\n{\"t\":7,\"s\":\"b2\"}\n";
  EXPECT_EQ(fleet::MergeShardStreams({a, b}),
            "{\"t\":5,\"s\":\"a1\"}\n{\"t\":5,\"s\":\"b1\"}\n"
            "{\"t\":7,\"s\":\"b2\"}\n{\"t\":9,\"s\":\"a2\"}\n");
}

TEST(MergeShardStreams, UntimedLinesInheritThePrecedingStamp) {
  // The summary annotation rides with its t:8 predecessor past shard 1's
  // t:9 line; negative stamps parse and order correctly too.
  const std::string a = "{\"t\":8}\n{\"summary\":1}\n";
  const std::string b = "{\"t\":-3}\n{\"t\":9}\n";
  EXPECT_EQ(fleet::MergeShardStreams({a, b}),
            "{\"t\":-3}\n{\"t\":8}\n{\"summary\":1}\n{\"t\":9}\n");
}

TEST(MergeShardStreams, SingleStreamAndUntimedInputsAreIdentity) {
  // A single shard must pass through byte-for-byte — this is what makes the
  // arm-merge safe on streams whose lines carry no "t" field at all.
  const std::string only = "{\"a\":1}\n{\"t\":4}\nno trailing newline";
  EXPECT_EQ(fleet::MergeShardStreams({only}), only);
  // Fully untimed streams concatenate whole-stream in shard order.
  EXPECT_EQ(fleet::MergeShardStreams({"x\ny\n", "p\nq\n"}), "x\ny\np\nq\n");
  EXPECT_EQ(fleet::MergeShardStreams({}), "");
}

TEST(FramePathFleet, ShardedContentionDigestIsWorkerCountInvariant) {
  constexpr std::size_t kTasks = 8;
  auto digest_for = [](std::size_t index) {
    MiniBss bss(0xF1D0'0000u + index);
    return bss.Digest(sim::Millis(50));
  };
  const auto serial = fleet::RunFleet(kTasks, 1, digest_for);
  const auto sharded = fleet::RunFleet(kTasks, 4, digest_for);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(serial.results.size(), kTasks);
  EXPECT_EQ(serial.results, sharded.results);
  // Sanity: the workload actually simulated something.
  for (const auto digest : serial.results) EXPECT_GT(digest, 1'000'000u);
}

TEST(FramePathFleet, ArmShardedWildPopulationIsByteIdentical) {
  // BSS-group intra-scenario sharding: a serial unsharded population versus
  // the same population with each environment's baseline/Kwikr arms split
  // into separate tasks across 4 workers. Everything observable — the
  // paired statistics, the event counts, and the merged timeline bytes —
  // must match exactly. Under ThreadSanitizer this is the run that races
  // two arms of one environment on different threads.
  scenario::WildConfig config;
  config.calls = 5;
  config.base_seed = 77;
  config.call_duration = sim::Seconds(2);
  config.timeline = true;
  config.timeline_interval = sim::Millis(50);

  config.jobs = 1;
  config.shard_arms = false;
  const scenario::WildResults serial = scenario::RunWildPopulation(config);

  config.jobs = 4;
  config.shard_arms = true;
  const scenario::WildResults sharded = scenario::RunWildPopulation(config);

  ASSERT_TRUE(serial.failures.empty());
  ASSERT_TRUE(sharded.failures.empty());
  ASSERT_EQ(serial.calls.size(), sharded.calls.size());
  for (std::size_t i = 0; i < serial.calls.size(); ++i) {
    const scenario::WildCallResult& a = serial.calls[i];
    const scenario::WildCallResult& b = sharded.calls[i];
    EXPECT_EQ(a.p95_tq_ms, b.p95_tq_ms) << "call " << i;
    EXPECT_EQ(a.p95_ta_ms, b.p95_ta_ms) << "call " << i;
    EXPECT_EQ(a.p95_tc_ms, b.p95_tc_ms) << "call " << i;
    EXPECT_EQ(a.probe_samples, b.probe_samples) << "call " << i;
    EXPECT_EQ(a.baseline_rate_kbps, b.baseline_rate_kbps) << "call " << i;
    EXPECT_EQ(a.kwikr_rate_kbps, b.kwikr_rate_kbps) << "call " << i;
    EXPECT_EQ(a.events_executed, b.events_executed) << "call " << i;
    EXPECT_EQ(a.timeline_jsonl, b.timeline_jsonl) << "call " << i;
    EXPECT_FALSE(a.timeline_jsonl.empty()) << "call " << i;
  }
}

}  // namespace
}  // namespace kwikr
