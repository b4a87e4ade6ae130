#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace kwikr::wifi {

/// Opaque handle to a per-(owner, access-category) transmit queue.
using ContenderId = std::uint32_t;

/// The EDCA contention machine: one countdown state per contender and a
/// join-ordered backlog of the contenders with pending traffic. Every
/// arbitration question ("who is earliest", "who wins at t", "freeze the
/// rest") is one pass over the backlog.
///
/// A contender's next possible transmit start is `base + backoff * slot`,
/// where `base` is the idle reference plus its AIFS. The frame queues, retry
/// counters and hooks stay with wifi::Channel; only the contention math
/// lives here, which is what lets the randomized differential test
/// (tests/frame_path_test.cc) drive this machine against a scalar reference
/// without a Channel in the loop.
///
/// Two orders are part of the golden-corpus contract: backoffs are drawn from
/// the RNG in backlog order, and winners are reported in backlog order. A
/// contender that leaves and rejoins moves to the back of the backlog. See
/// DESIGN.md §14.
class EdcaCore {
 public:
  /// "No candidate" sentinel returned by the candidate sweeps.
  static constexpr sim::Time kNoCandidate =
      std::numeric_limits<sim::Time>::max();

  explicit EdcaCore(sim::Duration slot) : slot_(slot) {}

  /// Registers a contender with its (fixed) EDCA timing; returns its id.
  ContenderId Add(sim::Duration aifs, int cw_min, int cw_max);

  [[nodiscard]] std::size_t size() const { return contenders_.size(); }
  /// Members of the backlog (contenders with pending traffic).
  [[nodiscard]] std::size_t backlog_live() const { return backlog_.size(); }

  // Introspection (tests and the differential harness).
  [[nodiscard]] int cw(ContenderId id) const { return contenders_[id].cw; }
  [[nodiscard]] int backoff(ContenderId id) const {
    return contenders_[id].backoff;
  }
  [[nodiscard]] bool counting(ContenderId id) const {
    return contenders_[id].counting;
  }
  [[nodiscard]] bool in_backlog(ContenderId id) const {
    return contenders_[id].in_backlog;
  }

  /// The contender's queue went empty -> non-empty: (re)join contention with
  /// a fresh window and an undrawn backoff. With the medium idle the
  /// countdown starts at `now`; otherwise it waits for the next BeginIdle.
  void Join(ContenderId id, sim::Time now, bool medium_idle);

  /// The contender's queue drained: leave contention.
  void Leave(ContenderId id);

  /// Idle transition: restart every backlogged countdown at `now`, draw
  /// missing backoffs (in backlog order), and return the earliest candidate
  /// start time (kNoCandidate when the backlog is empty).
  sim::Time BeginIdle(sim::Time now, sim::Rng& rng);

  /// Re-evaluates candidates mid-idle (a contender joined or left): draws
  /// missing backoffs for counting contenders and returns their earliest
  /// candidate (kNoCandidate when none are counting).
  sim::Time EarliestCandidate(sim::Rng& rng);

  /// Arbitration at `start`: every counting contender whose candidate time
  /// equals `start` is appended to `winners` (in backlog order) and keeps
  /// counting; every other counting contender freezes — its backoff is
  /// decremented by the idle slots consumed before `start` and its countdown
  /// stops until the next BeginIdle.
  void Arbitrate(sim::Time start, std::vector<ContenderId>& winners);

  /// Successful transmission: the window resets and the post-transmission
  /// backoff will be drawn fresh.
  void OnTxSuccess(ContenderId id);

  /// Failed attempt that will be retried: the window doubles (CW ladder) and
  /// the countdown stops until the next idle transition.
  void OnTxFailure(ContenderId id);

  /// Frame dropped at the retry limit: the window resets for the next frame.
  void OnRetryDrop(ContenderId id);

 private:
  struct Contender {
    sim::Duration aifs = 0;
    int cw_min = 0;
    int cw_max = 0;
    int cw = 0;  ///< current contention window (the CW ladder).
    int backoff = -1;  ///< remaining backoff slots; -1 = needs a draw.
    sim::Time base = 0;  ///< countdown origin: idle reference + AIFS.
    bool counting = false;  ///< countdown runs in the current idle period.
    bool in_backlog = false;
  };

  [[nodiscard]] sim::Time Candidate(const Contender& c) const {
    return c.base + static_cast<sim::Duration>(c.backoff) * slot_;
  }

  static void DrawIfNeeded(Contender& c, sim::Rng& rng) {
    if (c.backoff < 0) c.backoff = static_cast<int>(rng.UniformInt(0, c.cw));
  }

  sim::Duration slot_;
  std::vector<Contender> contenders_;
  /// Backlogged contenders in join order. Leave erases in O(backlog); a
  /// channel's backlog is at most four access categories per owner.
  std::vector<ContenderId> backlog_;
};

}  // namespace kwikr::wifi
