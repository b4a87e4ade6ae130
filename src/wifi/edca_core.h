#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/fastdiv.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace kwikr::wifi {

/// Opaque handle to a per-(owner, access-category) transmit queue.
using ContenderId = std::uint32_t;

/// The EDCA contention machine, batched: per-contender countdown state lives
/// in struct-of-arrays columns and every arbitration question ("who is
/// earliest", "who wins at t", "freeze the rest") is answered by a sweep
/// over the backlog instead of per-contender recomputation.
///
/// Layout (hot columns, indexed by ContenderId):
///   base_[id]     countdown origin: wait_ref + AIFS, set when counting
///                 (re)starts. A candidate start is base + backoff * slot.
///   backoff_[id]  remaining backoff slots; -1 = needs a fresh draw.
///   cw_[id]       current contention window (the CW ladder).
///   counting_[id] 1 while the countdown references the current idle period.
/// Static parameters (aifs, cw_min, cw_max) are separate cold columns; the
/// frame queues, retry counters and hooks stay with wifi::Channel — only the
/// contention math lives here, which is also what lets the randomized
/// differential test (tests/frame_path_test.cc) drive this machine against a
/// retained scalar reference without a Channel in the loop.
///
/// Sweeps are two-pass: a scalar pass walks the backlog entries in insertion
/// order, compacting dead ones and drawing missing backoffs (the RNG draw
/// ORDER is part of the repo's golden-corpus contract — it must match the
/// old per-contender code draw for draw), then a branchless pass computes
/// `base + backoff * slot` across the compacted ids at once and reduces or
/// freezes with conditional moves. Freezing divides the consumed idle time
/// by the slot length with a sim::FastDiv multiply — the ~25-cycle hardware
/// `div` this replaces ran once per counting non-winner per arbitration and
/// was the largest single cost of the old frame path. See DESIGN.md §14.
class EdcaCore {
 public:
  /// "No candidate" sentinel returned by the candidate sweeps.
  static constexpr sim::Time kNoCandidate =
      std::numeric_limits<sim::Time>::max();

  explicit EdcaCore(sim::Duration slot);

  /// Registers a contender with its (fixed) EDCA timing; returns its id.
  ContenderId Add(sim::Duration aifs, int cw_min, int cw_max);

  [[nodiscard]] std::size_t size() const { return backoff_.size(); }
  /// Live members of the backlog (contenders with pending traffic).
  [[nodiscard]] std::size_t backlog_live() const { return live_; }

  // Introspection (tests and the differential harness).
  [[nodiscard]] int cw(ContenderId id) const { return cw_[id]; }
  [[nodiscard]] int backoff(ContenderId id) const { return backoff_[id]; }
  [[nodiscard]] bool counting(ContenderId id) const {
    return counting_[id] != 0;
  }
  [[nodiscard]] bool in_backlog(ContenderId id) const {
    return in_backlog_[id] != 0;
  }

  /// The contender's queue went empty -> non-empty: (re)join contention with
  /// a fresh window and an undrawn backoff. With the medium idle the
  /// countdown starts at `now`; otherwise it waits for the next BeginIdle.
  void Join(ContenderId id, sim::Time now, bool medium_idle);

  /// The contender's queue drained: leave contention. O(1) — the backlog
  /// entry goes stale and is compacted out by the next sweep.
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
  /// Backlog entry: a contender plus the generation it joined with. An entry
  /// is live iff (in_backlog_, stamp_) still match — leaving contention just
  /// flips the flag (O(1)); dead entries are skipped and compacted in place
  /// by the sweeps that walk the backlog anyway. The stamp disambiguates
  /// "left and rejoined before the next sweep": the stale earlier entry must
  /// not alias the fresh one, or the contender would be visited twice (and
  /// the RNG draw order would shift).
  struct BacklogEntry {
    ContenderId id;
    std::uint32_t stamp;
  };

  void DrawIfNeeded(ContenderId id, sim::Rng& rng) {
    if (backoff_[id] < 0) {
      backoff_[id] = static_cast<std::int32_t>(rng.UniformInt(0, cw_[id]));
    }
  }

  /// Scalar pass shared by every sweep: walks the backlog entries in
  /// insertion order, compacting dead ones out in place, and calls `fn(id)`
  /// for each live contender. Returns the live count; entries [0, count)
  /// are then valid input for the branchless column passes. `fn` must not
  /// append to backlogged_.
  template <typename Fn>
  std::size_t CompactBacklog(Fn&& fn) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < backlogged_.size(); ++i) {
      const BacklogEntry entry = backlogged_[i];
      if (in_backlog_[entry.id] == 0 || stamp_[entry.id] != entry.stamp) {
        continue;
      }
      backlogged_[out++] = entry;
      fn(entry.id);
    }
    backlogged_.resize(out);
    return out;
  }

  sim::Duration slot_;
  sim::FastDiv slot_div_;

  // Hot SoA columns (indexed by ContenderId).
  std::vector<sim::Time> base_;
  std::vector<std::int32_t> backoff_;
  std::vector<std::int32_t> cw_;
  std::vector<std::uint8_t> counting_;
  // Fixed parameters + backlog membership (cold columns).
  std::vector<sim::Duration> aifs_;
  std::vector<std::int32_t> cw_min_;
  std::vector<std::int32_t> cw_max_;
  std::vector<std::uint8_t> in_backlog_;
  std::vector<std::uint32_t> stamp_;
  /// Candidate-time scratch column written by Arbitrate's first pass and
  /// read by its branchless freeze pass.
  std::vector<sim::Time> cand_;

  std::vector<BacklogEntry> backlogged_;
  std::size_t live_ = 0;
};

}  // namespace kwikr::wifi
