#include "wifi/edca_core.h"

#include <algorithm>
#include <cassert>

namespace kwikr::wifi {

ContenderId EdcaCore::Add(sim::Duration aifs, int cw_min, int cw_max) {
  contenders_.push_back(Contender{aifs, cw_min, cw_max, /*cw=*/cw_min});
  backlog_.reserve(contenders_.size());  // Join never allocates mid-run.
  return static_cast<ContenderId>(contenders_.size() - 1);
}

void EdcaCore::Join(ContenderId id, sim::Time now, bool medium_idle) {
  Contender& c = contenders_[id];
  assert(!c.in_backlog);
  c.in_backlog = true;
  backlog_.push_back(id);
  c.backoff = -1;  // fresh draw at the next sweep.
  c.cw = c.cw_min;
  c.counting = medium_idle;  // otherwise it starts at the next BeginIdle.
  if (medium_idle) c.base = now + c.aifs;
}

void EdcaCore::Leave(ContenderId id) {
  Contender& c = contenders_[id];
  assert(c.in_backlog);
  c.in_backlog = false;
  c.counting = false;
  backlog_.erase(std::find(backlog_.begin(), backlog_.end(), id));
}

sim::Time EdcaCore::BeginIdle(sim::Time now, sim::Rng& rng) {
  sim::Time earliest = kNoCandidate;
  for (const ContenderId id : backlog_) {
    Contender& c = contenders_[id];
    c.base = now + c.aifs;
    c.counting = true;
    DrawIfNeeded(c, rng);
    earliest = std::min(earliest, Candidate(c));
  }
  return earliest;
}

sim::Time EdcaCore::EarliestCandidate(sim::Rng& rng) {
  sim::Time earliest = kNoCandidate;
  for (const ContenderId id : backlog_) {
    Contender& c = contenders_[id];
    if (!c.counting) continue;
    DrawIfNeeded(c, rng);
    earliest = std::min(earliest, Candidate(c));
  }
  return earliest;
}

void EdcaCore::Arbitrate(sim::Time start, std::vector<ContenderId>& winners) {
  // Counting contenders always have a drawn backoff here: the sweep that
  // armed this arbitration drew them.
  for (const ContenderId id : backlog_) {
    Contender& c = contenders_[id];
    if (!c.counting) continue;
    if (Candidate(c) == start) {
      winners.push_back(id);  // keeps counting through its transmission.
      continue;
    }
    const sim::Duration delta = start - c.base;
    const auto consumed = static_cast<int>(delta > 0 ? delta / slot_ : 0);
    c.backoff = std::max(0, c.backoff - consumed);
    c.counting = false;
  }
}

void EdcaCore::OnTxSuccess(ContenderId id) {
  Contender& c = contenders_[id];
  c.cw = c.cw_min;
  c.backoff = -1;  // post-transmission backoff: fresh draw.
}

void EdcaCore::OnTxFailure(ContenderId id) {
  Contender& c = contenders_[id];
  c.cw = std::min(c.cw * 2 + 1, c.cw_max);
  c.backoff = -1;      // fresh draw from the doubled window.
  c.counting = false;  // resumes at the next idle transition.
}

void EdcaCore::OnRetryDrop(ContenderId id) {
  Contender& c = contenders_[id];
  c.cw = c.cw_min;
  c.backoff = -1;
}

}  // namespace kwikr::wifi
