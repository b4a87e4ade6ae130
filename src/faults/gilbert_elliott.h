#pragma once

#include <cstdint>

#include "sim/rng.h"
#include "sim/time.h"

namespace kwikr::faults {

/// Two-state Gilbert–Elliott bursty-loss channel (the Markov impairment
/// model of Teigen et al., "A Model of WiFi Performance With Bounded
/// Latency"): the channel dwells in a Good or a Bad state for exponentially
/// distributed sojourn times and applies a per-state per-attempt loss
/// probability. Driven by *sim time*, so loss bursts have a duration rather
/// than a frame count — a fast sender and a slow sender see the same burst.
///
/// Deterministic: all dwell draws come from the owned sim::Rng, and the
/// chain advances only in `LossProb`, whose call times are themselves
/// deterministic in a seeded simulation. Queries must be non-decreasing in
/// time (the natural order inside one event loop).
class GilbertElliott {
 public:
  struct Config {
    sim::Duration mean_good = sim::Millis(400);
    sim::Duration mean_bad = sim::Millis(40);
    double loss_good = 0.0;
    double loss_bad = 0.7;
  };

  /// Throws std::invalid_argument when either mean dwell is below 1 ms:
  /// shorter means flip the state millions of times per simulated second.
  GilbertElliott(Config config, sim::Rng rng);

  /// Per-attempt loss probability governing a transmission at `now`,
  /// advancing the chain across every dwell boundary passed since the last
  /// query. Starts in the Good state at the time of the first query.
  double LossProb(sim::Time now);

  [[nodiscard]] bool bad() const { return bad_; }
  /// State flips performed so far (a burst = one Good→Bad transition).
  [[nodiscard]] std::uint64_t transitions() const { return transitions_; }

 private:
  [[nodiscard]] sim::Duration DrawDwell();

  Config config_;
  sim::Rng rng_;
  bool bad_ = false;
  bool started_ = false;
  sim::Time next_transition_ = 0;
  std::uint64_t transitions_ = 0;
};

}  // namespace kwikr::faults
