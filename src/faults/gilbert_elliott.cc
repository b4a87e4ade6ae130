#include "faults/gilbert_elliott.h"

#include <algorithm>
#include <stdexcept>

namespace kwikr::faults {

GilbertElliott::GilbertElliott(Config config, sim::Rng rng)
    : config_(config), rng_(rng) {
  if (config_.mean_good < sim::Millis(1) || config_.mean_bad < sim::Millis(1)) {
    throw std::invalid_argument(
        "GilbertElliott: mean dwell times must be at least 1 ms");
  }
}

sim::Duration GilbertElliott::DrawDwell() {
  const sim::Duration mean = bad_ ? config_.mean_bad : config_.mean_good;
  const double drawn = rng_.Exponential(static_cast<double>(mean));
  return std::max<sim::Duration>(static_cast<sim::Duration>(drawn), 1);
}

double GilbertElliott::LossProb(sim::Time now) {
  if (!started_) {
    started_ = true;
    next_transition_ = now + DrawDwell();
  }
  while (now >= next_transition_) {
    bad_ = !bad_;
    ++transitions_;
    next_transition_ += DrawDwell();
  }
  return bad_ ? config_.loss_bad : config_.loss_good;
}

}  // namespace kwikr::faults
