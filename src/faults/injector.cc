#include "faults/injector.h"

#include <algorithm>
#include <utility>

#include "core/ping_pair.h"
#include "wifi/access_point.h"
#include "wifi/station.h"

namespace kwikr::faults {

/// Flip-flop between a station's healthy link and the degraded one; owned
/// by the injector so the timer callback has a stable address.
struct FaultInjector::ChurnState {
  ChurnState(FaultInjector* injector, sim::EventLoop& loop,
             sim::Duration period, wifi::Station* s, wifi::LinkQuality h)
      : station(s),
        healthy(h),
        timer(loop, period, [injector, this] { injector->ChurnTick(*this); }) {
  }

  wifi::Station* station;
  wifi::LinkQuality healthy;
  bool degraded = false;
  sim::PeriodicTimer timer;
};

FaultInjector::FaultInjector(sim::EventLoop& loop, FaultSpec spec,
                             sim::Rng rng, obs::MetricsRegistry* metrics)
    : loop_(loop), spec_(std::move(spec)), rng_(rng), metrics_(metrics) {
  auto set = [this](FaultKind kind, bool on) {
    active_[static_cast<int>(kind)] = on;
  };
  set(FaultKind::kGilbertElliott, spec_.ge.enable);
  set(FaultKind::kReorder, spec_.mangle.reorder_prob > 0.0);
  set(FaultKind::kDuplicate, spec_.mangle.duplicate_prob > 0.0);
  set(FaultKind::kDrop, spec_.mangle.drop_prob > 0.0);
  set(FaultKind::kWan, spec_.wan.loss_prob > 0.0 || spec_.wan.jitter_prob > 0.0);
  set(FaultKind::kChurn, spec_.churn.period_ms > 0.0);
  set(FaultKind::kSkew, spec_.skew.ppm != 0.0 || spec_.skew.offset_ms != 0.0);
  set(FaultKind::kWmm, spec_.wmm.mode == FaultSpec::WmmMode::kPartial);

  if (spec_.ge.enable) {
    GilbertElliott::Config ge;
    ge.mean_good = sim::FromSeconds(spec_.ge.mean_good_ms / 1000.0);
    ge.mean_bad = sim::FromSeconds(spec_.ge.mean_bad_ms / 1000.0);
    ge.loss_good = spec_.ge.loss_good;
    ge.loss_bad = spec_.ge.loss_bad;
    // The chain gets its own forked stream so attaching more hook points
    // never perturbs the burst schedule.
    ge_ = std::make_unique<GilbertElliott>(ge, rng_.Fork());
  }
}

FaultInjector::~FaultInjector() = default;

void FaultInjector::CountObs(const char* which, std::uint64_t n) {
  if (n == 0) return;
  if (recorder_ != nullptr) {
    recorder_->Record(loop_.now(), obs::FlightEventKind::kFaultTransition, 0,
                      n, which);
  }
  if (metrics_ == nullptr) return;
  metrics_->GetCounter(std::string("fault_") + which + "_total").Add(n);
}

void FaultInjector::AttachChannel(wifi::Channel& channel,
                                  wifi::FrameErrorModel inner) {
  inner_error_model_ = inner;
  channel.SetFrameErrorModel(
      wifi::FrameErrorModel::Member<&FaultInjector::ChannelErrorProb>(this));

  const FaultSpec::MangleSpec& mangle = spec_.mangle;
  if (mangle.reorder_prob > 0.0 || mangle.duplicate_prob > 0.0 ||
      mangle.drop_prob > 0.0) {
    channel.SetDeliveryFaultHook(
        wifi::Channel::DeliveryFaultHook::Member<
            &FaultInjector::MangleDelivery>(this));
  }
}

double FaultInjector::ChannelErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                                       const wifi::Frame& frame) {
  // The GE verdict is drawn here (from the injector's rng) instead of
  // returning a probability: that keeps the loss count exact and the
  // burst schedule independent of the channel's own rng stream.
  if (ge_ != nullptr && active(FaultKind::kGilbertElliott)) {
    const std::uint64_t before = ge_->transitions();
    const bool was_bad = ge_->bad();
    const double p = ge_->LossProb(loop_.now());
    const std::uint64_t flips = ge_->transitions() - before;
    if (flips > 0) {
      const std::uint64_t bursts = was_bad ? flips / 2 : (flips + 1) / 2;
      counters_.ge_bursts += bursts;
      CountObs("ge_bursts", bursts);
    }
    if (p > 0.0 && rng_.Bernoulli(p)) {
      ++counters_.ge_losses;
      CountObs("ge_losses");
      return 1.0;  // this attempt is lost regardless of the rest.
    }
  }
  return inner_error_model_ ? inner_error_model_(tx, rx, frame) : 0.0;
}

wifi::Channel::DeliveryFault FaultInjector::MangleDelivery(
    const wifi::Frame& /*frame*/, sim::Time /*at*/) {
  const FaultSpec::MangleSpec& mangle = spec_.mangle;
  wifi::Channel::DeliveryFault fault;
  if (active(FaultKind::kDrop) && mangle.drop_prob > 0.0 &&
      rng_.Bernoulli(mangle.drop_prob)) {
    fault.drop = true;
    ++counters_.dropped;
    CountObs("dropped");
    return fault;
  }
  if (active(FaultKind::kDuplicate) && mangle.duplicate_prob > 0.0 &&
      rng_.Bernoulli(mangle.duplicate_prob)) {
    fault.duplicates = 1;
    ++counters_.duplicated;
    CountObs("duplicated");
  }
  if (active(FaultKind::kReorder) && mangle.reorder_prob > 0.0 &&
      rng_.Bernoulli(mangle.reorder_prob)) {
    fault.delay = sim::FromSeconds(mangle.reorder_delay_ms / 1000.0);
    ++counters_.reordered;
    CountObs("reordered");
  }
  return fault;
}

void FaultInjector::AttachAccessPoint(wifi::AccessPoint& ap) {
  if (spec_.wmm.mode != FaultSpec::WmmMode::kPartial) return;
  const double honor = spec_.wmm.honor_prob;
  ap.SetDownlinkClassifier(
      [this, honor](const net::Packet&,
                    wifi::AccessCategory chosen) -> wifi::AccessCategory {
        if (!active(FaultKind::kWmm) ||
            chosen == wifi::AccessCategory::kBestEffort) {
          return chosen;
        }
        if (rng_.Bernoulli(honor)) return chosen;
        ++counters_.wmm_downgrades;
        CountObs("wmm_downgrades");
        return wifi::AccessCategory::kBestEffort;
      });
}

void FaultInjector::AttachWan(net::WiredLink& link) {
  const FaultSpec::WanSpec wan = spec_.wan;
  if (wan.loss_prob <= 0.0 && wan.jitter_prob <= 0.0) return;
  link.SetFaultHook(
      [this, wan](const net::Packet&) -> net::WiredLink::LinkFault {
        net::WiredLink::LinkFault fault;
        if (!active(FaultKind::kWan)) return fault;
        if (wan.loss_prob > 0.0 && rng_.Bernoulli(wan.loss_prob)) {
          fault.drop = true;
          ++counters_.wan_losses;
          CountObs("wan_losses");
          return fault;
        }
        if (wan.jitter_prob > 0.0 && rng_.Bernoulli(wan.jitter_prob)) {
          fault.extra_delay = sim::FromSeconds(wan.jitter_ms / 1000.0);
          ++counters_.wan_jitters;
          CountObs("wan_jitters");
        }
        return fault;
      });
}

void FaultInjector::AttachStationChurn(wifi::Station& station) {
  if (spec_.churn.period_ms <= 0.0) return;
  const sim::Duration period =
      std::max<sim::Duration>(sim::FromSeconds(spec_.churn.period_ms / 1000.0),
                              sim::Millis(1));
  auto state = std::make_unique<ChurnState>(
      this, loop_, period, &station,
      wifi::LinkQuality{station.rate_bps(), station.frame_error_prob()});
  state->timer.Start(period);
  churns_.push_back(std::move(state));
}

void FaultInjector::ChurnTick(ChurnState& churn) {
  if (!active(FaultKind::kChurn)) {
    // Schedule turned churn off: restore the healthy link once.
    if (churn.degraded) {
      churn.station->SetLinkQuality(churn.healthy);
      churn.degraded = false;
    }
    return;
  }
  churn.degraded = !churn.degraded;
  churn.station->SetLinkQuality(
      churn.degraded ? wifi::LinkQuality{spec_.churn.low_rate_bps,
                                         spec_.churn.low_error_prob}
                     : churn.healthy);
  ++counters_.churn_switches;
  CountObs("churn_switches");
}

void FaultInjector::AttachProber(core::PingPairProber& prober) {
  if (spec_.skew.ppm == 0.0 && spec_.skew.offset_ms == 0.0) return;
  const sim::Duration offset =
      sim::FromSeconds(spec_.skew.offset_ms / 1000.0);
  const double ppm = spec_.skew.ppm;
  prober.SetClock([this, offset, ppm](sim::Time t) -> sim::Time {
    if (!active(FaultKind::kSkew)) return t;
    return t + offset +
           static_cast<sim::Time>(static_cast<double>(t) * ppm * 1e-6);
  });
}

void FaultInjector::Arm() {
  for (const FaultScheduleEntry& entry : spec_.schedule) {
    const int kind = static_cast<int>(entry.kind);
    const bool enable = entry.enable;
    auto toggle = [this, kind, enable] {
      active_[kind] = enable;
      ++counters_.schedule_toggles;
      CountObs("schedule_toggles");
    };
    static_assert(sim::InlineTask::fits_inline<decltype(toggle)>);
    loop_.ScheduleAt(entry.at, "fault.schedule", std::move(toggle));
  }
}

}  // namespace kwikr::faults
