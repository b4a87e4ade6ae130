#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "faults/fault_spec.h"
#include "faults/gilbert_elliott.h"
#include "net/wired_link.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "wifi/channel.h"

namespace kwikr::core {
class PingPairProber;
}
namespace kwikr::wifi {
class AccessPoint;
class Station;
}

namespace kwikr::faults {

/// Everything the injector did, as plain counters. Deterministic in the
/// (seed, spec) pair; also mirrored into an obs::MetricsRegistry when one
/// is attached (as `fault_*` series).
struct FaultCounters {
  std::uint64_t ge_losses = 0;        ///< attempts failed by the GE chain.
  std::uint64_t ge_bursts = 0;        ///< Good→Bad transitions taken.
  std::uint64_t reordered = 0;        ///< frames delivered late on purpose.
  std::uint64_t duplicated = 0;       ///< extra frame copies delivered.
  std::uint64_t dropped = 0;          ///< frames swallowed post-MAC.
  std::uint64_t wan_losses = 0;       ///< packets lost on the wired link.
  std::uint64_t wan_jitters = 0;      ///< packets held back by WAN jitter.
  std::uint64_t wmm_downgrades = 0;   ///< prioritized packets demoted to BE.
  std::uint64_t churn_switches = 0;   ///< link-quality flips performed.
  std::uint64_t schedule_toggles = 0; ///< mid-call schedule entries fired.
};

/// Realizes a FaultSpec against a simulated environment: installs the hook
/// points (wifi::Channel error model + delivery faults, AP downlink
/// classifier, net::WiredLink faults, station link churn, prober clock
/// skew) and arms the mid-call schedule. One injector serves one event
/// loop; construct it next to the Testbed and attach the parts the
/// scenario actually builds — every Attach* is optional and composable.
///
/// Determinism contract: all randomness comes from the sim::Rng passed at
/// construction (fork it from the experiment seed with a dedicated stream),
/// and every decision is made at a simulated event, so the same
/// (seed, spec) produces the identical impairment trace on every run and
/// for any fleet worker count.
class FaultInjector {
 public:
  FaultInjector(sim::EventLoop& loop, FaultSpec spec, sim::Rng rng,
                obs::MetricsRegistry* metrics = nullptr);

  ~FaultInjector();  // out of line: ChurnState is incomplete here.

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the Gilbert–Elliott error model (composed with `inner`:
  /// independent loss processes) and the delivery mangling hook
  /// (reorder/duplicate/drop) on the shared medium. Both hooks dispatch
  /// statically into this injector (FunctionRef::Member), so the injector
  /// must outlive the channel's use of them — it already must, as the
  /// armed schedule references it. `inner` is retained by reference too.
  void AttachChannel(wifi::Channel& channel,
                     wifi::FrameErrorModel inner = nullptr);

  /// Installs the WMM-partial downlink classifier (kPartial mode only;
  /// kOff is applied via AccessPoint::Config::wmm_enabled by the caller).
  void AttachAccessPoint(wifi::AccessPoint& ap);

  /// Installs WAN loss/jitter on one wired link (usually the downlink).
  void AttachWan(net::WiredLink& link);

  /// Starts MAC-rate downshift churn on `station`: every churn period the
  /// station flips between its current link quality and the configured
  /// degraded one. No-op unless churn is configured.
  void AttachStationChurn(wifi::Station& station);

  /// Installs the skewed client clock on a prober. No-op without skew.
  void AttachProber(core::PingPairProber& prober);

  /// Arms the mid-call schedule (call once, after the attaches).
  void Arm();

  /// Whether a fault class is currently active (initially: configured
  /// faults are active; the schedule toggles them).
  [[nodiscard]] bool active(FaultKind kind) const {
    return active_[static_cast<int>(kind)];
  }

  [[nodiscard]] const FaultCounters& counters() const { return counters_; }
  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

  /// The Gilbert–Elliott chain (null when GE is not configured) — the
  /// timeline sampler's fault-state probe surface.
  [[nodiscard]] const GilbertElliott* gilbert_elliott() const {
    return ge_.get();
  }

  /// Attaches a flight recorder: every counted fault action (GE bursts and
  /// losses, mangles, WAN faults, schedule toggles, ...) also records a
  /// kFaultTransition event whose detail is the counter name. The names are
  /// string literals at the count sites, so recording stays alloc-free.
  /// Null detaches.
  void SetFlightRecorder(obs::FlightRecorder* recorder) {
    recorder_ = recorder;
  }

 private:
  struct ChurnState;

  void ChurnTick(ChurnState& churn);
  void CountObs(const char* which, std::uint64_t n = 1);
  /// FrameErrorModel target: GE verdict composed with inner_error_model_.
  double ChannelErrorProb(wifi::OwnerId tx, wifi::OwnerId rx,
                          const wifi::Frame& frame);
  /// DeliveryFaultHook target: reorder/duplicate/drop per spec_.mangle.
  wifi::Channel::DeliveryFault MangleDelivery(const wifi::Frame& frame,
                                              sim::Time at);

  sim::EventLoop& loop_;
  FaultSpec spec_;
  sim::Rng rng_;
  obs::MetricsRegistry* metrics_;
  obs::FlightRecorder* recorder_ = nullptr;
  bool active_[kNumFaultKinds] = {};
  std::unique_ptr<GilbertElliott> ge_;
  wifi::FrameErrorModel inner_error_model_;
  std::vector<std::unique_ptr<ChurnState>> churns_;
  FaultCounters counters_;
};

}  // namespace kwikr::faults
