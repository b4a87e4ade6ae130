#include "layers.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <stdexcept>

#include "obs/exporters.h"
#include "rtc/ukf.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "spec.h"
#include "wifi/channel.h"
#include "wifi/edca.h"

// --------------------------------------------------- allocation counting ----
// Process-wide replacements of the global allocation operators. They only
// count while the traced run enables them; otherwise they cost one relaxed
// load on top of malloc.

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (std::max<std::size_t>(size, 1) + a - 1) & ~(a - 1);
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kwikr::benchmark {

void SetAllocCounting(bool enabled) {
  g_counting.store(enabled, std::memory_order_relaxed);
}

AllocCount AllocsCounted() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

// -------------------------------------------------------------- spans ----

SpanLog::SpanLog(std::string workload)
    : origin_(std::chrono::steady_clock::now()), workload_(std::move(workload)) {}

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::Begin(std::string name, int parent, double arg) {
  const std::int64_t now = NowNs();
  spans_.push_back(Span{std::move(name), parent, arg, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_ns = NowNs();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  obs::ChromeTraceWriter writer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::SpanArgs args = {{"id", static_cast<double>(i)},
                          {"parent", static_cast<double>(s.parent)}};
    if (s.arg >= 0.0) args.emplace_back("env", s.arg);
    const sim::Duration duration = s.end_ns - s.begin_ns;
    writer.OnSpan(s.name.c_str(), workload_.c_str(), s.begin_ns, duration,
                  static_cast<double>(duration) / 1e3, args);
  }
  return writer.WriteJson(path);
}

// ------------------------------------------------------------ kernels ----

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedNs(Clock::time_point begin) {
  return std::chrono::duration<double, std::nano>(Clock::now() - begin).count();
}

constexpr int kBatches = 5;

/// Frame-hop chains: arbitration -> tx_done -> deliver, each hop a fresh
/// ScheduleIn carrying a frame-sized payload, like the wifi fast path.
struct FrameHopChains {
  struct Payload {
    std::array<std::uint64_t, 8> words{};
  };
  struct Chain {
    sim::EventLoop* loop = nullptr;
    int hops_left = 0;
    void Arbitrate(Payload p) {
      loop->ScheduleIn(sim::Micros(9), "kernel.tx_done",
                       [this, p] { TxDone(p); });
    }
    void TxDone(Payload p) {
      loop->ScheduleIn(sim::Micros(86), "kernel.deliver",
                       [this, p] { Deliver(p); });
    }
    void Deliver(Payload p) {
      p.words[0] += 1;
      if (--hops_left > 0) {
        loop->ScheduleIn(sim::Micros(5), "kernel.arbitration",
                         [this, p] { Arbitrate(p); });
      }
    }
  };

  /// Runs every chain for `hops` hops; returns ns per dispatched event.
  double Run(int hops) {
    for (std::size_t i = 0; i < chains.size(); ++i) {
      chains[i] = Chain{&loop, hops};
      Chain* chain = &chains[i];
      loop.ScheduleIn(sim::Micros(1 + static_cast<std::int64_t>(i)),
                      [chain] { chain->Deliver(Payload{}); });
    }
    const std::uint64_t before = loop.executed();
    const auto begin = Clock::now();
    loop.Run();
    return ElapsedNs(begin) / static_cast<double>(loop.executed() - before);
  }

  sim::EventLoop loop;
  std::array<Chain, 128> chains;
};

/// One AP contending on all four access categories plus two stations with
/// bulk uplinks. Every delivered or retry-dropped frame refills its source,
/// so every queue stays full: the saturated frame cycle.
class SaturatedChannel {
 public:
  SaturatedChannel() : channel_(loop_, sim::Rng(0xC0FFEE)) {
    const auto on_delivery =
        wifi::Channel::DeliveryHandler::Member<&SaturatedChannel::OnDelivery>(
            this);
    const wifi::OwnerId ap = channel_.RegisterOwner(on_delivery);
    const wifi::OwnerId sta1 = channel_.RegisterOwner(on_delivery);
    const wifi::OwnerId sta2 = channel_.RegisterOwner(on_delivery);
    channel_.SetDropHandler(
        wifi::Channel::DropHandler::Member<&SaturatedChannel::OnDrop>(this));
    using wifi::AccessCategory;
    Add(ap, sta1, AccessCategory::kBackground, 1200);
    Add(ap, sta1, AccessCategory::kBestEffort, 1200);
    Add(ap, sta2, AccessCategory::kVideo, 1200);
    Add(ap, sta2, AccessCategory::kVoice, 200);
    Add(sta1, ap, AccessCategory::kBestEffort, 1200);
    Add(sta2, ap, AccessCategory::kBestEffort, 1200);
    for (std::uint32_t i = 0; i < sources_.size(); ++i) {
      for (int k = 0; k < 32; ++k) Refill(i);
    }
  }

  /// Runs `horizon` of simulated time; returns ns per delivered frame.
  double Run(sim::Duration horizon) {
    const std::uint64_t before = delivered_;
    const auto begin = Clock::now();
    loop_.RunFor(horizon);
    return ElapsedNs(begin) / static_cast<double>(delivered_ - before);
  }

 private:
  struct Source {
    wifi::ContenderId id = 0;
    wifi::Frame frame;
  };

  void Add(wifi::OwnerId owner, wifi::OwnerId dest, wifi::AccessCategory ac,
           std::int32_t size_bytes) {
    Source source;
    source.id = channel_.CreateContender(
        owner, ac, wifi::DefaultEdcaParams()[wifi::Index(ac)], 64);
    source.frame.dest = dest;
    source.frame.phy_rate_bps = 120'000'000;
    source.frame.packet.size_bytes = size_bytes;
    source.frame.packet.flow = static_cast<std::uint32_t>(sources_.size());
    sources_.push_back(source);
  }
  void Refill(std::uint32_t source) {
    channel_.Enqueue(sources_[source].id, wifi::Frame(sources_[source].frame));
  }
  void OnDelivery(wifi::Frame&& frame) {
    ++delivered_;
    Refill(frame.packet.flow);
  }
  void OnDrop(const wifi::Frame& frame) { Refill(frame.packet.flow); }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  std::vector<Source> sources_;
  std::uint64_t delivered_ = 0;
};

/// ns per LeakyBucketUkf::Update over a fixed, varied input stream.
double UkfUpdateNs(int updates) {
  struct Input {
    double delay_s, bytes, inter_send_s, tc_s;
  };
  std::vector<Input> inputs(1024);
  sim::Rng rng(7);
  for (Input& in : inputs) {
    in = {rng.Uniform(0.0, 0.08), rng.Uniform(200.0, 1200.0),
          rng.Uniform(0.005, 0.03), rng.Uniform(0.0, 0.02)};
  }
  rtc::LeakyBucketUkf ukf;
  const auto begin = Clock::now();
  for (int i = 0; i < updates; ++i) {
    const Input& in = inputs[static_cast<std::size_t>(i) & 1023];
    ukf.Update(in.delay_s, in.bytes, in.inter_send_s, in.tc_s);
  }
  const double ns = ElapsedNs(begin) / static_cast<double>(updates);
  // Keeps the filter state observable so the loop cannot be elided.
  if (ukf.bandwidth_bps() < 0.0) std::abort();
  return ns;
}

template <typename Fn>
double BestOfBatches(SpanLog* spans, int parent, const char* name, Fn&& fn) {
  ScopedSpan kernel(spans, name, parent);
  double best = std::numeric_limits<double>::infinity();
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan batch(spans, "batch", kernel.id(), b);
    best = std::min(best, fn());
  }
  return best;
}

}  // namespace

KernelTimes RunKernels(SpanLog* spans, int parent) {
  KernelTimes k;
  {
    FrameHopChains hops;
    hops.Run(1'400);  // warm-up: slot chunks and wheel buckets reach size.
    k.dispatch_ns = BestOfBatches(spans, parent, "kernel.sim.dispatch",
                                  [&hops] { return hops.Run(1'000); });
  }
  {
    SaturatedChannel channel;
    channel.Run(sim::Millis(500));
    k.frame_ns = BestOfBatches(spans, parent, "kernel.wifi.frame",
                               [&channel] { return channel.Run(sim::Seconds(40)); });
  }
  UkfUpdateNs(10'000);
  k.ukf_update_ns = BestOfBatches(spans, parent, "kernel.rtc.ukf_update",
                                  [] { return UkfUpdateNs(200'000); });
  return k;
}

// ------------------------------------------------- per-layer metrics ----

namespace {

/// Sums of counter series by name, and by (name, label key=value).
class Series {
 public:
  explicit Series(const obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    for (const auto& row : registry->Snapshot()) {
      if (row.kind != obs::MetricsRegistry::Row::Kind::kCounter) continue;
      const auto value = static_cast<double>(row.counter_value);
      totals_[row.name] += value;
      for (const auto& [key, label] : row.labels) {
        totals_[row.name + "{" + key + "=" + label + "}"] += value;
      }
    }
  }
  [[nodiscard]] double Sum(const std::string& name) const {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double Sum(const std::string& name, const std::string& key,
                           const std::string& label) const {
    return Sum(name + "{" + key + "=" + label + "}");
  }

 private:
  std::map<std::string, double> totals_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<std::pair<std::string_view, double>> PerLayerMetrics(
    const LayerInputs& in) {
  const Series series(in.registry);
  const auto per_sim_s = [&in](double count) { return Ratio(count, in.sim_s); };
  const auto events_of = [&series](const char* type) {
    return series.Sum("sim_events_total", "type", type);
  };
  std::map<std::string, double, std::less<>> m;

  // sim: the per-type profile covers the scenario-DSL workloads; the
  // population workloads report their dispatch total in each env result.
  const double profiled = series.Sum("sim_events_total");
  const double events = profiled > 0.0 ? profiled : in.result_events;
  m["sim.events_per_sim_s"] = per_sim_s(events);
  m["sim.cpu_ns_per_event"] = Ratio(in.fastest_untraced_cpu_s * 1e9, events);
  m["kernel.sim.dispatch_ns"] = in.kernels.dispatch_ns;
  for (const char* type :
       {"wifi.arbitration", "wifi.tx_done", "wifi.txop_burst", "wifi.deliver",
        "wifi.qdisc_refill", "net.wire_tx", "net.wire_prop", "net.token_drain",
        "timer", "tcp.rto", "probe.timeout", "fault.schedule", "event"}) {
    m[std::string("sim.events.") + type + "_per_sim_s"] =
        per_sim_s(events_of(type));
  }

  // wifi: channel, EDCA and the AP's queues and qdiscs.
  const double collisions = series.Sum("wifi_collisions_total");
  m["wifi.txop_continuations_per_sim_s"] =
      per_sim_s(series.Sum("wifi_txop_continuations_total"));
  m["wifi.collisions_per_sim_s"] = per_sim_s(collisions);
  m["wifi.collision_frac"] = Ratio(
      collisions, events_of("wifi.tx_done") + events_of("wifi.txop_burst"));
  m["wifi.ap_delivered_per_sim_s"] = per_sim_s(series.Sum("ap_delivered_total"));
  m["wifi.ap_queue_drops_per_sim_s"] =
      per_sim_s(series.Sum("ap_queue_drops_total"));
  m["wifi.ap_retry_drops_per_sim_s"] =
      per_sim_s(series.Sum("ap_retry_drops_total"));
  m["kernel.wifi.frame_ns"] = in.kernels.frame_ns;
  m["wifi.qdisc_forwarded_per_sim_s"] =
      per_sim_s(series.Sum("qdisc_forwarded_total"));
  m["wifi.qdisc_aqm_drops_per_sim_s"] =
      per_sim_s(series.Sum("qdisc_aqm_drops_total"));
  m["wifi.qdisc_overflow_drops_per_sim_s"] =
      per_sim_s(series.Sum("qdisc_overflow_drops_total"));
  m["wifi.slow_delivery_frac"] =
      Ratio(series.Sum("fault_reordered_total") +
                series.Sum("fault_duplicated_total"),
            events_of("wifi.deliver"));

  // faults.
  m["faults.ge_losses_per_sim_s"] = per_sim_s(series.Sum("fault_ge_losses_total"));
  m["faults.reordered_per_sim_s"] = per_sim_s(series.Sum("fault_reordered_total"));
  m["faults.duplicated_per_sim_s"] =
      per_sim_s(series.Sum("fault_duplicated_total"));
  m["faults.dropped_per_sim_s"] = per_sim_s(series.Sum("fault_dropped_total"));
  m["faults.wan_jitters_per_sim_s"] =
      per_sim_s(series.Sum("fault_wan_jitters_total"));
  m["faults.churn_switches_per_sim_s"] =
      per_sim_s(series.Sum("fault_churn_switches_total"));

  // transport.
  const double acked = series.Sum("tcp_segments_acked_total");
  const double retransmitted = series.Sum("tcp_retransmissions_total");
  m["transport.segments_acked_per_sim_s"] = per_sim_s(acked);
  m["transport.retransmissions_per_sim_s"] = per_sim_s(retransmitted);
  m["transport.timeouts_per_sim_s"] = per_sim_s(series.Sum("tcp_timeouts_total"));
  m["transport.useful_frac"] = Ratio(acked, acked + retransmitted);

  // rtc.
  m["rtc.estimator_updates_per_sim_s"] =
      per_sim_s(series.Sum("rtc_estimator_updates_total"));
  m["rtc.media_rx_packets_per_sim_s"] =
      per_sim_s(series.Sum("media_rx_packets_total"));
  m["kernel.rtc.ukf_update_ns"] = in.kernels.ukf_update_ns;

  // core: Ping-Pair rounds and every discard reason.
  const double rounds = series.Sum("probe_rounds_total");
  m["core.probe_rounds_per_sim_s"] = per_sim_s(rounds);
  m["core.probe_valid_frac"] = Ratio(series.Sum("probe_valid_total"), rounds);
  m["core.probe_discards.timeout_per_sim_s"] =
      per_sim_s(series.Sum("probe_discards_total", "reason", "timeout"));
  m["core.probe_discards.wrong_order_per_sim_s"] =
      per_sim_s(series.Sum("probe_discards_total", "reason", "wrong_order"));
  m["core.probe_discards.dual_divergence_per_sim_s"] = per_sim_s(
      series.Sum("probe_discards_total", "reason", "dual_divergence"));
  m["core.probe_discards.dual_gap_per_sim_s"] =
      per_sim_s(series.Sum("probe_discards_total", "reason", "dual_gap"));

  // obs, scenario set-up, allocations.
  m["obs.timeline_bytes_per_env"] = Ratio(in.timeline_bytes, in.envs);
  m["obs.trace_overhead"] = Ratio(in.traced_cpu_s, in.fastest_untraced_cpu_s);
  const double setup_ms_per_env = Ratio(in.setup_cpu_s * 1e3, in.envs);
  m["scenario.setup_ms_per_env"] = setup_ms_per_env;
  m["scenario.setup_share"] = Ratio(setup_ms_per_env, in.env_ms_p50);
  m["alloc.count_per_env_setup"] =
      Ratio(static_cast<double>(in.setup_allocs.count), in.envs);
  m["alloc.count_per_sim_s"] =
      per_sim_s(static_cast<double>(in.pass_allocs.count));
  m["alloc.bytes_per_sim_s"] =
      per_sim_s(static_cast<double>(in.pass_allocs.bytes));

  // The computed names and spec.h must match one to one.
  std::vector<std::pair<std::string_view, double>> out;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = m.find(spec.name);
    if (it == m.end()) {
      throw std::logic_error("per-layer metric not computed: " +
                             std::string(spec.name));
    }
    out.emplace_back(spec.name, it->second);
  }
  if (out.size() != m.size()) {
    throw std::logic_error("per-layer metric computed but not in spec.h");
  }
  return out;
}

}  // namespace kwikr::benchmark
