#include "scenario/call_experiment.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "faults/injector.h"
#include "obs/exporters.h"
#include "stats/summary.h"

namespace kwikr::scenario {
namespace {

/// Everything that makes up one live call inside the experiment.
struct LiveCall {
  wifi::Station* station = nullptr;
  net::Address server = 0;
  net::FlowId flow = net::kNoFlow;
  std::unique_ptr<rtc::MediaSender> sender;
  std::unique_ptr<rtc::MediaReceiver> receiver;
  std::unique_ptr<StationProbeTransport> probe_transport;
  std::unique_ptr<core::PingPairProber> prober;
  std::unique_ptr<core::KwikrAdapter> adapter;
};

double MeanOfRange(const std::vector<double>& series, std::size_t begin,
                   std::size_t end) {
  begin = std::min(begin, series.size());
  end = std::min(end, series.size());
  if (begin >= end) return 0.0;
  const double sum = std::accumulate(series.begin() + begin,
                                     series.begin() + end, 0.0);
  return sum / static_cast<double>(end - begin);
}

/// The per-call arm tag every per-call series carries.
obs::Labels ArmLabels(bool kwikr) {
  return {{"arm", kwikr ? "kwikr" : "baseline"}};
}

/// Rng stream id for the fault injector, disjoint from every per-entity
/// Fork() the testbed performs on the same seed.
constexpr std::uint64_t kFaultRngStream = 0xFA17;

/// Rng stream id for queue-discipline randomness (the FQ-CoDel hash
/// perturbation). Disjoint from kFaultRngStream and the testbed's
/// per-entity forks for the same reason.
constexpr std::uint64_t kQdiscRngStream = 0x0D15C;

}  // namespace

ExperimentMetrics RunCallExperiment(const ExperimentConfig& config) {
  Testbed::Config tb_config;
  tb_config.seed = config.seed;
  Testbed testbed(tb_config);

  obs::MetricsRegistry* metrics = config.metrics;
  std::unique_ptr<obs::EventLoopMetricsProbe> loop_probe;
  if (config.profile_loop && metrics != nullptr) {
    loop_probe = std::make_unique<obs::EventLoopMetricsProbe>(*metrics);
    testbed.loop().SetProbe(loop_probe.get());
  }

  Bss::Config bss_config;
  bss_config.ap.address = kApBaseAddress;
  bss_config.ap.band = config.band;
  bss_config.ap.wmm_enabled =
      config.wmm_enabled &&
      config.faults.wmm.mode != faults::FaultSpec::WmmMode::kOff;
  bss_config.ap.queue_capacity[Index(wifi::AccessCategory::kBestEffort)] =
      config.be_queue_capacity;
  bss_config.ap.qdisc = config.qdisc;
  // RNG discipline: FQ hashing perturbs from a dedicated fork of the run
  // seed, never from the caller (wall clocks there would break fleet
  // bit-identity across --jobs).
  bss_config.ap.qdisc.hash_seed =
      sim::Rng(config.seed).Fork(kQdiscRngStream).Next();
  Bss& bss = testbed.AddBss(bss_config);

  // --- Fault injection -----------------------------------------------------
  // Environment-level hooks go in before any traffic exists; the per-call
  // hooks (churn, clock skew) attach as the calls are built below.
  std::unique_ptr<faults::FaultInjector> injector;
  if (config.faults.any()) {
    injector = std::make_unique<faults::FaultInjector>(
        testbed.loop(), config.faults,
        sim::Rng(config.seed).Fork(kFaultRngStream), metrics);
    injector->AttachChannel(testbed.channel());
    injector->AttachAccessPoint(bss.ap());
    injector->AttachWan(bss.downlink());
  }

  // --- Calls ---------------------------------------------------------------
  std::vector<LiveCall> calls(config.calls.size());
  for (std::size_t i = 0; i < config.calls.size(); ++i) {
    const CallConfig& cc = config.calls[i];
    LiveCall& call = calls[i];
    call.flow = testbed.NextFlowId();
    call.server = testbed.NextServerAddress();
    call.station = &bss.AddStation(testbed.NextStationAddress(),
                                   config.client_rate_bps);

    rtc::MediaSender::Config sender_config;
    sender_config.src = call.server;
    sender_config.dst = call.station->address();
    sender_config.flow = call.flow;
    sender_config.start_rate_bps = cc.start_rate_bps;
    call.sender = std::make_unique<rtc::MediaSender>(
        testbed.loop(), testbed.ids(), sender_config,
        [&bss](net::Packet packet) { bss.SendFromWan(std::move(packet)); });

    rtc::MediaReceiver::Config receiver_config;
    receiver_config.src = call.station->address();
    receiver_config.dst = call.server;
    receiver_config.flow = call.flow;
    receiver_config.controller = cc.controller;
    receiver_config.controller.start_rate_bps = cc.start_rate_bps;
    receiver_config.estimator.beta = cc.beta;
    receiver_config.adaptation = cc.adaptation;
    receiver_config.gcc.start_rate_bps = cc.start_rate_bps;
    wifi::Station* station = call.station;
    call.receiver = std::make_unique<rtc::MediaReceiver>(
        testbed.loop(), testbed.ids(), receiver_config,
        [station](net::Packet packet) { station->Send(std::move(packet)); });

    call.probe_transport = std::make_unique<StationProbeTransport>(
        testbed.loop(), testbed.ids(), *call.station, bss.ap().address());
    core::PingPairProber::Config probe_config;
    probe_config.interval = config.probe_interval;
    probe_config.dual = config.dual_ping_pair;
    probe_config.mode = config.measurement_mode;
    probe_config.ident = static_cast<std::uint16_t>(0x5050 + i);
    call.prober = std::make_unique<core::PingPairProber>(
        testbed.loop(), *call.probe_transport, probe_config, call.flow);
    call.adapter = std::make_unique<core::KwikrAdapter>(testbed.loop());
    call.adapter->AttachTo(*call.prober);
    if (injector != nullptr) {
      injector->AttachStationChurn(*call.station);
      injector->AttachProber(*call.prober);
    }
    if (cc.kwikr) {
      call.receiver->SetCrossTrafficProvider(
          call.adapter->CrossTrafficProvider());
    }

    // Observability: per-arm probe-sample and hint instrumentation. All
    // metric values derive from simulated quantities, keeping the registry
    // deterministic.
    obs::HistogramCell* innovation_hist = nullptr;
    if (metrics != nullptr) {
      const obs::Labels arm = ArmLabels(cc.kwikr);
      obs::HistogramCell* tq_hist =
          &metrics->GetHistogram("probe_tq_ms", arm, {0.0, 500.0, 250});
      obs::HistogramCell* tc_hist =
          &metrics->GetHistogram("probe_tc_ms", arm, {0.0, 500.0, 250});
      innovation_hist = &metrics->GetHistogram("rtc_innovation_ms", arm,
                                               {-250.0, 250.0, 250});
      obs::Labels congested = arm;
      congested.emplace_back("congested", "true");
      obs::Labels clear = arm;
      clear.emplace_back("congested", "false");
      obs::Counter* hint_congested =
          &metrics->GetCounter("kwikr_hints_total", congested);
      obs::Counter* hint_clear =
          &metrics->GetCounter("kwikr_hints_total", clear);
      call.prober->AddSampleCallback(
          [tq_hist, tc_hist](const core::PingPairSample& s) {
            tq_hist->Observe(sim::ToMillis(s.tq));
            tc_hist->Observe(sim::ToMillis(s.tc));
          });
      call.adapter->AddHintCallback(
          [hint_congested, hint_clear](const core::WifiHint& hint) {
            (hint.congested ? hint_congested : hint_clear)->Add();
          });
    }

    // Client receive path: media -> receiver + prober flow log; ICMP ->
    // prober replies. With a registry attached, count media packets and
    // MAC-level retried frames (packet.mac.retry is the capture-interface
    // bit the paper's Linux tool reads).
    rtc::MediaReceiver* receiver = call.receiver.get();
    core::PingPairProber* prober = call.prober.get();
    obs::Counter* rx_packets = nullptr;
    obs::Counter* rx_retry_frames = nullptr;
    if (metrics != nullptr) {
      const obs::Labels arm = ArmLabels(cc.kwikr);
      rx_packets = &metrics->GetCounter("media_rx_packets_total", arm);
      rx_retry_frames =
          &metrics->GetCounter("media_rx_retry_frames_total", arm);
    }
    call.station->AddReceiver(
        [receiver, prober, rx_packets, rx_retry_frames, innovation_hist](
            const net::Packet& packet, sim::Time arrival) {
          if (packet.protocol == net::Protocol::kIcmp) {
            prober->OnReply(packet, arrival);
            return;
          }
          if (rx_packets != nullptr) {
            rx_packets->Add();
            if (packet.mac.retry) rx_retry_frames->Add();
          }
          prober->OnFlowPacket(packet, arrival);
          receiver->OnPacket(packet, arrival);
          if (innovation_hist != nullptr) {
            innovation_hist->Observe(
                receiver->estimator().last_innovation_s() * 1000.0);
          }
        });

    // Wired side: feedback reports reach the media sender.
    rtc::MediaSender* sender = call.sender.get();
    bss.RegisterWanEndpoint(
        call.server, [sender](net::Packet packet, sim::Time arrival) {
          sender->OnFeedback(packet, arrival);
        });
  }

  // --- Cross traffic -------------------------------------------------------
  transport::TcpSender::Config cross_tcp;
  cross_tcp.cc = config.cross_cc;
  for (int s = 0; s < config.cross_stations; ++s) {
    wifi::Station& station = bss.AddStation(testbed.NextStationAddress(),
                                            config.client_rate_bps);
    testbed.AddTcpBulkFlows(bss, station, config.flows_per_station,
                            /*managed=*/true, cross_tcp);
  }
  if (config.cross_stations > 0) {
    testbed.ScheduleCrossTraffic(config.congestion_start,
                                 config.congestion_end);
  }

  // --- Foreground TCP flow (Figure 1) --------------------------------------
  std::vector<double> tcp_rate_series;
  std::unique_ptr<sim::PeriodicTimer> tcp_sampler;
  transport::TcpRenoReceiver* fg_receiver = nullptr;
  std::int64_t fg_last_bytes = 0;
  if (config.foreground_tcp) {
    wifi::Station& station = bss.AddStation(testbed.NextStationAddress(),
                                            config.client_rate_bps);
    // A single real-world download is receive-window limited; this keeps
    // the foreground flow from bloating the AP queue on its own.
    transport::TcpRenoSender::Config fg;
    fg.max_in_flight = 96;
    fg.cc = config.cross_cc;
    auto flows =
        testbed.AddTcpBulkFlows(bss, station, 1, /*managed=*/false, fg);
    flows.front()->sender->Start();
    fg_receiver = flows.front()->receiver.get();
    tcp_sampler = std::make_unique<sim::PeriodicTimer>(
        testbed.loop(), sim::Seconds(1), [&tcp_rate_series, fg_receiver,
                                          &fg_last_bytes] {
          const std::int64_t bytes = fg_receiver->bytes_received();
          tcp_rate_series.push_back(
              static_cast<double>(bytes - fg_last_bytes) * 8.0 / 1000.0);
          fg_last_bytes = bytes;
        });
    tcp_sampler->Start();
  }

  // --- Throttle (Figure 9) -------------------------------------------------
  if (config.throttle_bps > 0) {
    transport::TokenBucket::Config tb;
    tb.rate_bps = 0;  // unshaped until throttle_start.
    transport::TokenBucket& throttle = bss.InstallThrottle(tb);
    const std::int64_t rate = config.throttle_bps;
    auto engage = [&throttle, rate] { throttle.SetRate(rate); };
    static_assert(sim::InlineTask::fits_inline<decltype(engage)>);
    testbed.loop().ScheduleAt(config.throttle_start, std::move(engage));
    if (config.throttle_end > config.throttle_start) {
      testbed.loop().ScheduleAt(config.throttle_end,
                                [&throttle] { throttle.SetRate(0); });
    }
  }

  // --- Queue ground truth --------------------------------------------------
  std::vector<std::size_t> queue_samples;
  std::unique_ptr<sim::PeriodicTimer> queue_sampler;
  if (config.sample_queue) {
    obs::HistogramCell* queue_hist =
        metrics != nullptr
            ? &metrics->GetHistogram("ap_be_queue_depth", {},
                                     {0.0, 300.0, 300})
            : nullptr;
    queue_sampler = std::make_unique<sim::PeriodicTimer>(
        testbed.loop(), sim::Millis(10),
        [&queue_samples, &bss, queue_hist] {
          const std::size_t depth = bss.ap().DownlinkQueueLength(
              wifi::AccessCategory::kBestEffort);
          queue_samples.push_back(depth);
          if (queue_hist != nullptr) {
            queue_hist->Observe(static_cast<double>(depth));
          }
        });
    queue_sampler->Start();
  }

  // --- Timeline telemetry --------------------------------------------------
  // Deterministic sim-time series + flight recorder + anomaly triggers (see
  // TimelineOptions). Probe registration order is fixed, so the serialized
  // timeline is canonical; with the feature off nothing here runs and the
  // event schedule is untouched.
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::unique_ptr<obs::SeriesSampler> sampler;
  std::unique_ptr<obs::PostmortemMonitor> monitor;
  struct ProbeLatch {
    double tq_ms = 0.0;
    double ta_ms = 0.0;
    double tc_ms = 0.0;
  };
  ProbeLatch probe_latch;
  if (config.timeline.enabled) {
    recorder = std::make_unique<obs::FlightRecorder>();
    bss.ap().SetFlightRecorder(recorder.get());
    for (auto& call : calls) call.prober->SetFlightRecorder(recorder.get());
    for (const auto* flows :
         {&testbed.cross_flows(), &testbed.unmanaged_flows()}) {
      for (const auto& flow : *flows) {
        flow->sender->SetFlightRecorder(recorder.get());
      }
    }
    if (injector != nullptr) injector->SetFlightRecorder(recorder.get());

    obs::SeriesSampler::Config sampler_config;
    sampler_config.interval = config.timeline.interval;
    sampler_config.capacity = config.timeline.series_capacity;
    sampler =
        std::make_unique<obs::SeriesSampler>(testbed.loop(), sampler_config);

    wifi::AccessPoint& ap = bss.ap();
    for (int ac = 0; ac < wifi::kNumAccessCategories; ++ac) {
      const auto category = static_cast<wifi::AccessCategory>(ac);
      sampler->AddProbe(std::string("ap_queue_") + wifi::Name(category),
                        [&ap, category] {
                          return static_cast<double>(
                              ap.DownlinkQueueLength(category));
                        });
    }
    const wifi::QueueDiscipline& be_qdisc =
        ap.DownlinkQdisc(wifi::AccessCategory::kBestEffort);
    sampler->AddProbe("qdisc_be_backlog", [&be_qdisc] {
      return static_cast<double>(be_qdisc.backlog());
    });
    sampler->AddProbe("qdisc_be_sojourn_ms",
                      [&be_qdisc] { return be_qdisc.last_sojourn_ms(); });
    sampler->AddProbe("channel_busy_pct", [&testbed] {
      return testbed.channel().BusyFraction() * 100.0;
    });
    sampler->AddProbe("tcp_in_flight", [&testbed] {
      double in_flight = 0.0;
      for (const auto* flows :
           {&testbed.cross_flows(), &testbed.unmanaged_flows()}) {
        for (const auto& flow : *flows) {
          in_flight += static_cast<double>(flow->sender->in_flight());
        }
      }
      return in_flight;
    });
    sampler->AddProbe("tcp_max_cwnd", [&testbed] {
      double max_cwnd = 0.0;
      for (const auto* flows :
           {&testbed.cross_flows(), &testbed.unmanaged_flows()}) {
        for (const auto& flow : *flows) {
          max_cwnd = std::max(max_cwnd, flow->sender->cwnd());
        }
      }
      return max_cwnd;
    });
    sampler->AddProbe("tcp_pacing_kbps", [&testbed] {
      double pacing = 0.0;
      for (const auto* flows :
           {&testbed.cross_flows(), &testbed.unmanaged_flows()}) {
        for (const auto& flow : *flows) {
          pacing += static_cast<double>(
                        flow->sender->congestion_control().pacing_rate_bps()) /
                    1000.0;
        }
      }
      return pacing;
    });
    if (!calls.empty()) {
      rtc::MediaReceiver* receiver0 = calls.front().receiver.get();
      sampler->AddProbe("rate_target_kbps", [receiver0] {
        return static_cast<double>(receiver0->target_rate_bps()) / 1000.0;
      });
      sampler->AddProbe("rate_estimate_kbps", [receiver0] {
        return receiver0->estimator().bandwidth_bps() / 1000.0;
      });
      sampler->AddProbe("rate_innovation_ms", [receiver0] {
        return receiver0->estimator().last_innovation_s() * 1000.0;
      });
      // Ping-pair samples are sparse (2/s); the series carries the latest
      // value, latched by the sample callback below.
      ProbeLatch* latch = &probe_latch;
      sampler->AddProbe("probe_tq_ms", [latch] { return latch->tq_ms; });
      sampler->AddProbe("probe_ta_ms", [latch] { return latch->ta_ms; });
      sampler->AddProbe("probe_tc_ms", [latch] { return latch->tc_ms; });
    }
    if (injector != nullptr && injector->gilbert_elliott() != nullptr) {
      const faults::FaultInjector* inj = injector.get();
      sampler->AddProbe("ge_bad", [inj] {
        return inj->gilbert_elliott()->bad() ? 1.0 : 0.0;
      });
    }

    const bool any_trigger = config.timeline.anomaly_tq_p95_ms > 0.0 ||
                             config.timeline.anomaly_retransmit_storm > 0 ||
                             config.timeline.anomaly_divergence > 0.0;
    if (any_trigger) {
      obs::PostmortemMonitor::Config monitor_config;
      monitor_config.tq_p95_ms = config.timeline.anomaly_tq_p95_ms;
      monitor_config.retransmit_storm =
          config.timeline.anomaly_retransmit_storm;
      monitor_config.divergence_factor = config.timeline.anomaly_divergence;
      monitor = std::make_unique<obs::PostmortemMonitor>(
          testbed.loop(), *sampler, recorder.get(), monitor_config);
      if (!calls.empty() && config.timeline.anomaly_divergence > 0.0) {
        rtc::MediaReceiver* receiver0 = calls.front().receiver.get();
        obs::PostmortemMonitor* monitor_ptr = monitor.get();
        sampler->SetRowHook([receiver0, monitor_ptr] {
          monitor_ptr->OnRateSample(
              receiver0->estimator().bandwidth_bps() / 1000.0,
              static_cast<double>(receiver0->target_rate_bps()) / 1000.0);
        });
      }
    }
    if (!calls.empty()) {
      ProbeLatch* latch = &probe_latch;
      obs::PostmortemMonitor* monitor_ptr = monitor.get();
      calls.front().prober->AddSampleCallback(
          [latch, monitor_ptr](const core::PingPairSample& s) {
            latch->tq_ms = sim::ToMillis(s.tq);
            latch->ta_ms = sim::ToMillis(s.ta);
            latch->tc_ms = sim::ToMillis(s.tc);
            if (monitor_ptr != nullptr) monitor_ptr->OnTqSample(latch->tq_ms);
          });
    }
    sampler->Start();
  }

  // --- Run -----------------------------------------------------------------
  if (injector != nullptr) injector->Arm();
  for (auto& call : calls) {
    call.sender->Start();
    call.receiver->Start();
    call.prober->Start();
  }
  testbed.loop().RunUntil(config.duration);
  for (auto& call : calls) {
    call.sender->Stop();
    call.receiver->Stop();
    call.prober->Stop();
  }
  if (loop_probe != nullptr) testbed.loop().SetProbe(nullptr);

  // --- Collect -------------------------------------------------------------
  ExperimentMetrics result;
  result.events_executed = testbed.loop().executed();
  if (sampler != nullptr) {
    sampler->Stop();
    result.timeline_jsonl = sampler->ToJsonl(config.timeline.call_index);
    if (!config.timeline.chrome_trace.empty()) {
      obs::ChromeTraceWriter writer;
      sampler->EmitCounters(writer);
      if (recorder != nullptr) recorder->EmitInstants(writer);
      writer.WriteJson(config.timeline.chrome_trace);
    }
    if (monitor != nullptr && monitor->triggered()) {
      result.postmortem = monitor->dump();
      result.postmortem_reason = monitor->reason();
    }
  }
  result.channel_busy_fraction = testbed.channel().BusyFraction();
  result.cross_traffic_bytes = testbed.CrossTrafficBytesReceived();
  result.tcp_rate_series_kbps = std::move(tcp_rate_series);
  result.queue_samples = std::move(queue_samples);

  // Environment-wide deterministic scrape: EDCA contention, per-AC AP queue
  // outcomes, and TCP cross-traffic health.
  if (metrics != nullptr) {
    metrics->GetCounter("experiments_total").Add();
    metrics->GetCounter("wifi_collisions_total")
        .Add(testbed.channel().collisions());
    metrics->GetCounter("wifi_txop_continuations_total")
        .Add(testbed.channel().txop_continuations());
    metrics->GetGauge("wifi_busy_fraction_max")
        .Max(testbed.channel().BusyFraction());
    for (int ac = 0; ac < wifi::kNumAccessCategories; ++ac) {
      const auto category = static_cast<wifi::AccessCategory>(ac);
      const obs::Labels labels = {{"ac", wifi::Name(category)}};
      metrics->GetCounter("ap_queue_drops_total", labels)
          .Add(bss.ap().DownlinkQueueDrops(category));
      metrics->GetCounter("ap_retry_drops_total", labels)
          .Add(bss.ap().DownlinkRetryDrops(category));
      metrics->GetCounter("ap_delivered_total", labels)
          .Add(bss.ap().DownlinkDelivered(category));
      // Queue-discipline outcomes: AQM (sojourn) drops, buffer overflows,
      // and the sojourn-time sketch. All deterministic end-of-run scrapes.
      const wifi::QueueDiscipline& qdisc = bss.ap().DownlinkQdisc(category);
      metrics->GetCounter("qdisc_aqm_drops_total", labels)
          .Add(qdisc.aqm_drops());
      metrics->GetCounter("qdisc_overflow_drops_total", labels)
          .Add(qdisc.overflow_drops());
      metrics->GetCounter("qdisc_forwarded_total", labels)
          .Add(qdisc.forwarded());
      metrics
          ->GetHistogram("qdisc_sojourn_ms", labels,
                         {qdisc.sojourn_ms().config().lo,
                          qdisc.sojourn_ms().config().hi,
                          qdisc.sojourn_ms().config().bins})
          .Merge(qdisc.sojourn_ms());
    }
    // Wired-side packets for stations unknown to this AP (satellite of the
    // roaming faults): previously only a C++ accessor, now a real series.
    metrics->GetCounter("ap_unroutable_drops_total")
        .Add(bss.ap().unroutable_drops());
    std::uint64_t retransmissions = 0;
    std::uint64_t tcp_timeouts = 0;
    std::uint64_t segments_acked = 0;
    for (const auto* flows :
         {&testbed.cross_flows(), &testbed.unmanaged_flows()}) {
      for (const auto& flow : *flows) {
        retransmissions += flow->sender->retransmissions();
        tcp_timeouts += flow->sender->timeouts();
        segments_acked += flow->sender->segments_acked();
      }
    }
    metrics->GetCounter("tcp_retransmissions_total").Add(retransmissions);
    metrics->GetCounter("tcp_timeouts_total").Add(tcp_timeouts);
    metrics->GetCounter("tcp_segments_acked_total").Add(segments_acked);
    metrics->GetCounter("cross_traffic_bytes_total")
        .Add(static_cast<std::uint64_t>(result.cross_traffic_bytes));
  }

  for (std::size_t i = 0; i < calls.size(); ++i) {
    auto& call = calls[i];
    const CallConfig& cc = config.calls[i];
    CallMetrics m;
    m.rate_series_kbps = call.receiver->rate_series_kbps();
    m.mean_rate_kbps = MeanOfRange(m.rate_series_kbps, 0,
                                   m.rate_series_kbps.size());
    if (config.congestion_end > config.congestion_start) {
      m.mean_rate_congested_kbps = MeanOfRange(
          m.rate_series_kbps,
          static_cast<std::size_t>(config.congestion_start / sim::kSecond),
          static_cast<std::size_t>(config.congestion_end / sim::kSecond));
    }
    m.rtt_ms.reserve(call.sender->rtt_samples_s().size());
    for (double rtt_s : call.sender->rtt_samples_s()) {
      m.rtt_ms.push_back(rtt_s * 1000.0);
    }
    m.loss_pct = call.receiver->loss_fraction() * 100.0;
    m.late_frame_pct = call.receiver->jitter_buffer().late_fraction() * 100.0;
    m.probe_samples = call.prober->samples();
    m.probe_stats = call.prober->stats();

    // Per-arm deterministic scrape: probing outcomes (including every
    // discard reason), estimator activity, and call quality sketches.
    if (metrics != nullptr) {
      const obs::Labels arm = ArmLabels(cc.kwikr);
      metrics->GetCounter("calls_total", arm).Add();
      metrics->GetCounter("probe_rounds_total", arm).Add(m.probe_stats.rounds);
      metrics->GetCounter("probe_valid_total", arm).Add(m.probe_stats.valid);
      const std::pair<const char*, std::uint64_t> discards[] = {
          {"timeout", m.probe_stats.timeouts},
          {"wrong_order", m.probe_stats.wrong_order},
          {"dual_divergence", m.probe_stats.dual_divergence},
          {"dual_gap", m.probe_stats.dual_gap},
      };
      for (const auto& [reason, count] : discards) {
        obs::Labels labels = arm;
        labels.emplace_back("reason", reason);
        metrics->GetCounter("probe_discards_total", labels).Add(count);
      }
      metrics->GetCounter("rtc_estimator_updates_total", arm)
          .Add(static_cast<std::uint64_t>(call.receiver->estimator().updates()));
      metrics->GetHistogram("call_mean_rate_kbps", arm, {0.0, 3000.0, 300})
          .Observe(m.mean_rate_kbps);
      metrics->GetHistogram("call_loss_pct", arm, {0.0, 100.0, 200})
          .Observe(m.loss_pct);
      metrics->GetHistogram("call_late_frame_pct", arm, {0.0, 100.0, 200})
          .Observe(m.late_frame_pct);
    }
    result.calls.push_back(std::move(m));
  }
  return result;
}

}  // namespace kwikr::scenario
