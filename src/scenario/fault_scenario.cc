#include "scenario/fault_scenario.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "stats/percentile.h"
#include "wifi/rate_table.h"

namespace kwikr::scenario {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// A finite decimal number (strtod's nan/inf spellings are rejected).
bool ParseDouble(std::string_view value, double* out) {
  const std::string buf(value);
  char* end = nullptr;
  *out = std::strtod(buf.c_str(), &end);
  return end != nullptr && *end == '\0' && !buf.empty() &&
         std::isfinite(*out);
}

bool ParseInt64(std::string_view value, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), *out);
  return ec == std::errc() && ptr == value.data() + value.size();
}

/// An integer in [min, max of T], range-checked before narrowing to T (an
/// integer type narrower than int64).
template <typename T>
bool ParseIntIn(std::string_view value, std::int64_t min, T* out) {
  std::int64_t v = 0;
  if (!ParseInt64(value, &v) || v < min ||
      v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

bool ParseBool(std::string_view value, bool* out) {
  if (value == "1" || value == "true" || value == "on") {
    *out = true;
    return true;
  }
  if (value == "0" || value == "false" || value == "off") {
    *out = false;
    return true;
  }
  return false;
}

/// Non-negative whole milliseconds whose nanosecond sim::Duration fits int64.
bool ParseMillis(std::string_view value, sim::Duration* out) {
  std::int64_t ms = 0;
  if (!ParseInt64(value, &ms) || ms < 0 ||
      ms > std::numeric_limits<std::int64_t>::max() / sim::kMillisecond) {
    return false;
  }
  *out = sim::Millis(ms);
  return true;
}

/// Percentile of one PingPairSample field, milliseconds.
double FieldPercentile(const std::vector<core::PingPairSample>& samples,
                       sim::Duration core::PingPairSample::*field, double p) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const auto& s : samples) ms.push_back(sim::ToMillis(s.*field));
  return stats::Percentile(ms, p);
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Runs the Section-5.5 WMM detector on an AP impaired by the same fault
/// plan: ambient TCP downlink traffic builds the standing queue, the fault
/// injector applies the spec's channel/AP behaviour, then the detector
/// delivers its verdict.
core::WmmResult RunWmmDetection(const ExperimentConfig& config) {
  Testbed testbed(Testbed::Config{config.seed, wifi::PhyParams{}});
  Bss::Config bc;
  bc.ap.band = config.band;
  bc.ap.wmm_enabled =
      config.wmm_enabled &&
      config.faults.wmm.mode != faults::FaultSpec::WmmMode::kOff;
  bc.ap.queue_capacity[Index(wifi::AccessCategory::kBestEffort)] =
      config.be_queue_capacity;
  Bss& bss = testbed.AddBss(bc);

  faults::FaultInjector injector(testbed.loop(), config.faults,
                                 sim::Rng(config.seed).Fork(0xFA17));
  injector.AttachChannel(testbed.channel());
  injector.AttachAccessPoint(bss.ap());
  injector.AttachWan(bss.downlink());
  injector.Arm();

  wifi::Station& client =
      bss.AddStation(testbed.NextStationAddress(), config.client_rate_bps);
  wifi::Station& sink =
      bss.AddStation(testbed.NextStationAddress(), config.client_rate_bps);
  testbed.AddTcpBulkFlows(bss, sink, 6);
  testbed.StartCrossTraffic();

  StationProbeTransport transport(testbed.loop(), testbed.ids(), client,
                                  bss.ap().address());
  core::WmmDetector detector(testbed.loop(), transport,
                             core::WmmDetector::Config{});
  client.AddReceiver([&detector](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) detector.OnReply(p, at);
  });
  core::WmmResult result;
  testbed.loop().RunUntil(sim::Seconds(8));  // let the queue form.
  detector.Run([&result](const core::WmmResult& r) { result = r; });
  testbed.loop().RunUntil(sim::Seconds(14));
  return result;
}

}  // namespace

bool ParseFaultScenario(std::string_view text, FaultScenario* out,
                        std::string* error) {
  *out = FaultScenario{};
  std::string fault_lines;
  int line_no = 0;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    ++line_no;

    line = Trim(line);
    if (line.empty() || line.front() == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      *error = "line " + std::to_string(line_no) + ": expected key=value";
      return false;
    }
    const std::string_view key = Trim(line.substr(0, eq));
    const std::string_view value = Trim(line.substr(eq + 1));

    // Fault keys pass through to the faults parser with the prefix removed
    // (accumulated so repeatable keys like fault.schedule survive).
    constexpr std::string_view kFaultPrefix = "fault.";
    if (key.substr(0, kFaultPrefix.size()) == kFaultPrefix) {
      fault_lines.append(key.substr(kFaultPrefix.size()));
      fault_lines.push_back('=');
      fault_lines.append(value);
      fault_lines.push_back('\n');
      continue;
    }

    ExperimentConfig& e = out->experiment;
    bool ok = true;
    std::int64_t i64 = 0;
    if (key == "name") {
      out->name = std::string(value);
    } else if (key == "seed") {
      ok = ParseInt64(value, &i64) && i64 >= 0;
      e.seed = static_cast<std::uint64_t>(i64);
    } else if (key == "duration_ms") {
      ok = ParseMillis(value, &e.duration);
    } else if (key == "band") {
      if (value == "2.4") {
        e.band = wifi::Band::k2_4GHz;
      } else if (value == "5") {
        e.band = wifi::Band::k5GHz;
      } else {
        ok = false;
      }
    } else if (key == "wmm") {
      ok = ParseBool(value, &e.wmm_enabled);
    } else if (key == "client_rate_bps") {
      ok = ParseInt64(value, &e.client_rate_bps) && e.client_rate_bps > 0;
    } else if (key == "be_queue_capacity") {
      ok = ParseInt64(value, &i64) && i64 > 0;
      e.be_queue_capacity = static_cast<std::size_t>(i64);
    } else if (key == "cross_stations") {
      ok = ParseIntIn(value, 0, &e.cross_stations);
    } else if (key == "flows_per_station") {
      ok = ParseIntIn(value, 0, &e.flows_per_station);
    } else if (key == "congestion_start_ms") {
      ok = ParseMillis(value, &e.congestion_start);
    } else if (key == "congestion_end_ms") {
      ok = ParseMillis(value, &e.congestion_end);
    } else if (key == "probe_interval_ms") {
      ok = ParseMillis(value, &e.probe_interval);
    } else if (key == "dual") {
      ok = ParseBool(value, &e.dual_ping_pair);
    } else if (key == "kwikr") {
      ok = ParseBool(value, &e.calls.at(0).kwikr);
    } else if (key == "wmm_detection") {
      ok = ParseBool(value, &out->wmm_detection);
    } else if (key == "cc") {
      ok = transport::ParseCcAlgorithm(value, &e.cross_cc);
      out->bottleneck_explicit = true;
    } else if (key == "qdisc") {
      ok = wifi::ParseQdiscKind(value, &e.qdisc.kind);
      out->bottleneck_explicit = true;
    } else if (key == "codel_target_ms") {
      ok = ParseMillis(value, &e.qdisc.target);
      out->bottleneck_explicit = true;
    } else if (key == "codel_interval_ms") {
      ok = ParseMillis(value, &e.qdisc.interval);
      out->bottleneck_explicit = true;
    } else if (key == "fq_flows") {
      ok = ParseIntIn(value, 1, &e.qdisc.flows);
      out->bottleneck_explicit = true;
    } else if (key == "timeline") {
      // Timeline keys deliberately leave bottleneck_explicit alone: the
      // summary bytes of a scenario must not change when telemetry is
      // bolted on (the event count does, which is why timeline scenarios
      // get their own golden cells).
      ok = ParseBool(value, &e.timeline.enabled);
    } else if (key == "timeline_interval_ms") {
      ok = ParseMillis(value, &e.timeline.interval) &&
           e.timeline.interval > 0;
    } else if (key == "anomaly_tq_p95_ms") {
      ok = ParseDouble(value, &e.timeline.anomaly_tq_p95_ms) &&
           e.timeline.anomaly_tq_p95_ms >= 0.0;
    } else if (key == "anomaly_retransmit_storm") {
      ok = ParseInt64(value, &i64) && i64 >= 0;
      e.timeline.anomaly_retransmit_storm = static_cast<std::uint64_t>(i64);
    } else if (key == "anomaly_divergence") {
      ok = ParseDouble(value, &e.timeline.anomaly_divergence) &&
           e.timeline.anomaly_divergence >= 0.0;
    } else {
      *error = "line " + std::to_string(line_no) + ": unknown key '" +
               std::string(key) + "'";
      return false;
    }
    if (!ok) {
      *error = "line " + std::to_string(line_no) + ": bad value for '" +
               std::string(key) + "'";
      return false;
    }
  }

  if (!fault_lines.empty()) {
    std::string fault_error;
    if (!faults::ParseFaultSpec(fault_lines, &out->experiment.faults,
                                &fault_error)) {
      *error = "fault spec: " + fault_error;
      return false;
    }
  }
  return true;
}

FaultScenarioSummary RunFaultScenario(const FaultScenario& scenario) {
  FaultScenarioArtifacts artifacts;
  return RunFaultScenario(scenario, &artifacts);
}

FaultScenarioSummary RunFaultScenario(const FaultScenario& scenario,
                                      FaultScenarioArtifacts* artifacts) {
  ExperimentConfig config = scenario.experiment;
  obs::MetricsRegistry& registry = artifacts->registry;
  config.metrics = &registry;  // the fault counters surface through here.
  const ExperimentMetrics metrics = RunCallExperiment(config);
  artifacts->timeline_jsonl = metrics.timeline_jsonl;
  artifacts->postmortem = metrics.postmortem;
  artifacts->postmortem_reason = metrics.postmortem_reason;

  FaultScenarioSummary s;
  s.name = scenario.name;
  const CallMetrics& call = metrics.calls.at(0);
  s.mean_rate_kbps = call.mean_rate_kbps;
  s.loss_pct = call.loss_pct;
  s.late_frame_pct = call.late_frame_pct;
  s.tq_p50_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tq, 50.0);
  s.tq_p95_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tq, 95.0);
  s.tq_p99_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tq, 99.0);
  s.ta_p50_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::ta, 50.0);
  s.ta_p95_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::ta, 95.0);
  s.ta_p99_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::ta, 99.0);
  s.tc_p50_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tc, 50.0);
  s.tc_p95_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tc, 95.0);
  s.tc_p99_ms = FieldPercentile(call.probe_samples,
                                &core::PingPairSample::tc, 99.0);
  s.probe = call.probe_stats;

  faults::FaultCounters& fc = s.fault_counters;
  auto count = [&registry](const char* which) {
    return registry
        .GetCounter(std::string("fault_") + which + "_total")
        .value();
  };
  fc.ge_losses = count("ge_losses");
  fc.ge_bursts = count("ge_bursts");
  fc.reordered = count("reordered");
  fc.duplicated = count("duplicated");
  fc.dropped = count("dropped");
  fc.wan_losses = count("wan_losses");
  fc.wan_jitters = count("wan_jitters");
  fc.wmm_downgrades = count("wmm_downgrades");
  fc.churn_switches = count("churn_switches");
  fc.schedule_toggles = count("schedule_toggles");

  if (scenario.bottleneck_explicit) {
    s.bottleneck = true;
    s.cc = transport::Name(config.cross_cc);
    s.qdisc = wifi::Name(config.qdisc.kind);
    for (int ac = 0; ac < wifi::kNumAccessCategories; ++ac) {
      const obs::Labels labels = {
          {"ac", wifi::Name(static_cast<wifi::AccessCategory>(ac))}};
      s.qdisc_aqm_drops +=
          registry.GetCounter("qdisc_aqm_drops_total", labels).value();
      s.qdisc_overflow_drops +=
          registry.GetCounter("qdisc_overflow_drops_total", labels).value();
      s.ap_queue_drops +=
          registry.GetCounter("ap_queue_drops_total", labels).value();
    }
    s.tcp_retransmissions =
        registry.GetCounter("tcp_retransmissions_total").value();
    const stats::Histogram sojourn =
        registry
            .GetHistogram("qdisc_sojourn_ms", {{"ac", "BE"}},
                          {0.0, 1000.0, 256})
            .Snapshot();
    s.sojourn_be_p50_ms = sojourn.Percentile(50.0);
    s.sojourn_be_p95_ms = sojourn.Percentile(95.0);
    s.sojourn_be_p99_ms = sojourn.Percentile(99.0);
  }

  s.channel_busy_pct = metrics.channel_busy_fraction * 100.0;
  s.events_executed = metrics.events_executed;

  if (scenario.wmm_detection) {
    s.wmm_ran = true;
    s.wmm = RunWmmDetection(scenario.experiment);
  }
  return s;
}

std::string ToCanonicalJson(const FaultScenarioSummary& s) {
  std::string out;
  out.reserve(1024);
  out += "{\n";
  AppendF(&out, "  \"scenario\": \"%s\",\n", s.name.c_str());
  out += "  \"call\": {\n";
  AppendF(&out, "    \"mean_rate_kbps\": %.3f,\n", s.mean_rate_kbps);
  AppendF(&out, "    \"loss_pct\": %.3f,\n", s.loss_pct);
  AppendF(&out, "    \"late_frame_pct\": %.3f\n", s.late_frame_pct);
  out += "  },\n";
  out += "  \"probe\": {\n";
  AppendF(&out, "    \"rounds\": %llu,\n",
          static_cast<unsigned long long>(s.probe.rounds));
  AppendF(&out, "    \"valid\": %llu,\n",
          static_cast<unsigned long long>(s.probe.valid));
  AppendF(&out, "    \"discard_timeout\": %llu,\n",
          static_cast<unsigned long long>(s.probe.timeouts));
  AppendF(&out, "    \"discard_wrong_order\": %llu,\n",
          static_cast<unsigned long long>(s.probe.wrong_order));
  AppendF(&out, "    \"discard_dual_divergence\": %llu,\n",
          static_cast<unsigned long long>(s.probe.dual_divergence));
  AppendF(&out, "    \"discard_dual_gap\": %llu\n",
          static_cast<unsigned long long>(s.probe.dual_gap));
  out += "  },\n";
  AppendF(&out,
          "  \"tq_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
          s.tq_p50_ms, s.tq_p95_ms, s.tq_p99_ms);
  AppendF(&out,
          "  \"ta_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
          s.ta_p50_ms, s.ta_p95_ms, s.ta_p99_ms);
  AppendF(&out,
          "  \"tc_ms\": {\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f},\n",
          s.tc_p50_ms, s.tc_p95_ms, s.tc_p99_ms);
  out += "  \"faults\": {\n";
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"ge_losses", s.fault_counters.ge_losses},
      {"ge_bursts", s.fault_counters.ge_bursts},
      {"reordered", s.fault_counters.reordered},
      {"duplicated", s.fault_counters.duplicated},
      {"dropped", s.fault_counters.dropped},
      {"wan_losses", s.fault_counters.wan_losses},
      {"wan_jitters", s.fault_counters.wan_jitters},
      {"wmm_downgrades", s.fault_counters.wmm_downgrades},
      {"churn_switches", s.fault_counters.churn_switches},
      {"schedule_toggles", s.fault_counters.schedule_toggles},
  };
  for (std::size_t i = 0; i < std::size(counters); ++i) {
    AppendF(&out, "    \"%s\": %llu%s\n", counters[i].first,
            static_cast<unsigned long long>(counters[i].second),
            i + 1 < std::size(counters) ? "," : "");
  }
  out += "  },\n";
  // Emitted only for scenarios that named a cc=/qdisc= key: every summary
  // byte of the pre-grid corpus is unchanged.
  if (s.bottleneck) {
    out += "  \"bottleneck\": {\n";
    AppendF(&out, "    \"cc\": \"%s\",\n", s.cc.c_str());
    AppendF(&out, "    \"qdisc\": \"%s\",\n", s.qdisc.c_str());
    AppendF(&out, "    \"aqm_drops\": %llu,\n",
            static_cast<unsigned long long>(s.qdisc_aqm_drops));
    AppendF(&out, "    \"overflow_drops\": %llu,\n",
            static_cast<unsigned long long>(s.qdisc_overflow_drops));
    AppendF(&out, "    \"queue_drops\": %llu,\n",
            static_cast<unsigned long long>(s.ap_queue_drops));
    AppendF(&out, "    \"tcp_retransmissions\": %llu,\n",
            static_cast<unsigned long long>(s.tcp_retransmissions));
    AppendF(&out,
            "    \"sojourn_be_ms\": "
            "{\"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f}\n",
            s.sojourn_be_p50_ms, s.sojourn_be_p95_ms, s.sojourn_be_p99_ms);
    out += "  },\n";
  }
  AppendF(&out, "  \"channel_busy_pct\": %.3f,\n", s.channel_busy_pct);
  if (s.wmm_ran) {
    AppendF(&out,
            "  \"wmm\": {\"detected\": %s, \"prioritized_runs\": %d, "
            "\"completed_runs\": %d, \"total_runs\": %d}\n",
            s.wmm.wmm_enabled ? "true" : "false", s.wmm.prioritized_runs,
            s.wmm.completed_runs, s.wmm.total_runs);
  } else {
    out += "  \"wmm\": null\n";
  }
  out += "}\n";
  return out;
}

}  // namespace kwikr::scenario
