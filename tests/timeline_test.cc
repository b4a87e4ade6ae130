// Sim-time timeline telemetry tests: SeriesSampler stride/decimation
// determinism, FlightRecorder ring semantics (its zero-allocation check
// lives in census_test), PostmortemMonitor triggers, the scenario plumbing
// (timeline= keys, artifacts overload), and the population-level
// byte-identity guarantee across fleet worker counts.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "obs/exporters.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/event_loop.h"

namespace kwikr {
namespace {

// ------------------------------------------------------- SeriesSampler ----

TEST(SeriesSamplerTest, SamplesEveryProbeAtFixedStride) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  sampler.AddProbe("t_ms", [&] { return sim::ToMillis(loop.now()); });
  sampler.AddProbe("constant", [] { return 7.5; });
  sampler.Start();
  loop.RunUntil(sim::Millis(105));

  EXPECT_EQ(sampler.series_count(), 2u);
  EXPECT_EQ(sampler.rows(), 11u);  // t = 0, 10, ..., 100.
  EXPECT_EQ(sampler.decimations(), 0);
  EXPECT_EQ(sampler.stride(), sim::Millis(10));
  const auto series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 2u);
  for (std::size_t i = 0; i < series[0].values.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[0].values[i], 10.0 * static_cast<double>(i));
    EXPECT_DOUBLE_EQ(series[1].values[i], 7.5);
  }
}

TEST(SeriesSamplerTest, DecimationKeepsSamplesUniformlySpaced) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  sampler.AddProbe("t_ms", [&] { return sim::ToMillis(loop.now()); });
  sampler.Start();
  loop.RunUntil(sim::Seconds(1));  // 101 ticks into a 16-row budget.

  EXPECT_GE(sampler.decimations(), 1);
  EXPECT_LE(sampler.rows(), 16u);
  const double stride_ms = sim::ToMillis(sampler.stride());
  const auto series = sampler.Snapshot();
  ASSERT_EQ(series.size(), 1u);
  // After any number of decimations, sample i still sits at exactly
  // i * stride — decimation halves resolution, never shifts phase.
  for (std::size_t i = 0; i < series[0].values.size(); ++i) {
    EXPECT_DOUBLE_EQ(series[0].values[i],
                     stride_ms * static_cast<double>(i));
  }
}

TEST(SeriesSamplerTest, SerializationIsDeterministicAndStampsCallIndex) {
  auto run = [] {
    sim::EventLoop loop;
    obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
    sampler.AddProbe("t_ms", [&] { return sim::ToMillis(loop.now()); });
    sampler.Start();
    loop.RunUntil(sim::Millis(500));
    return sampler.ToJsonl(3);
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"call\":3"), std::string::npos);
  EXPECT_NE(first.find("\"type\":\"series\""), std::string::npos);
  EXPECT_NE(first.find("\"name\":\"t_ms\""), std::string::npos);
}

TEST(SeriesSamplerTest, EmitCountersReplaysIntoChromeTrace) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  sampler.AddProbe("depth", [&] { return sim::ToMillis(loop.now()); });
  sampler.Start();
  loop.RunUntil(sim::Millis(45));  // 5 rows.

  obs::ChromeTraceWriter writer;
  sampler.EmitCounters(writer);
  EXPECT_EQ(writer.events(), sampler.rows() * sampler.series_count());
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"depth\""), std::string::npos);
}

// ------------------------------------------------------ FlightRecorder ----

TEST(FlightRecorderTest, EmitInstantsWritesOneInstantPerRetainedEvent) {
  obs::FlightRecorder recorder(8);
  for (std::uint64_t i = 0; i < 10; ++i) {
    recorder.Record(sim::Millis(static_cast<std::int64_t>(i)),
                    obs::FlightEventKind::kTcpRetransmit, /*tag=*/3, i);
  }
  obs::ChromeTraceWriter writer;
  recorder.EmitInstants(writer);
  EXPECT_EQ(writer.events(), 8u);  // the retained window, events 2..9.
  const std::string json = writer.ToJson();
  EXPECT_NE(json.find("{\"name\":\"tcp_retransmit\",\"cat\":\"flight\","
                      "\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2000,"
                      "\"s\":\"t\",\"args\":{\"tag\":3,\"value\":2}}"),
            std::string::npos)
      << json;
}

TEST(FlightRecorderTest, RingRetainsNewestEventsOldestFirst) {
  obs::FlightRecorder recorder(8);
  EXPECT_EQ(recorder.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    recorder.Record(static_cast<sim::Time>(i),
                    obs::FlightEventKind::kTcpRetransmit, /*tag=*/1, i);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const auto window = recorder.Snapshot();
  ASSERT_EQ(window.size(), 8u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].value, 12 + i);  // events 12..19, oldest first.
  }
}

TEST(FlightRecorderTest, FreezeIsOneWayAndStopsRecording) {
  obs::FlightRecorder recorder(8);
  recorder.Record(0, obs::FlightEventKind::kFrameDrop);
  recorder.Freeze();
  recorder.Record(1, obs::FlightEventKind::kFrameDrop);
  EXPECT_TRUE(recorder.frozen());
  EXPECT_EQ(recorder.recorded(), 1u);
  const std::string jsonl = recorder.ToJsonl();
  EXPECT_NE(jsonl.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"frame_drop\""), std::string::npos);
}

// --------------------------------------------------- PostmortemMonitor ----

TEST(PostmortemMonitorTest, TqP95TriggerFreezesRecorderAndDumps) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  sampler.AddProbe("x", [] { return 1.0; });
  sampler.Start();
  loop.RunUntil(sim::Millis(50));
  obs::FlightRecorder recorder(8);
  recorder.Record(sim::Millis(1), obs::FlightEventKind::kProbeDiscard,
                  /*tag=*/0, 42, "timeout");

  obs::PostmortemMonitor::Config config;
  config.tq_p95_ms = 5.0;
  obs::PostmortemMonitor monitor(loop, sampler, &recorder, config);
  for (int i = 0; i < 7; ++i) monitor.OnTqSample(10.0);
  EXPECT_FALSE(monitor.triggered());  // window still cold (< min samples).
  monitor.OnTqSample(10.0);
  ASSERT_TRUE(monitor.triggered());
  EXPECT_EQ(monitor.reason(), "tq_p95");
  EXPECT_TRUE(recorder.frozen());
  const std::string& dump = monitor.dump();
  EXPECT_NE(dump.find("\"type\":\"postmortem\""), std::string::npos);
  EXPECT_NE(dump.find("\"reason\":\"tq_p95\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(dump.find("\"type\":\"series\""), std::string::npos);

  // One-shot: later signals don't restart or append.
  const std::string frozen_dump = dump;
  monitor.OnTqSample(100.0);
  monitor.OnRateSample(10000.0, 100.0);
  EXPECT_EQ(monitor.dump(), frozen_dump);
}

TEST(PostmortemMonitorTest, DivergenceTriggerRespectsFloor) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  obs::PostmortemMonitor::Config config;
  config.divergence_factor = 4.0;
  obs::PostmortemMonitor monitor(loop, sampler, nullptr, config);

  monitor.OnRateSample(10.0, 1.0);  // both under the 64 kbps floor.
  EXPECT_FALSE(monitor.triggered());
  monitor.OnRateSample(900.0, 300.0);  // 3x, under the factor.
  EXPECT_FALSE(monitor.triggered());
  monitor.OnRateSample(1000.0, 100.0);  // 10x.
  ASSERT_TRUE(monitor.triggered());
  EXPECT_EQ(monitor.reason(), "estimator_divergence");
}

TEST(PostmortemMonitorTest, RetransmitStormTriggerCountsWindowedEvents) {
  sim::EventLoop loop;
  obs::SeriesSampler sampler(loop, {sim::Millis(10), 16});
  obs::FlightRecorder recorder(16);
  obs::PostmortemMonitor::Config config;
  config.retransmit_storm = 3;
  obs::PostmortemMonitor monitor(loop, sampler, &recorder, config);

  // Two retransmits far apart never accumulate; three inside a second do.
  recorder.Record(sim::Seconds(0), obs::FlightEventKind::kTcpRetransmit);
  recorder.Record(sim::Seconds(5), obs::FlightEventKind::kTcpRetransmit);
  recorder.Record(sim::Seconds(5) + sim::Millis(1),
                  obs::FlightEventKind::kQdiscAqmDrop);  // wrong kind.
  EXPECT_FALSE(monitor.triggered());
  recorder.Record(sim::Seconds(5) + sim::Millis(2),
                  obs::FlightEventKind::kTcpRetransmit);
  recorder.Record(sim::Seconds(5) + sim::Millis(3),
                  obs::FlightEventKind::kTcpRetransmit);
  ASSERT_TRUE(monitor.triggered());
  EXPECT_EQ(monitor.reason(), "retransmit_storm");
  EXPECT_TRUE(recorder.frozen());
}

// ----------------------------------------------------- scenario plumbing --

TEST(TimelineScenarioTest, TimelineKeysParseWithoutTouchingBottleneck) {
  scenario::FaultScenario parsed;
  std::string error;
  ASSERT_TRUE(scenario::ParseFaultScenario(
      "name=t\n"
      "timeline=1\n"
      "timeline_interval_ms=20\n"
      "anomaly_tq_p95_ms=40\n"
      "anomaly_retransmit_storm=50\n"
      "anomaly_divergence=4\n",
      &parsed, &error))
      << error;
  const auto& t = parsed.experiment.timeline;
  EXPECT_TRUE(t.enabled);
  EXPECT_EQ(t.interval, sim::Millis(20));
  EXPECT_DOUBLE_EQ(t.anomaly_tq_p95_ms, 40.0);
  EXPECT_EQ(t.anomaly_retransmit_storm, 50u);
  EXPECT_DOUBLE_EQ(t.anomaly_divergence, 4.0);
  // Telemetry keys must not switch the summary's bottleneck section on.
  EXPECT_FALSE(parsed.bottleneck_explicit);

  EXPECT_FALSE(scenario::ParseFaultScenario("timeline=maybe\n", &parsed,
                                            &error));
  EXPECT_FALSE(scenario::ParseFaultScenario("timeline_interval_ms=0\n",
                                            &parsed, &error));
  EXPECT_FALSE(scenario::ParseFaultScenario("anomaly_tq_p95_ms=-1\n",
                                            &parsed, &error));
}

scenario::FaultScenario SmallTimelineScenario(const char* extra = "") {
  scenario::FaultScenario parsed;
  std::string error;
  std::string text =
      "name=timeline_unit\n"
      "seed=1003\n"
      "duration_ms=8000\n"
      "cross_stations=1\n"
      "flows_per_station=6\n"
      "congestion_start_ms=2000\n"
      "congestion_end_ms=6000\n"
      "timeline=1\n"
      "timeline_interval_ms=20\n";
  text += extra;
  EXPECT_TRUE(scenario::ParseFaultScenario(text, &parsed, &error)) << error;
  return parsed;
}

TEST(TimelineScenarioTest, ArtifactsTimelineIsDeterministic) {
  const scenario::FaultScenario parsed = SmallTimelineScenario();
  scenario::FaultScenarioArtifacts first;
  scenario::FaultScenarioArtifacts second;
  const std::string summary_a =
      ToCanonicalJson(RunFaultScenario(parsed, &first));
  const std::string summary_b =
      ToCanonicalJson(RunFaultScenario(parsed, &second));
  EXPECT_EQ(summary_a, summary_b);
  EXPECT_FALSE(first.timeline_jsonl.empty());
  EXPECT_EQ(first.timeline_jsonl, second.timeline_jsonl);
  // The per-scenario registry round-trips through the exporter too.
  EXPECT_EQ(obs::PrometheusText(first.registry),
            obs::PrometheusText(second.registry));
}

TEST(TimelineScenarioTest, AnomalyTriggerProducesDeterministicPostmortem) {
  // A congested run with a deliberately low Tq threshold: the trigger must
  // fire, and two runs of the same scenario must dump identical bytes.
  const scenario::FaultScenario parsed =
      SmallTimelineScenario("anomaly_tq_p95_ms=2\n");
  scenario::FaultScenarioArtifacts first;
  scenario::FaultScenarioArtifacts second;
  RunFaultScenario(parsed, &first);
  RunFaultScenario(parsed, &second);
  ASSERT_FALSE(first.postmortem.empty());
  EXPECT_EQ(first.postmortem_reason, "tq_p95");
  EXPECT_EQ(first.postmortem, second.postmortem);
  EXPECT_NE(first.postmortem.find("\"type\":\"postmortem\""),
            std::string::npos);
  EXPECT_NE(first.postmortem.find("\"type\":\"series\""), std::string::npos);
}

TEST(TimelineScenarioTest, WildTimelineByteIdenticalAcrossJobs) {
  auto run = [](int jobs) {
    scenario::WildConfig config;
    config.calls = 3;
    config.base_seed = 77;
    config.call_duration = sim::Seconds(4);
    config.jobs = jobs;
    config.timeline = true;
    config.timeline_interval = sim::Millis(20);
    const scenario::WildResults results = RunWildPopulation(config);
    std::string timeline;
    for (const auto& call : results.calls) timeline += call.timeline_jsonl;
    return timeline;
  };
  const std::string serial = run(1);
  const std::string parallel = run(3);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Every environment's lines carry its own call stamp.
  for (int i = 0; i < 3; ++i) {
    EXPECT_NE(serial.find("\"call\":" + std::to_string(i)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace kwikr
