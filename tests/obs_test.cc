// Tests for the unified observability layer (src/obs): registry semantics,
// merge associativity/worker-count invariance, exporter validity, and the
// event-loop probe.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "obs/exporters.h"
#include "obs/metrics.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/event_loop.h"

namespace kwikr {
namespace {

// --------------------------------------------------- minimal JSON parser --
// Just enough of a recursive-descent validator to check exporter output
// really parses: objects, arrays, strings with escapes, numbers, literals.

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek('}')) { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (!Peek(':')) return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek('}')) { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek(']')) { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek(',')) { ++pos_; continue; }
      if (Peek(']')) { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (!Peek('"')) return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control.
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 1; i <= 4; ++i) {
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return false;
            }
          }
          pos_ += 4;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek('-')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ----------------------------------------------------------- registry -----

TEST(MetricsRegistryTest, CountersGaugesHistogramsRecord) {
  obs::MetricsRegistry registry;
  auto& counter = registry.GetCounter("requests_total", {{"code", "200"}});
  counter.Add();
  counter.Add(4);
  EXPECT_EQ(counter.value(), 5u);

  auto& gauge = registry.GetGauge("busy");
  gauge.Set(0.25);
  gauge.Max(0.75);
  gauge.Max(0.10);  // merge rule keeps the max.
  EXPECT_DOUBLE_EQ(gauge.value(), 0.75);

  auto& hist = registry.GetHistogram("latency_ms", {}, {0.0, 100.0, 100});
  for (int i = 1; i <= 99; ++i) hist.Observe(i);
  const stats::Histogram snap = hist.Snapshot();
  EXPECT_EQ(snap.count(), 99);
  EXPECT_NEAR(snap.Percentile(50.0), 50.0, 2.0);

  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  obs::MetricsRegistry registry;
  auto& a = registry.GetCounter("c", {{"x", "1"}, {"y", "2"}});
  auto& b = registry.GetCounter("c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
}

void FillShard(obs::MetricsRegistry& registry, int shard) {
  registry.GetCounter("events_total").Add(static_cast<std::uint64_t>(shard));
  registry.GetCounter("tagged_total", {{"shard", shard % 2 ? "odd" : "even"}})
      .Add(7);
  registry.GetGauge("peak").Max(static_cast<double>(shard));
  auto& hist = registry.GetHistogram("v", {}, {0.0, 10.0, 10});
  for (int i = 0; i <= shard; ++i) hist.Observe(static_cast<double>(i));
}

TEST(MetricsRegistryTest, MergeIsAssociativeAndCommutative) {
  // Three shards, merged in three different shapes, must serialize
  // byte-identically — the property the fleet merge relies on.
  auto make = [](int shard) {
    auto registry = std::make_unique<obs::MetricsRegistry>();
    FillShard(*registry, shard);
    return registry;
  };

  obs::MetricsRegistry left_fold;  // ((1 + 2) + 3)
  for (int s : {1, 2, 3}) left_fold.Merge(*make(s));

  obs::MetricsRegistry right_fold;  // (3 + (2 + 1)) via a staging registry
  obs::MetricsRegistry stage;
  stage.Merge(*make(2));
  stage.Merge(*make(1));
  right_fold.Merge(*make(3));
  right_fold.Merge(stage);

  obs::MetricsRegistry reversed;  // (3 + 2 + 1)
  for (int s : {3, 2, 1}) reversed.Merge(*make(s));

  const std::string expected = obs::PrometheusText(left_fold);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(expected, obs::PrometheusText(right_fold));
  EXPECT_EQ(expected, obs::PrometheusText(reversed));
}

TEST(MetricsRegistryTest, GaugeMaxMergePreservesNegativeValues) {
  // An unset gauge reads 0.0, but once set it must round-trip negative
  // maxima through Merge — a default-zero destination cell would silently
  // swallow them (max(-5, 0) == 0).
  obs::MetricsRegistry a;
  a.GetGauge("floor").Max(-5.0);
  EXPECT_TRUE(a.GetGauge("floor").has_value());
  EXPECT_DOUBLE_EQ(a.GetGauge("floor").value(), -5.0);

  obs::MetricsRegistry b;
  b.GetGauge("floor").Max(-2.0);

  obs::MetricsRegistry merged;
  merged.Merge(a);
  merged.Merge(b);
  EXPECT_TRUE(merged.GetGauge("floor").has_value());
  EXPECT_DOUBLE_EQ(merged.GetGauge("floor").value(), -2.0);

  // A declared-but-never-set gauge merges as presence only: the series
  // appears in the destination without perturbing any real value.
  obs::MetricsRegistry unset;
  unset.GetGauge("floor");
  merged.Merge(unset);
  EXPECT_DOUBLE_EQ(merged.GetGauge("floor").value(), -2.0);

  obs::MetricsRegistry fresh;
  fresh.Merge(unset);
  EXPECT_EQ(fresh.size(), 1u);                        // presence preserved,
  EXPECT_FALSE(fresh.GetGauge("floor").has_value());  // value still unset.
  EXPECT_DOUBLE_EQ(fresh.GetGauge("floor").value(), 0.0);
}

TEST(MetricsRegistryTest, WildPopulationRegistryInvariantAcrossJobs) {
  // The end-to-end determinism contract: the merged registry of a parallel
  // population run serializes bit-identically to the serial run's.
  auto run = [](int jobs) {
    scenario::WildConfig config;
    config.calls = 3;
    config.base_seed = 77;
    config.call_duration = sim::Seconds(4);
    config.jobs = jobs;
    obs::MetricsRegistry registry;
    config.metrics = &registry;
    RunWildPopulation(config);
    return obs::PrometheusText(registry);
  };
  const std::string serial = run(1);
  const std::string parallel = run(3);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // Sanity: the scrape actually carries probing data.
  EXPECT_NE(serial.find("probe_rounds_total"), std::string::npos);
  EXPECT_NE(serial.find("probe_discards_total"), std::string::npos);
  EXPECT_NE(serial.find("arm=\"kwikr\""), std::string::npos);
  EXPECT_NE(serial.find("arm=\"baseline\""), std::string::npos);
}

// ----------------------------------------------------------- exporters ----

TEST(ExportersTest, PrometheusTextWellFormed) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a_total", {{"k", "quote\"back\\slash\nnewline"}})
      .Add(3);
  registry.GetGauge("9starts_with_digit").Set(1.5);
  registry.GetHistogram("h", {{"l", "v"}}, {0.0, 10.0, 10}).Observe(5.0);

  const std::string text = obs::PrometheusText(registry);
  EXPECT_NE(text.find("# TYPE _9starts_with_digit gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE a_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE h summary\n"), std::string::npos);
  EXPECT_NE(text.find("a_total{k=\"quote\\\"back\\\\slash\\nnewline\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("h{l=\"v\",quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("h_sum{l=\"v\"}"), std::string::npos);
  EXPECT_NE(text.find("h_count{l=\"v\"} 1\n"), std::string::npos);
}

TEST(ExportersTest, EmptyRegistrySerializesEmpty) {
  // A never-touched registry must scrape as zero bytes (no stray TYPE
  // headers), and an event-free Chrome trace must still be a complete,
  // parseable JSON document.
  obs::MetricsRegistry empty;
  EXPECT_EQ(obs::PrometheusText(empty), "");

  const obs::ChromeTraceWriter writer;
  EXPECT_EQ(writer.events(), 0u);
  const std::string json = writer.ToJson();
  EXPECT_TRUE(JsonParser(json).Parse()) << json;
}

TEST(ExportersTest, ChromeTraceJsonParsesWithCategories) {
  obs::ChromeTraceWriter writer;
  writer.OnSpan("experiment", "experiment", 0, sim::Millis(5),
                /*wall_us=*/12.5, {{"calls", 1.0}});
  writer.OnInstant("sample", "probe", sim::Millis(1),
                   {{"tq_ms", 2.5}, {"weird\"key", 1.0}});
  writer.OnCounter("depth", "queue", sim::Millis(2), {{"BE", 4.0}});
  writer.OnCounter("channel", "wifi", sim::Millis(2), {{"busy_pct", 12.0}});
  writer.OnCounter("rate", "rtc", sim::Millis(2), {{"kbps", 500.0}});
  writer.OnCounter("flight", "tcp", sim::Millis(2), {{"in_flight", 9.0}});

  const std::string json = writer.ToJson();
  EXPECT_TRUE(JsonParser(json).Parse()) << json;
  EXPECT_EQ(writer.events(), 6u);

  std::set<std::string> categories;
  std::size_t pos = 0;
  while ((pos = json.find("\"cat\":\"", pos)) != std::string::npos) {
    pos += 7;
    categories.insert(json.substr(pos, json.find('"', pos) - pos));
  }
  EXPECT_GE(categories.size(), 5u);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_us\":"), std::string::npos);
}

TEST(ExportersTest, CallTraceExportsTimelineSeriesAndFlightEvents) {
  // A congested call with the timeline on, run twice: without and with
  // `timeline.chrome_trace`. The trace is written after the run, so every
  // deterministic output must be the same bytes either way.
  scenario::FaultScenario parsed;
  std::string error;
  ASSERT_TRUE(scenario::ParseFaultScenario(
      "name=trace_unit\n"
      "seed=1003\n"
      "duration_ms=8000\n"
      "cross_stations=2\n"
      "flows_per_station=10\n"
      "congestion_start_ms=2000\n"
      "congestion_end_ms=6000\n"
      "timeline=1\n"
      "timeline_interval_ms=100\n",
      &parsed, &error))
      << error;
  scenario::FaultScenarioArtifacts plain;
  const std::string plain_summary =
      ToCanonicalJson(RunFaultScenario(parsed, &plain));

  const std::string path = ::testing::TempDir() + "obs_test_call_trace.json";
  parsed.experiment.timeline.chrome_trace = path;
  scenario::FaultScenarioArtifacts traced;
  EXPECT_EQ(ToCanonicalJson(RunFaultScenario(parsed, &traced)),
            plain_summary);
  EXPECT_EQ(traced.timeline_jsonl, plain.timeline_jsonl);
  EXPECT_EQ(obs::PrometheusText(traced.registry),
            obs::PrometheusText(plain.registry));

  std::ostringstream text;
  text << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  const std::string json = text.str();
  ASSERT_TRUE(JsonParser(json).Parse()) << json.substr(0, 200);

  // Every event opens with {"name":...,"cat":...,"ph":...}.
  auto field = [&json](std::size_t from, const char* key) {
    const std::string tag = std::string("\"") + key + "\":\"";
    const std::size_t at = json.find(tag, from) + tag.size();
    return json.substr(at, json.find('"', at) - at);
  };
  std::map<std::string, std::size_t> counter_rows;
  std::size_t flight_instants = 0;
  for (std::size_t at = json.find("{\"name\":\""); at != std::string::npos;
       at = json.find("{\"name\":\"", at + 1)) {
    const std::string phase = field(at, "ph");
    if (phase == "C") {
      EXPECT_EQ(field(at, "cat"), "timeline");
      ++counter_rows[field(at, "name")];
    } else {
      ASSERT_EQ(phase, "i");
      EXPECT_EQ(field(at, "cat"), "flight");
      ++flight_instants;
    }
  }

  // One counter track per timeline series, one counter event per row.
  std::map<std::string, std::size_t> series_rows;
  std::istringstream lines(plain.timeline_jsonl);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t name = line.find("\"name\":\"") + 8;
    const std::size_t n = line.find("\"n\":") + 4;
    series_rows[line.substr(name, line.find('"', name) - name)] =
        std::stoul(line.substr(n));
  }
  EXPECT_EQ(counter_rows, series_rows);
  EXPECT_EQ(counter_rows.count("ap_queue_BE"), 1u);
  EXPECT_EQ(counter_rows.count("probe_tq_ms"), 1u);
  EXPECT_EQ(counter_rows.count("rate_target_kbps"), 1u);

  // The congestion window drops frames and retransmits segments, and the
  // flight recorder's retained events arrive as instants.
  EXPECT_GT(flight_instants, 0u);
}

// ------------------------------------------------------- event loop hook --

TEST(EventLoopProbeTest, ExecutedAndProbeCountsAgree) {
  sim::EventLoop loop;
  obs::MetricsRegistry registry;
  obs::EventLoopMetricsProbe probe(registry);
  loop.SetProbe(&probe);

  const std::uint64_t executed_before = loop.executed();
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleIn(sim::Millis(i), "test.alpha", [] {});
  }
  for (int i = 0; i < 3; ++i) {
    loop.ScheduleIn(sim::Millis(i), "test.beta", [] {});
  }
  loop.ScheduleIn(sim::Millis(1), [] {});  // untyped -> "event".
  sim::PeriodicTimer timer(loop, sim::Millis(2), [] {});
  timer.Start();
  loop.RunUntil(sim::Millis(10));
  timer.Stop();
  loop.Run();

  const std::uint64_t executed = loop.executed() - executed_before;
  EXPECT_EQ(probe.total(), executed);

  // The per-type counters must add up to the loop's own executed() count.
  std::uint64_t counted = 0;
  for (const auto& row : registry.Snapshot()) {
    if (row.name == "sim_events_total") counted += row.counter_value;
  }
  EXPECT_EQ(counted, executed);
  EXPECT_EQ(registry.GetCounter("sim_events_total", {{"type", "test.alpha"}})
                .value(),
            5u);
  EXPECT_EQ(registry.GetCounter("sim_events_total", {{"type", "test.beta"}})
                .value(),
            3u);
  EXPECT_GE(registry.GetCounter("sim_events_total", {{"type", "timer"}})
                .value(),
            4u);
  EXPECT_EQ(
      registry.GetCounter("sim_events_total", {{"type", "event"}}).value(),
      1u);
}

TEST(EventLoopProbeTest, NoProbeMeansNoObservation) {
  sim::EventLoop loop;
  ASSERT_EQ(loop.probe(), nullptr);
  loop.ScheduleIn(0, [] {});
  loop.Run();
  EXPECT_EQ(loop.executed(), 1u);
}

}  // namespace
}  // namespace kwikr
