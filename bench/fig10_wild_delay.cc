// Figure 10: Wi-Fi downlink delay "in the wild". For every call in the
// Monte-Carlo population we take the 95th-percentile Ping-Pair queueing
// delay, attributed to the call itself ("Skype") vs cross-traffic, and plot
// the distribution of those per-call percentiles (paper Section 8.4; the
// production study covered 119,789 calls — we scale the population down and
// keep the statistic definitions identical).
//
// Two execution modes:
//
//  * Legacy in-RAM mode (default): RunWildPopulation holds every call's
//    result in a vector. Fine up to a few thousand calls.
//  * Spill mode (--spill-dir DIR): the fleet::ShardRunner streams per-call
//    results to JSONL spill files, one chunk of calls at a time on --jobs
//    threads, optionally as one shard of a cluster-wide sweep (--shard
//    k/n), checkpointing every --checkpoint-every calls so a killed run
//    continues with --resume. Peak RSS is then independent of --calls:
//    percentiles come from mergeable stats::Histogram sketches (exact
//    bin-count merge), not from in-RAM sample vectors, so a million-call
//    sweep runs in a bounded footprint and the merged artifacts are
//    byte-identical for any --jobs x --shard split.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/shard_runner.h"
#include "obs/exporters.h"
#include "obs/registry_io.h"
#include "scenario/wild_population.h"
#include "stats/histogram.h"

using namespace kwikr;

namespace {

/// Population timeline: per-call JSONL concatenated in index order, which
/// makes the bytes independent of --jobs (each line carries "call":N).
std::string ConcatTimelines(const scenario::WildResults& results) {
  std::string out;
  for (const auto& call : results.calls) out += call.timeline_jsonl;
  return out;
}

bool EnsureDir(const std::string& path) {
  return ::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST;
}

/// Delay-distribution accumulator shared by both modes; in spill mode it is
/// fed one decoded call at a time so nothing per-call stays resident.
struct DelayAccumulator {
  // [0, 1000] ms at ~0.5 ms resolution: queueing delays beyond a second
  // clamp into the top bin but keep their exact max.
  static constexpr stats::Histogram::Config kBinning{0.0, 1000.0, 2048};
  /// Paper §3.2: a per-call p95 needs at least this many ping-pair samples
  /// to be meaningful; calls below the floor are excluded from every
  /// distribution (and counted, so short --call-seconds runs warn loudly
  /// instead of silently reporting percentiles of near-empty calls).
  static constexpr int kSampleFloor = 10;
  stats::Histogram self_ms{kBinning};
  stats::Histogram cross_ms{kBinning};
  stats::Histogram total_ms{kBinning};
  std::uint64_t measurable = 0;
  std::uint64_t cross_dominated = 0;
  std::uint64_t events = 0;
  std::uint64_t below_floor = 0;  ///< calls excluded by kSampleFloor.

  void Add(const scenario::WildCallResult& call) {
    events += call.events_executed;
    if (call.probe_samples < kSampleFloor) {
      ++below_floor;
      return;
    }
    self_ms.Add(call.p95_ta_ms);
    cross_ms.Add(call.p95_tc_ms);
    total_ms.Add(call.p95_tq_ms);
    if (call.p95_tq_ms > 1.0) {
      ++measurable;
      if (call.p95_tc_ms > call.p95_ta_ms) ++cross_dominated;
    }
  }

  [[nodiscard]] double DominatedPct() const {
    return measurable > 0 ? 100.0 * static_cast<double>(cross_dominated) /
                                static_cast<double>(measurable)
                          : 0.0;
  }

  void PrintTable() const {
    std::printf("distribution of per-call 95th%%ile queueing delay (ms), "
                "n=%lld calls:\n\n",
                static_cast<long long>(total_ms.count()));
    std::printf("%-18s %8s %8s %8s %8s %8s\n", "", "50th", "75th", "90th",
                "95th", "99th");
    auto row = [](const char* label, const stats::Histogram& h) {
      std::printf("%-18s %8.1f %8.1f %8.1f %8.1f %8.1f\n", label,
                  h.Percentile(50.0), h.Percentile(75.0), h.Percentile(90.0),
                  h.Percentile(95.0), h.Percentile(99.0));
    };
    row("Skype (self)", self_ms);
    row("Cross-traffic", cross_ms);
    row("Total", total_ms);
    std::printf("\ncross-traffic exceeds self-delay in %.0f%% of calls with "
                "measurable delay\n\n",
                DominatedPct());
  }

  /// Canonical JSON for the byte-compare gates: every number is either an
  /// exact integer or a %.17g double of a deterministic quantity.
  [[nodiscard]] std::string Json(int calls) const {
    char buffer[256];
    std::string out = "{\"bench\":\"fig10_wild_delay\",\"mode\":\"spill\"";
    std::snprintf(buffer, sizeof(buffer), ",\"calls\":%d,\"n\":%lld", calls,
                  static_cast<long long>(total_ms.count()));
    out += buffer;
    auto series = [&](const char* name, const stats::Histogram& h) {
      std::snprintf(buffer, sizeof(buffer),
                    ",\"%s\":{\"p50\":%.17g,\"p75\":%.17g,\"p90\":%.17g,"
                    "\"p95\":%.17g,\"p99\":%.17g,\"max\":%.17g}",
                    name, h.Percentile(50.0), h.Percentile(75.0),
                    h.Percentile(90.0), h.Percentile(95.0),
                    h.Percentile(99.0), h.max());
      out += buffer;
    };
    series("self_ms", self_ms);
    series("cross_ms", cross_ms);
    series("total_ms", total_ms);
    std::snprintf(buffer, sizeof(buffer),
                  ",\"cross_dominates_pct\":%.17g,\"events\":%llu,"
                  "\"sample_floor\":%llu,\"calls_below_floor\":%llu}\n",
                  DominatedPct(), static_cast<unsigned long long>(events),
                  static_cast<unsigned long long>(kSampleFloor),
                  static_cast<unsigned long long>(below_floor));
    out += buffer;
    return out;
  }
};

/// Loud sub-floor warning shared by both modes: percentiles computed from
/// calls with almost no probe samples are statistical noise, so short
/// --call-seconds runs must not pass silently.
void WarnBelowFloor(std::uint64_t below_floor, std::uint64_t total_calls,
                    int call_seconds) {
  if (below_floor == 0) return;
  std::fprintf(
      stderr,
      "WARNING: %llu of %llu calls produced fewer than %llu ping-pair "
      "samples (the paper's Section 3.2 floor) and were EXCLUDED from every "
      "percentile above — a per-call p95 over so few samples is noise, not "
      "a delay estimate. Raise --call-seconds (currently %d) until every "
      "call clears the floor.\n",
      static_cast<unsigned long long>(below_floor),
      static_cast<unsigned long long>(total_calls),
      static_cast<unsigned long long>(DelayAccumulator::kSampleFloor),
      call_seconds);
}

/// --spill-dir mode: shard-runner execution + hierarchical merge.
int RunSpillMode(int argc, char** argv, const char* spill_dir) {
  scenario::WildConfig wild;
  const int calls = bench::ParseIntFlag(argc, argv, "--calls", 150);
  wild.base_seed = 1010;
  const int call_seconds =
      bench::ParseIntFlag(argc, argv, "--call-seconds", 60);
  wild.call_duration = sim::Seconds(call_seconds);
  wild.jobs = bench::ParseJobs(argc, argv);
  const char* timeline_out =
      bench::ParseStringFlag(argc, argv, "--timeline-out");
  wild.timeline =
      timeline_out != nullptr || bench::HasFlag(argc, argv, "--timeline");
  wild.timeline_interval = sim::Millis(
      bench::ParseIntFlag(argc, argv, "--timeline-interval-ms", 10));
  const bool metrics_on = bench::MetricsRequested(argc, argv) ||
                          bench::HasFlag(argc, argv, "--metrics");

  fleet::ShardRunnerConfig config;
  config.total_items = static_cast<std::uint64_t>(std::max(calls, 0));
  const char* shard_text =
      bench::ParseStringFlag(argc, argv, "--shard", "0/1");
  if (std::sscanf(shard_text, "%d/%d", &config.shard.index,
                  &config.shard.count) != 2 ||
      config.shard.count < 1 || config.shard.index < 0 ||
      config.shard.index >= config.shard.count) {
    std::fprintf(stderr, "--shard wants k/n with 0 <= k < n, got '%s'\n",
                 shard_text);
    return 2;
  }
  config.spill_dir = spill_dir;
  config.checkpoint_every = static_cast<std::uint64_t>(std::max(
      bench::ParseIntFlag(argc, argv, "--checkpoint-every", 256), 1));
  config.resume = bench::HasFlag(argc, argv, "--resume");
  // Everything that shapes per-call bytes; deliberately NOT --jobs or
  // --checkpoint-every — those repartition work without changing any
  // result, and a resume may legally alter them.
  {
    char fp[256];
    std::snprintf(fp, sizeof(fp),
                  "fig10;calls=%d;seed=%llu;call_seconds=%d;shards=%d;"
                  "metrics=%d;timeline=%d;interval_ms=%d",
                  calls, static_cast<unsigned long long>(wild.base_seed),
                  call_seconds, config.shard.count, metrics_on ? 1 : 0,
                  wild.timeline ? 1 : 0,
                  bench::ParseIntFlag(argc, argv, "--timeline-interval-ms",
                                      10));
    config.fingerprint = fp;
  }

  if (!EnsureDir(config.spill_dir)) {
    std::fprintf(stderr, "cannot create spill dir %s\n",
                 config.spill_dir.c_str());
    return 1;
  }

  fleet::ShardRunStatus run_status;
  run_status.ok = true;
  double run_wall_ms = 0.0;
  if (!bench::HasFlag(argc, argv, "--merge-only")) {
    fleet::ShardRunner runner(
        config, [&](std::uint64_t begin, std::uint64_t end) {
          fleet::ChunkOutput out;
          scenario::WildConfig chunk_config = wild;
          obs::MetricsRegistry chunk_registry;
          if (metrics_on) chunk_config.metrics = &chunk_registry;
          scenario::RunWildRange(
              chunk_config, begin, end,
              [&](std::uint64_t index, scenario::WildCallResult&& result) {
                out.results_jsonl +=
                    scenario::EncodeWildCallLine(index, result);
                out.timeline_jsonl += result.timeline_jsonl;
              });
          if (metrics_on) {
            out.metrics_jsonl = obs::SerializeRegistry(chunk_registry);
          }
          return out;
        });
    bench::WallTimer timer;
    run_status = runner.Run();
    run_wall_ms = timer.ElapsedMs();
    if (!run_status.ok) {
      std::fprintf(stderr, "fleet: %s\n", run_status.error.c_str());
      return 1;
    }
    std::printf("fleet: shard %d/%d finished %llu calls (%llu resumed from "
                "checkpoints) in %.1f ms with --jobs %d\n",
                config.shard.index, config.shard.count,
                static_cast<unsigned long long>(run_status.items_done),
                static_cast<unsigned long long>(run_status.items_resumed),
                run_wall_ms, wild.jobs);
  }

  // ---- hierarchical merge: chunk spills -> shard -> global artifacts ----
  const std::string merged_dir = config.spill_dir + "/merged";
  if (!EnsureDir(merged_dir)) {
    std::fprintf(stderr, "cannot create %s\n", merged_dir.c_str());
    return 1;
  }

  DelayAccumulator accumulator;
  obs::MetricsRegistry registry;
  std::uint64_t decode_failures = 0;
  std::ofstream merged_timeline;
  std::ofstream extra_timeline;
  if (wild.timeline) {
    merged_timeline.open(merged_dir + "/timeline.jsonl",
                         std::ios::binary | std::ios::trunc);
    if (timeline_out != nullptr) {
      extra_timeline.open(timeline_out, std::ios::binary | std::ios::trunc);
    }
  }

  fleet::MergeConsumer consumer;
  consumer.on_result_line = [&](std::uint64_t index, std::string_view line) {
    scenario::WildCallResult call;
    std::uint64_t decoded_index = 0;
    if (!scenario::DecodeWildCallLine(line, &decoded_index, &call) ||
        decoded_index != index) {
      ++decode_failures;
      return;
    }
    accumulator.Add(call);
  };
  if (metrics_on) consumer.metrics = &registry;
  if (wild.timeline) {
    consumer.on_timeline = [&](std::string_view bytes) {
      merged_timeline.write(bytes.data(),
                            static_cast<std::streamsize>(bytes.size()));
      if (extra_timeline.is_open()) {
        extra_timeline.write(bytes.data(),
                             static_cast<std::streamsize>(bytes.size()));
      }
    };
  }

  const fleet::MergeStatus merge = fleet::MergeShardSpills(config, consumer);
  if (!merge.ok) {
    std::fprintf(stderr, "merge: %s\n", merge.error.c_str());
    return 1;
  }
  const std::uint64_t peak_rss =
      std::max(merge.peak_rss_kb, run_status.peak_rss_kb);
  char headline[512];
  std::snprintf(
      headline, sizeof(headline),
      "{\"bench\":\"fleet_shard\",\"calls\":%d,\"shard\":\"%d/%d\","
      "\"jobs\":%d,\"checkpoint_every\":%llu,"
      "\"items_done\":%llu,\"items_resumed\":%llu,\"wall_ms\":%.1f,"
      "\"calls_per_sec\":%.2f,\"peak_rss_kb\":%llu,"
      "\"rss_kb_per_1e5_calls\":%.1f}",
      calls, config.shard.index, config.shard.count, wild.jobs,
      static_cast<unsigned long long>(config.checkpoint_every),
      static_cast<unsigned long long>(run_status.items_done),
      static_cast<unsigned long long>(run_status.items_resumed), run_wall_ms,
      run_wall_ms > 0.0
          ? static_cast<double>(run_status.items_done) / (run_wall_ms / 1e3)
          : 0.0,
      static_cast<unsigned long long>(peak_rss),
      calls > 0 ? static_cast<double>(peak_rss) * 1e5 /
                      static_cast<double>(calls)
                : 0.0);
  if (!merge.complete) {
    // Nothing wrong: another shard of the cluster sweep is still running
    // (or this machine only owns a slice). Report and exit cleanly.
    std::printf("merge pending: %s\n", merge.error.c_str());
    std::printf("%s\n", headline);
    return 0;
  }
  if (decode_failures > 0) {
    std::fprintf(stderr,
                 "merge: %llu spill lines failed to decode — corrupt spill\n",
                 static_cast<unsigned long long>(decode_failures));
    return 1;
  }

  accumulator.PrintTable();
  WarnBelowFloor(accumulator.below_floor, merge.items, call_seconds);
  const std::string percentiles = accumulator.Json(calls);
  {
    std::ofstream out(merged_dir + "/percentiles.json",
                      std::ios::binary | std::ios::trunc);
    out << percentiles;
  }
  std::printf("merged %llu calls -> %s/percentiles.json\n",
              static_cast<unsigned long long>(merge.items),
              merged_dir.c_str());
  if (metrics_on) {
    obs::WritePrometheus(registry, (merged_dir + "/metrics.prom").c_str());
    bench::ExportMetrics(argc, argv, registry);
  }
  if (wild.timeline) {
    merged_timeline.close();
    std::printf("timeline: merged stream at %s/timeline.jsonl\n",
                merged_dir.c_str());
  }
  std::printf("%s\n", headline);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Figure 10 — Wi-Fi downlink delay in the wild",
                "Per-call 95th-pct queueing delay, split self vs "
                "cross-traffic.\nPaper: cross-traffic dominates; worst 5% of "
                "calls see >= ~98 ms of cross-traffic delay.");

  // The timeline sampler re-arms every interval; a zero interval would
  // re-arm it at its own tick forever.
  if (bench::ParseIntFlag(argc, argv, "--timeline-interval-ms", 10) < 1) {
    std::fprintf(stderr, "--timeline-interval-ms wants an integer >= 1\n");
    return 2;
  }
  if (bench::HasFlag(argc, argv, "--processes")) {
    std::fprintf(stderr,
                 "--processes is gone: a sweep runs in one process; use "
                 "--jobs N for N worker threads\n");
    return 2;
  }
  if (const char* spill_dir =
          bench::ParseStringFlag(argc, argv, "--spill-dir")) {
    return RunSpillMode(argc, argv, spill_dir);
  }
  if (bench::HasFlag(argc, argv, "--shard") ||
      bench::HasFlag(argc, argv, "--resume")) {
    std::fprintf(stderr,
                 "--shard/--resume need --spill-dir DIR (the shard runner "
                 "streams results through spill files)\n");
    return 2;
  }

  scenario::WildConfig config;
  config.calls = bench::ParseIntFlag(argc, argv, "--calls", 150);
  config.base_seed = 1010;
  config.call_duration =
      sim::Seconds(bench::ParseIntFlag(argc, argv, "--call-seconds", 60));
  config.jobs = bench::ParseJobs(argc, argv);

  // --metrics-out: merged per-environment registry; every value in it is a
  // simulated quantity, so the export is bit-identical for any --jobs.
  obs::MetricsRegistry registry;
  if (bench::MetricsRequested(argc, argv)) config.metrics = &registry;

  // --timeline-out: sim-time series sampling on every Kwikr arm, written as
  // one JSONL file for the whole population (bit-identical for any --jobs).
  const char* timeline_out =
      bench::ParseStringFlag(argc, argv, "--timeline-out");
  config.timeline = timeline_out != nullptr;
  config.timeline_interval = sim::Millis(
      bench::ParseIntFlag(argc, argv, "--timeline-interval-ms", 10));

  bench::WallTimer timer;
  const scenario::WildResults results = scenario::RunWildPopulation(config);
  const double wall_ms = timer.ElapsedMs();

  std::vector<double> self_ms;
  std::vector<double> cross_ms;
  std::vector<double> total_ms;
  std::uint64_t below_floor = 0;
  for (const auto& call : results.calls) {
    if (call.probe_samples < DelayAccumulator::kSampleFloor) {
      ++below_floor;
      continue;
    }
    self_ms.push_back(call.p95_ta_ms);
    cross_ms.push_back(call.p95_tc_ms);
    total_ms.push_back(call.p95_tq_ms);
  }

  std::printf("distribution of per-call 95th%%ile queueing delay (ms), "
              "n=%zu calls:\n\n", total_ms.size());
  std::printf("%-18s %8s %8s %8s %8s %8s\n", "", "50th", "75th", "90th",
              "95th", "99th");
  auto row = [](const char* label, const std::vector<double>& v) {
    std::printf("%-18s %8.1f %8.1f %8.1f %8.1f %8.1f\n", label,
                stats::Percentile(v, 50.0), stats::Percentile(v, 75.0),
                stats::Percentile(v, 90.0), stats::Percentile(v, 95.0),
                stats::Percentile(v, 99.0));
  };
  row("Skype (self)", self_ms);
  row("Cross-traffic", cross_ms);
  row("Total", total_ms);

  std::printf("\ncross-traffic exceeds self-delay in %.0f%% of calls with "
              "measurable delay\n",
              [&] {
                int dominated = 0;
                int measurable = 0;
                for (std::size_t i = 0; i < cross_ms.size(); ++i) {
                  if (total_ms[i] > 1.0) {
                    ++measurable;
                    if (cross_ms[i] > self_ms[i]) ++dominated;
                  }
                }
                return measurable > 0 ? 100.0 * dominated / measurable : 0.0;
              }());
  WarnBelowFloor(below_floor, results.calls.size(),
                 bench::ParseIntFlag(argc, argv, "--call-seconds", 60));

  std::printf("\n");
  double serial_wall_ms = 0.0;
  if (config.jobs != 1 && bench::HasFlag(argc, argv, "--compare-serial")) {
    scenario::WildConfig serial = config;
    serial.jobs = 1;
    // The reference run must not merge into the same registry twice.
    serial.metrics = nullptr;
    bench::WallTimer serial_timer;
    const scenario::WildResults serial_results =
        scenario::RunWildPopulation(serial);
    serial_wall_ms = serial_timer.ElapsedMs();
    bench::PrintFleetTiming("fig10_wild_delay", 1, serial_wall_ms,
                            config.calls);
    std::printf("determinism: jobs=%d results %s jobs=1 results\n",
                config.jobs,
                std::equal(results.calls.begin(), results.calls.end(),
                           serial_results.calls.begin(),
                           serial_results.calls.end(),
                           [](const auto& a, const auto& b) {
                             return a.p95_tq_ms == b.p95_tq_ms &&
                                    a.p95_ta_ms == b.p95_ta_ms &&
                                    a.p95_tc_ms == b.p95_tc_ms &&
                                    a.probe_samples == b.probe_samples &&
                                    a.baseline_rate_kbps ==
                                        b.baseline_rate_kbps &&
                                    a.kwikr_rate_kbps == b.kwikr_rate_kbps;
                           })
                    ? "byte-identical to"
                    : "DIVERGE from");
    if (config.timeline) {
      std::printf("timeline determinism: jobs=%d timeline %s jobs=1 "
                  "timeline\n",
                  config.jobs,
                  ConcatTimelines(results) == ConcatTimelines(serial_results)
                      ? "byte-identical to"
                      : "DIVERGES from");
    }
  }
  std::uint64_t events_executed = 0;
  for (const auto& call : results.calls) events_executed += call.events_executed;
  bench::PrintFleetTiming("fig10_wild_delay", config.jobs, wall_ms,
                          config.calls, serial_wall_ms, events_executed);
  bench::ExportMetrics(argc, argv, registry);

  if (timeline_out != nullptr) {
    const std::string timeline = ConcatTimelines(results);
    std::ofstream out(timeline_out, std::ios::binary | std::ios::trunc);
    if (out) {
      out << timeline;
      std::printf("timeline: wrote %zu bytes to %s\n", timeline.size(),
                  timeline_out);
    } else {
      std::fprintf(stderr, "timeline: cannot write %s\n", timeline_out);
    }
  }

  // KWIKR_TRACE_DIR: Chrome-trace one example call rather than the whole
  // population: a 30 s Kwikr call on the default testbed, whose two
  // cross-traffic stations congest the AP from 10 s to 20 s, sampled every
  // 100 ms with the flight recorder attached.
  const std::string trace_path = bench::TracePath();
  if (!trace_path.empty()) {
    scenario::ExperimentConfig example;
    example.seed = config.base_seed;
    example.duration = sim::Seconds(30);
    example.congestion_start = sim::Seconds(10);
    example.congestion_end = sim::Seconds(20);
    example.calls[0].kwikr = true;
    example.timeline.enabled = true;
    example.timeline.interval = sim::Millis(100);
    example.timeline.chrome_trace = trace_path;
    scenario::RunCallExperiment(example);
    std::printf("trace: example call -> %s\n", trace_path.c_str());
  }
  return 0;
}
