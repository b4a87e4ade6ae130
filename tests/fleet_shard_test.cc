// Tests for the shard runner (src/fleet): spill/checkpoint durability,
// resume byte-identity at randomized cut points, corrupt-spill detection,
// failing chunks, the per-shard spill lock, the lossless registry codec and
// its merge associativity, and shard split invariance of the hierarchical
// merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/checkpoint.h"
#include "fleet/shard_runner.h"
#include "fleet/spill.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "obs/registry_io.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"
#include "sim/time.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace kwikr {
namespace {

// ----------------------------------------------------------- helpers ------

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "fleet_shard_" + name;
#if defined(__unix__) || defined(__APPLE__)
  dir += "_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
#endif
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void AppendFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

// Deterministic synthetic chunk: cheap, but exercises all three payloads.
// Every value is a pure function of the global index, exactly the contract
// real chunk functions (seed-forked simulations) satisfy.
fleet::ChunkOutput SyntheticChunk(std::uint64_t begin, std::uint64_t end) {
  fleet::ChunkOutput out;
  obs::MetricsRegistry registry;
  auto& calls = registry.GetCounter("calls_total");
  auto& values = registry.GetHistogram("value", {}, {0.0, 16.0, 16});
  auto& high = registry.GetGauge("highest_value");
  for (std::uint64_t i = begin; i < end; ++i) {
    const std::uint64_t v = i * 7 % 13;
    out.results_jsonl +=
        "{\"call\":" + std::to_string(i) + ",\"v\":" + std::to_string(v) +
        "}\n";
    out.timeline_jsonl +=
        "{\"call\":" + std::to_string(i) + ",\"t\":0,\"v\":" +
        std::to_string(v) + "}\n";
    calls.Add(1);
    values.Observe(static_cast<double>(v));
    high.Max(static_cast<double>(v));
  }
  out.metrics_jsonl = obs::SerializeRegistry(registry);
  return out;
}

fleet::ShardRunnerConfig SyntheticConfig(const std::string& dir,
                                         std::uint64_t total) {
  fleet::ShardRunnerConfig config;
  config.total_items = total;
  config.spill_dir = dir;
  config.checkpoint_every = 3;
  config.fingerprint = "synthetic;total=" + std::to_string(total);
  return config;
}

// Everything the hierarchical merge produces, flattened for comparison.
struct MergedArtifacts {
  std::string results;
  std::string timeline;
  std::string prometheus;
  fleet::MergeStatus status;
};

MergedArtifacts MergeAll(const fleet::ShardRunnerConfig& config) {
  MergedArtifacts merged;
  obs::MetricsRegistry registry;
  std::uint64_t expected = 0;
  fleet::MergeConsumer consumer;
  consumer.on_result_line = [&](std::uint64_t index, std::string_view line) {
    EXPECT_EQ(index, expected++);
    merged.results.append(line.data(), line.size());
  };
  consumer.metrics = &registry;
  consumer.on_timeline = [&](std::string_view bytes) {
    merged.timeline.append(bytes.data(), bytes.size());
  };
  merged.status = fleet::MergeShardSpills(config, consumer);
  merged.prometheus = obs::PrometheusText(registry);
  return merged;
}

// -------------------------------------------------- partition algebra ----

TEST(PartitionItems, CoversEveryItemExactlyOnceInOrder) {
  for (std::uint64_t total : {0ull, 1ull, 5ull, 7ull, 12ull, 100ull, 999ull}) {
    for (int parts : {1, 2, 3, 7, 16}) {
      std::uint64_t next = 0;
      for (int part = 0; part < parts; ++part) {
        const fleet::ItemRange range =
            fleet::PartitionItems(total, parts, part);
        EXPECT_EQ(range.begin, next) << total << "/" << parts << "#" << part;
        EXPECT_LE(range.begin, range.end);
        next = range.end;
      }
      EXPECT_EQ(next, total) << total << "/" << parts;
    }
  }
}

TEST(PartitionItems, PartSizesDifferByAtMostOne) {
  const std::uint64_t total = 103;
  const int parts = 8;
  std::uint64_t smallest = total, largest = 0;
  for (int part = 0; part < parts; ++part) {
    const auto size = fleet::PartitionItems(total, parts, part).size();
    smallest = std::min(smallest, size);
    largest = std::max(largest, size);
  }
  EXPECT_LE(largest - smallest, 1u);
}

// ------------------------------------------------- registry codec --------

obs::MetricsRegistry* FillRegistry(obs::MetricsRegistry* registry) {
  registry->GetCounter("frames_total", {{"ac", "VI"}}).Add(41);
  registry->GetGauge("queue_depth_max").Max(-3.5);  // negative maximum.
  registry->GetGauge("never_written");              // unset sentinel.
  auto& hist = registry->GetHistogram("delay_ms", {}, {0.0, 100.0, 64});
  hist.Observe(0.1);
  hist.Observe(98.6);
  hist.Observe(250.0);  // overflow clamp.
  return registry;
}

TEST(RegistryCodec, RoundTripReproducesExportsByteForByte) {
  obs::MetricsRegistry original;
  FillRegistry(&original);

  const std::string jsonl = obs::SerializeRegistry(original);
  obs::MetricsRegistry rebuilt;
  std::string error;
  ASSERT_TRUE(obs::MergeSerializedRegistry(jsonl, &rebuilt, &error)) << error;

  EXPECT_EQ(obs::PrometheusText(rebuilt), obs::PrometheusText(original));
  // A second encode of the rebuilt registry must be byte-identical too —
  // the codec is canonical, not merely value-preserving.
  EXPECT_EQ(obs::SerializeRegistry(rebuilt), jsonl);
}

TEST(RegistryCodec, UnsetGaugeSurvivesRoundTripAsUnset) {
  obs::MetricsRegistry original;
  original.GetGauge("unset");
  obs::MetricsRegistry rebuilt;
  std::string error;
  ASSERT_TRUE(obs::MergeSerializedRegistry(obs::SerializeRegistry(original),
                                           &rebuilt, &error))
      << error;
  const auto rows = rebuilt.Snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].gauge_set);
  // Merging a negative maximum into the round-tripped gauge must adopt it —
  // a codec that decoded "unset" as 0.0 would swallow it here.
  rebuilt.GetGauge("unset").Max(-7.0);
  EXPECT_EQ(rebuilt.Snapshot()[0].gauge_value, -7.0);
}

TEST(RegistryCodec, SerializedMergeIsAssociativeAndCommutative) {
  obs::MetricsRegistry a, b, c;
  FillRegistry(&a);
  b.GetCounter("frames_total", {{"ac", "VI"}}).Add(1);
  b.GetHistogram("delay_ms", {}, {0.0, 100.0, 64}).Observe(55.5);
  c.GetGauge("queue_depth_max").Max(-1.25);
  c.GetCounter("only_in_c").Add(3);

  const std::string sa = obs::SerializeRegistry(a);
  const std::string sb = obs::SerializeRegistry(b);
  const std::string sc = obs::SerializeRegistry(c);

  std::string first;
  bool first_set = false;
  for (const auto& order :
       std::vector<std::vector<const std::string*>>{{&sa, &sb, &sc},
                                                    {&sc, &sb, &sa},
                                                    {&sb, &sa, &sc}}) {
    obs::MetricsRegistry merged;
    std::string error;
    for (const std::string* part : order) {
      ASSERT_TRUE(obs::MergeSerializedRegistry(*part, &merged, &error))
          << error;
    }
    const std::string text = obs::PrometheusText(merged);
    if (!first_set) {
      first = text;
      first_set = true;
    } else {
      EXPECT_EQ(text, first);
    }
  }
}

TEST(RegistryCodec, MalformedLineFailsWithoutMutatingTarget) {
  obs::MetricsRegistry into;
  into.GetCounter("existing").Add(1);
  std::string error;
  EXPECT_FALSE(
      obs::MergeSerializedRegistryLine("{\"kind\":\"bogus\"}", &into, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(into.size(), 1u);
}

TEST(RegistryCodec, RejectsHostileHistogramLines) {
  obs::MetricsRegistry into;
  FillRegistry(&into);  // delay_ms: lo 0, hi 100, 64 bins, count 3.
  const std::string before = obs::SerializeRegistry(into);
  const std::string existing =
      R"({"kind":"histogram","name":"delay_ms","labels":{},"lo":0,"hi":100,)";
  const std::string fresh =
      R"({"kind":"histogram","name":"fresh","labels":{},"lo":0,"hi":100,)";
  const std::string kMax = "9223372036854775807";
  const struct {
    const char* what;
    std::string line;
  } kRows[] = {
      {"bins far above any binning",
       fresh + R"("bins":1999999996,"count":1,"min":1,"max":1,)"
               R"("counts":[[0,1]]})"},
      {"duplicate bin index",
       fresh + R"("bins":64,"count":8,"min":1,"max":1,)"
               R"("counts":[[0,4],[0,4]]})"},
      {"descending bin indices",
       fresh + R"("bins":64,"count":2,"min":1,"max":1,)"
               R"("counts":[[5,1],[2,1]]})"},
      {"zero bin count",
       fresh + R"("bins":64,"count":0,"min":1,"max":1,"counts":[[3,0]]})"},
      {"bins past the uint64 range",
       fresh + R"("bins":18446744073709551680,"count":1,"min":1,"max":1,)"
               R"("counts":[[0,1]]})"},
      {"count below the int64 range",
       fresh + R"("bins":64,"count":-9223372036854775808,"min":1,"max":1,)"
               R"("counts":[]})"},
      {"bin sum overflows",
       fresh + R"("bins":64,"count":1,"min":1,"max":1,"counts":[[0,)" + kMax +
           "],[1," + kMax + "]]}"},
      {"binning differs from the existing series",
       existing + R"("bins":32,"count":1,"min":1,"max":1,"counts":[[0,1]]})"},
      {"merged count overflows",
       existing + R"("bins":64,"count":)" + kMax +
           R"(,"min":1,"max":1,"counts":[[0,)" + kMax + "]]}"},
  };
  for (const auto& row : kRows) {
    std::string error;
    EXPECT_FALSE(obs::MergeSerializedRegistryLine(row.line, &into, &error))
        << row.what;
    EXPECT_FALSE(error.empty()) << row.what;
    EXPECT_EQ(obs::SerializeRegistry(into), before) << row.what;
  }
}

// ------------------------------------------------- wild-call codec -------

scenario::WildCallResult SampleResult() {
  scenario::WildCallResult result;
  result.p95_tq_ms = 98.625;
  result.p95_ta_ms = 1.0 / 3.0;  // needs all 17 significant digits.
  result.p95_tc_ms = 0.1;
  result.probe_samples = 57;
  result.baseline_rate_kbps = 1536.0;
  result.kwikr_rate_kbps = 2048.5;
  result.baseline_loss_pct = 0.0;
  result.kwikr_loss_pct = 12.5;
  result.baseline_rtt_p50_ms = 41.0;
  result.kwikr_rtt_p50_ms = 39.75;
  result.wmm_enabled = true;
  result.cross_stations = 4;
  result.events_executed = 1234567;
  return result;
}

TEST(WildCallCodec, EncodeDecodeEncodeIsByteIdentical) {
  const scenario::WildCallResult original = SampleResult();
  const std::string line = scenario::EncodeWildCallLine(77, original);
  std::uint64_t index = 0;
  scenario::WildCallResult decoded;
  ASSERT_TRUE(scenario::DecodeWildCallLine(line, &index, &decoded));
  EXPECT_EQ(index, 77u);
  EXPECT_EQ(scenario::EncodeWildCallLine(index, decoded), line);
}

TEST(WildCallCodec, RejectsMalformedLines) {
  const std::string line = scenario::EncodeWildCallLine(3, SampleResult());
  std::uint64_t index = 0;
  scenario::WildCallResult decoded;
  // Truncation, trailing garbage, and field tampering must all fail —
  // merge treats a decode failure as spill corruption.
  EXPECT_FALSE(scenario::DecodeWildCallLine(
      line.substr(0, line.size() / 2), &index, &decoded));
  EXPECT_FALSE(scenario::DecodeWildCallLine(line + "x", &index, &decoded));
  std::string tampered = line;
  const auto at = tampered.find("\"wmm\":1");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 7, "\"wmm\":9");
  EXPECT_FALSE(scenario::DecodeWildCallLine(tampered, &index, &decoded));
  EXPECT_FALSE(scenario::DecodeWildCallLine("", &index, &decoded));
}

TEST(WildCallCodec, RejectsNonCanonicalNumbers) {
  const std::string line = scenario::EncodeWildCallLine(3, SampleResult());
  // Each row rewrites one field of a canonical line into a spelling that
  // parses to some value but is not what the encoder writes.
  const struct {
    const char* field;  ///< canonical `"key":value` as encoded.
    const char* spelled;
  } kRows[] = {
      {"\"call\":3", "\"call\":18446744073709551619"},  // u64 wraps to 3
      {"\"call\":3", "\"call\":03"},
      {"\"p95_tq_ms\":98.625", "\"p95_tq_ms\":0x1.8a8p+6"},  // hex float
      {"\"p95_tc_ms\":0.10000000000000001",
       "\"p95_tc_ms\": 0.10000000000000001"},
      {"\"kwikr_rate_kbps\":2048.5", "\"kwikr_rate_kbps\":2048.50"},
      {"\"probe_samples\":57", "\"probe_samples\":4294967353"},  // int wrap
      {"\"events\":1234567", "\"events\":18446744073710786183"},  // wraps
  };
  for (const auto& row : kRows) {
    std::string spelled = line;
    const auto at = spelled.find(row.field);
    ASSERT_NE(at, std::string::npos) << row.field;
    spelled.replace(at, std::string(row.field).size(), row.spelled);
    std::uint64_t index = 99;
    scenario::WildCallResult decoded;
    EXPECT_FALSE(scenario::DecodeWildCallLine(spelled, &index, &decoded))
        << spelled;
    EXPECT_EQ(index, 99u) << "outputs must stay untouched on failure";
  }
}

TEST(CheckpointCodec, RejectsNonCanonicalManifests) {
  // Each row respells one field of a canonical manifest into something that
  // parses to the same value but is not what the encoder writes.
  const struct {
    std::uint64_t completed;
    const char* field;  ///< canonical `"key":value` as encoded.
    const char* spelled;
  } kRows[] = {
      {10, "\"completed\":10", "\"completed\":18446744073709551626"},  // wraps
      {10, "\"shard_count\":1", "\"shard_count\":4294967297"},  // narrows
      {8, "\"completed\":8", "\"completed\":008"},
      // A manifest from before the one-process-per-shard format.
      {8, "{\"version\":2,", "{\"version\":1,"},
  };
  for (const auto& row : kRows) {
    fleet::CheckpointManifest manifest;
    manifest.fingerprint = "seed=1010 calls=24";
    manifest.range_end = 24;
    manifest.completed = row.completed;
    std::string spelled = fleet::EncodeCheckpointManifest(manifest);
    const auto at = spelled.find(row.field);
    ASSERT_NE(at, std::string::npos) << row.field;
    spelled.replace(at, std::string(row.field).size(), row.spelled);
    fleet::CheckpointManifest decoded;
    decoded.completed = 99;
    EXPECT_FALSE(fleet::DecodeCheckpointManifest(spelled, &decoded))
        << spelled;
    EXPECT_EQ(decoded.completed, 99u) << "outputs must stay untouched";
  }
}

TEST(CheckpointCodec, RoundTripsControlCharactersInFingerprint) {
  fleet::CheckpointManifest manifest;
  // Every escape JsonEscape writes: the named ones and \u00XX.
  manifest.fingerprint = "cr\r bs\b ff\f nl\n tab\t quote\" slash\\ soh\x01.";
  manifest.range_end = 24;
  manifest.completed = 8;
  const std::string text = fleet::EncodeCheckpointManifest(manifest);
  for (const std::string& form : {text, text.substr(0, text.size() - 1)}) {
    fleet::CheckpointManifest decoded;
    ASSERT_TRUE(fleet::DecodeCheckpointManifest(form, &decoded)) << form;
    EXPECT_EQ(decoded.fingerprint, manifest.fingerprint);
    EXPECT_EQ(fleet::EncodeCheckpointManifest(decoded), text);
  }
}

// --------------------------------------------- chunk loop + resume ------

TEST(ShardRunner, InlineWorkerSpillsAndMergesInGlobalOrder) {
  const std::string dir = TestDir("inline");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner runner(config, SyntheticChunk);
  const fleet::ShardRunStatus status = runner.Run();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.items_done, 10u);
  EXPECT_EQ(status.items_resumed, 0u);

  const fleet::SpillPaths paths =
      fleet::ShardSpillPaths(dir, config.shard);
  bool parse_failed = false;
  std::string error;
  const auto manifest =
      fleet::LoadCheckpointManifest(paths.manifest, &parse_failed, &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  EXPECT_TRUE(manifest->done());
  EXPECT_EQ(manifest->results_bytes, ReadFile(paths.results).size());
  EXPECT_EQ(manifest->fingerprint, config.fingerprint);

  const MergedArtifacts merged = MergeAll(config);
  ASSERT_TRUE(merged.status.ok) << merged.status.error;
  EXPECT_TRUE(merged.status.complete);
  EXPECT_EQ(merged.status.items, 10u);
  // The merged payloads equal a direct single-chunk run of [0, 10).
  const fleet::ChunkOutput direct = SyntheticChunk(0, 10);
  EXPECT_EQ(merged.results, direct.results_jsonl);
  EXPECT_EQ(merged.timeline, direct.timeline_jsonl);
  obs::MetricsRegistry direct_registry;
  ASSERT_TRUE(obs::MergeSerializedRegistry(direct.metrics_jsonl,
                                           &direct_registry, &error))
      << error;
  EXPECT_EQ(merged.prometheus, obs::PrometheusText(direct_registry));
}

// Reference spill bytes for SyntheticConfig(total=10) run uninterrupted.
struct ReferenceSpill {
  std::string results, metrics, timeline;
};

ReferenceSpill UninterruptedReference() {
  static const ReferenceSpill reference = [] {
    const std::string dir = TestDir("reference");
    const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
    fleet::ShardRunner runner(config, SyntheticChunk);
    EXPECT_TRUE(runner.Run().ok);
    const fleet::SpillPaths paths =
        fleet::ShardSpillPaths(dir, config.shard);
    return ReferenceSpill{ReadFile(paths.results), ReadFile(paths.metrics),
                          ReadFile(paths.timeline)};
  }();
  return reference;
}

TEST(ShardRunner, ResumeAfterStopIsByteIdenticalAtEveryCutPoint) {
  const ReferenceSpill reference = UninterruptedReference();
  // total=10 with checkpoint_every=3 gives chunks [0,3)[3,6)[6,9)[9,10) —
  // cut after every prefix, plus randomized cut points from a fixed seed
  // (cheap insurance against off-by-ones at chunk-count boundaries).
  std::vector<std::uint64_t> cuts = {0, 1, 2, 3};
  sim::Rng rng(20260809);
  for (int i = 0; i < 4; ++i) {
    cuts.push_back(static_cast<std::uint64_t>(rng.UniformInt(0, 3)));
  }
  int variant = 0;
  for (const std::uint64_t cut : cuts) {
    const std::string dir =
        TestDir("resume_cut" + std::to_string(cut) + "_" +
                std::to_string(variant++));
    fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
    fleet::ShardRunner partial(config, SyntheticChunk);
    const fleet::ShardRunStatus first = partial.Run(cut);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.items_done, std::min<std::uint64_t>(cut * 3, 10));

    config.resume = true;
    fleet::ShardRunner resumed(config, SyntheticChunk);
    const fleet::ShardRunStatus second = resumed.Run();
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.items_done, 10u);
    EXPECT_EQ(second.items_resumed, std::min<std::uint64_t>(cut * 3, 10));

    const fleet::SpillPaths paths =
        fleet::ShardSpillPaths(dir, config.shard);
    EXPECT_EQ(ReadFile(paths.results), reference.results) << "cut " << cut;
    EXPECT_EQ(ReadFile(paths.metrics), reference.metrics) << "cut " << cut;
    EXPECT_EQ(ReadFile(paths.timeline), reference.timeline) << "cut " << cut;
  }
}

TEST(ShardRunner, TornTrailingBytesAreDroppedAndRerun) {
  const ReferenceSpill reference = UninterruptedReference();
  const std::string dir = TestDir("torn_tail");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.Run(2).ok);

  // Simulate a kill mid-append: bytes past the manifest offset with no
  // trailing newline. Resume must truncate them away and re-run the chunk.
  const fleet::SpillPaths paths =
      fleet::ShardSpillPaths(dir, config.shard);
  AppendFile(paths.results, "{\"call\":6,\"v\":9");
  AppendFile(paths.timeline, "{\"call\":6,");

  config.resume = true;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus status = resumed.Run();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(ReadFile(paths.results), reference.results);
  EXPECT_EQ(ReadFile(paths.timeline), reference.timeline);
}

TEST(ShardRunner, SpillShorterThanManifestRefusesToResume) {
  const std::string dir = TestDir("too_short");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.Run(2).ok);

  const fleet::SpillPaths paths =
      fleet::ShardSpillPaths(dir, config.shard);
  const std::string bytes = ReadFile(paths.results);
  std::ofstream(paths.results, std::ios::binary)
      << bytes.substr(0, bytes.size() - 2);

  config.resume = true;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus status = resumed.Run();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("shorter"), std::string::npos) << status.error;
}

TEST(ShardRunner, FingerprintMismatchRefusesToResume) {
  const std::string dir = TestDir("fingerprint");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.Run(2).ok);

  config.resume = true;
  config.fingerprint = "synthetic;total=10;seed=changed";
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus status = resumed.Run();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("fingerprint"), std::string::npos)
      << status.error;
}

TEST(ShardRunner, ResumeTopologyMismatchFails) {
  const std::string dir = TestDir("topology");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.Run(2).ok);

  // Same fingerprint, different population: the shard's checkpointed
  // range_end no longer matches, and silently re-partitioning checkpointed
  // spills would interleave ranges. The runner must refuse.
  config.resume = true;
  config.total_items = 12;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus status = resumed.Run();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("topology"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("--shard"), std::string::npos) << status.error;
}

TEST(ShardRunner, ThrowingChunkFailsWithItsCallRangeAndResumes) {
  const ReferenceSpill reference = UninterruptedReference();
  const std::string dir = TestDir("throwing_chunk");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  // Chunks are [0,3)[3,6)[6,9)[9,10); the third one throws.
  const fleet::ChunkFn failing = [](std::uint64_t begin, std::uint64_t end) {
    if (begin >= 6) throw std::runtime_error("env exploded");
    return SyntheticChunk(begin, end);
  };
  fleet::ShardRunner runner(config, failing);
  const fleet::ShardRunStatus status = runner.Run();
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("[6, 9)"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("env exploded"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("--resume"), std::string::npos) << status.error;

  // The checkpoints before the failing chunk are intact: resuming with a
  // healthy chunk function completes the sweep, byte for byte.
  config.resume = true;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus second = resumed.Run();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.items_done, 10u);
  EXPECT_EQ(second.items_resumed, 6u);
  const fleet::SpillPaths paths =
      fleet::ShardSpillPaths(dir, config.shard);
  EXPECT_EQ(ReadFile(paths.results), reference.results);
  EXPECT_EQ(ReadFile(paths.metrics), reference.metrics);
  EXPECT_EQ(ReadFile(paths.timeline), reference.timeline);

  const MergedArtifacts merged = MergeAll(config);
  ASSERT_TRUE(merged.status.complete) << merged.status.error;
  const MergedArtifacts uninterrupted =
      MergeAll(SyntheticConfig(TestDir("reference"), 10));
  ASSERT_TRUE(uninterrupted.status.complete) << uninterrupted.status.error;
  EXPECT_EQ(merged.results, uninterrupted.results);
  EXPECT_EQ(merged.timeline, uninterrupted.timeline);
  EXPECT_EQ(merged.prometheus, uninterrupted.prometheus);
}

#if defined(__unix__) || defined(__APPLE__)

TEST(ShardRunner, SecondRunnerOnALockedShardFailsFast) {
  const std::string dir = TestDir("locked");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  const std::string lock_path =
      fleet::ShardSpillPaths(dir, config.shard).manifest + ".lock";
  // Runner A starts runner B on the same shard from inside its own first
  // chunk, i.e. while A holds the shard's lock.
  std::optional<fleet::ShardRunStatus> second;
  const fleet::ChunkFn chunk = [&](std::uint64_t begin, std::uint64_t end) {
    if (!second.has_value()) {
      fleet::ShardRunner intruder(config, SyntheticChunk);
      second = intruder.Run();
    }
    return SyntheticChunk(begin, end);
  };
  fleet::ShardRunner runner(config, chunk);
  const fleet::ShardRunStatus first = runner.Run();

  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->ok);
  EXPECT_NE(second->error.find(lock_path), std::string::npos)
      << second->error;
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.items_done, 10u);
  const MergedArtifacts merged = MergeAll(config);
  EXPECT_TRUE(merged.status.complete) << merged.status.error;
  EXPECT_EQ(merged.results, SyntheticChunk(0, 10).results_jsonl);
}

#endif  // __unix__ || __APPLE__

// ----------------------------------------------------------- merge -------

TEST(MergeShardSpills, IncompleteShardReportsPendingNotFailure) {
  const std::string dir = TestDir("pending");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.Run(2).ok);

  const MergedArtifacts merged = MergeAll(config);
  EXPECT_TRUE(merged.status.ok) << merged.status.error;
  EXPECT_FALSE(merged.status.complete);
  EXPECT_FALSE(merged.status.error.empty());
}

TEST(ShardRunner, PreVersion2SpillLayoutIsRefusedNotIgnored) {
  // A spill dir written before manifest version 2 holds per-worker files.
  // Resuming next to them used to rerun the whole shard, and merging
  // reported "pending" with success.
  const std::string dir = TestDir("old_layout");
  const std::string old_manifest = dir + "/shard0of1_worker0.manifest.json";
  std::ofstream(old_manifest) << "{\"version\":1}\n";
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  config.resume = true;
  const fleet::ShardRunStatus run =
      fleet::ShardRunner(config, SyntheticChunk).Run();
  const MergedArtifacts merged = MergeAll(config);
  for (const std::string& error : {run.error, merged.status.error}) {
    EXPECT_NE(error.find(old_manifest), std::string::npos) << error;
    EXPECT_NE(error.find("predates manifest version 2"), std::string::npos)
        << error;
  }
  EXPECT_FALSE(run.ok);
  EXPECT_FALSE(merged.status.ok);
}

TEST(MergeShardSpills, TornCompletedSpillIsCorruptionNotPending) {
  const std::string dir = TestDir("merge_torn");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner runner(config, SyntheticChunk);
  ASSERT_TRUE(runner.Run().ok);

  const fleet::SpillPaths paths =
      fleet::ShardSpillPaths(dir, config.shard);
  const std::string bytes = ReadFile(paths.results);
  std::ofstream(paths.results, std::ios::binary)
      << bytes.substr(0, bytes.size() - 2);

  const MergedArtifacts merged = MergeAll(config);
  EXPECT_FALSE(merged.status.ok);
  EXPECT_FALSE(merged.status.complete);
}

// ------------------------------------------------- shard splits --------

TEST(ShardRunner, ShardSplitsMergeByteIdentically) {
  const std::uint64_t total = 25;  // uneven across every split below.

  // 1 shard: the reference.
  const std::string dir_a = TestDir("split_1");
  const fleet::ShardRunnerConfig config_a = SyntheticConfig(dir_a, total);
  fleet::ShardRunner runner_a(config_a, SyntheticChunk);
  ASSERT_TRUE(runner_a.Run().ok);
  const MergedArtifacts merged_a = MergeAll(config_a);
  ASSERT_TRUE(merged_a.status.complete) << merged_a.status.error;
  EXPECT_EQ(merged_a.results, SyntheticChunk(0, total).results_jsonl);

  // 2 and 3 shards, each run as one invocation per shard against one spill
  // dir — exactly the cluster topology (`--shard 0/2` on one box, `1/2` on
  // another, shared artifact store). Every merge before the last shard
  // finishes reports pending.
  for (const int shards : {2, 3}) {
    const std::string dir = TestDir("split_" + std::to_string(shards));
    fleet::ShardRunnerConfig config = SyntheticConfig(dir, total);
    config.shard.count = shards;
    for (int shard = 0; shard < shards; ++shard) {
      const MergedArtifacts before = MergeAll(config);
      EXPECT_TRUE(before.status.ok) << before.status.error;
      EXPECT_FALSE(before.status.complete) << shards << " shards";
      config.shard.index = shard;
      fleet::ShardRunner runner(config, SyntheticChunk);
      const fleet::ShardRunStatus status = runner.Run();
      ASSERT_TRUE(status.ok) << status.error;
      EXPECT_EQ(status.items_done,
                fleet::PartitionItems(total, shards, shard).size());
    }
    const MergedArtifacts merged = MergeAll(config);
    ASSERT_TRUE(merged.status.complete) << merged.status.error;
    EXPECT_EQ(merged.status.items, total);
    EXPECT_EQ(merged.results, merged_a.results) << shards << " shards";
    EXPECT_EQ(merged.timeline, merged_a.timeline) << shards << " shards";
    EXPECT_EQ(merged.prometheus, merged_a.prometheus) << shards << " shards";
  }
}

// ------------------------------------------ wild-population contract -----

TEST(WildRange, MatchesRunWildPopulationBitForBit) {
  scenario::WildConfig config;
  config.calls = 3;
  config.base_seed = 1010;
  config.call_duration = sim::Seconds(1);
  const scenario::WildResults population = scenario::RunWildPopulation(config);
  ASSERT_EQ(population.calls.size(), 3u);

  // Run the same population as two ranges, as the shard runner would.
  std::map<std::uint64_t, std::string> lines;
  const auto sink = [&](std::uint64_t index,
                        scenario::WildCallResult&& result) {
    lines[index] = scenario::EncodeWildCallLine(index, result);
  };
  scenario::RunWildRange(config, 0, 2, sink);
  scenario::RunWildRange(config, 2, 3, sink);

  ASSERT_EQ(lines.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[i],
              scenario::EncodeWildCallLine(i, population.calls[i]))
        << "call " << i;
  }
}

}  // namespace
}  // namespace kwikr
