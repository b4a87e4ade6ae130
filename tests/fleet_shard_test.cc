// Tests for the multi-process shard runner (src/fleet): spill/checkpoint
// durability, resume byte-identity at randomized cut points, corrupt-spill
// detection, the lossless registry codec and its merge associativity, and
// worker x shard split invariance of the hierarchical merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
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
#include <csignal>
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
  EXPECT_EQ(obs::MetricsJsonl(rebuilt), obs::MetricsJsonl(original));
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

// ------------------------------------------- inline worker + resume ------

TEST(ShardRunner, InlineWorkerSpillsAndMergesInGlobalOrder) {
  const std::string dir = TestDir("inline");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner runner(config, SyntheticChunk);
  const fleet::ShardRunStatus status = runner.Run();
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(status.items_done, 10u);
  EXPECT_EQ(status.items_resumed, 0u);

  const fleet::SpillPaths paths =
      fleet::WorkerSpillPaths(dir, config.shard, 0);
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
        fleet::WorkerSpillPaths(dir, config.shard, 0);
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
    const fleet::ShardRunStatus first = partial.RunWorkerInline(0, cut);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.items_done, std::min<std::uint64_t>(cut * 3, 10));

    config.resume = true;
    fleet::ShardRunner resumed(config, SyntheticChunk);
    const fleet::ShardRunStatus second = resumed.Run();
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.items_done, 10u);
    EXPECT_EQ(second.items_resumed, std::min<std::uint64_t>(cut * 3, 10));

    const fleet::SpillPaths paths =
        fleet::WorkerSpillPaths(dir, config.shard, 0);
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
  ASSERT_TRUE(partial.RunWorkerInline(0, 2).ok);

  // Simulate a kill mid-append: bytes past the manifest offset with no
  // trailing newline. Resume must truncate them away and re-run the chunk.
  const fleet::SpillPaths paths =
      fleet::WorkerSpillPaths(dir, config.shard, 0);
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
  ASSERT_TRUE(partial.RunWorkerInline(0, 2).ok);

  const fleet::SpillPaths paths =
      fleet::WorkerSpillPaths(dir, config.shard, 0);
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
  ASSERT_TRUE(partial.RunWorkerInline(0, 2).ok);

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
  ASSERT_TRUE(partial.RunWorkerInline(0, 2).ok);

  // Same fingerprint, different worker split: worker 0's checkpointed range
  // no longer matches, and silently re-partitioning checkpointed spills
  // would interleave ranges. The worker itself must refuse.
  config.resume = true;
  config.processes = 2;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus status = resumed.RunWorkerInline(0);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("--processes"), std::string::npos)
      << status.error;
}

// ----------------------------------------------------------- merge -------

TEST(MergeShardSpills, IncompleteShardReportsPendingNotFailure) {
  const std::string dir = TestDir("pending");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner partial(config, SyntheticChunk);
  ASSERT_TRUE(partial.RunWorkerInline(0, 2).ok);

  const MergedArtifacts merged = MergeAll(config);
  EXPECT_TRUE(merged.status.ok) << merged.status.error;
  EXPECT_FALSE(merged.status.complete);
  EXPECT_FALSE(merged.status.error.empty());
}

TEST(MergeShardSpills, TornCompletedSpillIsCorruptionNotPending) {
  const std::string dir = TestDir("merge_torn");
  const fleet::ShardRunnerConfig config = SyntheticConfig(dir, 10);
  fleet::ShardRunner runner(config, SyntheticChunk);
  ASSERT_TRUE(runner.Run().ok);

  const fleet::SpillPaths paths =
      fleet::WorkerSpillPaths(dir, config.shard, 0);
  const std::string bytes = ReadFile(paths.results);
  std::ofstream(paths.results, std::ios::binary)
      << bytes.substr(0, bytes.size() - 2);

  const MergedArtifacts merged = MergeAll(config);
  EXPECT_FALSE(merged.status.ok);
  EXPECT_FALSE(merged.status.complete);
}

#if defined(__unix__) || defined(__APPLE__)

// --------------------------------------------- forked multi-process ------

TEST(ShardRunner, WorkerAndShardSplitsMergeByteIdentically) {
  const std::uint64_t total = 25;  // uneven across every split below.

  // 1 process x 1 shard: the reference.
  const std::string dir_a = TestDir("split_a");
  fleet::ShardRunnerConfig config_a = SyntheticConfig(dir_a, total);
  fleet::ShardRunner runner_a(config_a, SyntheticChunk);
  ASSERT_TRUE(runner_a.Run().ok);
  const MergedArtifacts merged_a = MergeAll(config_a);
  ASSERT_TRUE(merged_a.status.complete) << merged_a.status.error;

  // 3 forked processes, 1 shard.
  const std::string dir_b = TestDir("split_b");
  fleet::ShardRunnerConfig config_b = SyntheticConfig(dir_b, total);
  config_b.processes = 3;
  fleet::ShardRunner runner_b(config_b, SyntheticChunk);
  const fleet::ShardRunStatus status_b = runner_b.Run();
  ASSERT_TRUE(status_b.ok) << status_b.error;
  EXPECT_EQ(status_b.items_done, total);
  const MergedArtifacts merged_b = MergeAll(config_b);
  ASSERT_TRUE(merged_b.status.complete) << merged_b.status.error;

  // 2 shards x 2 processes, run as two invocations against one spill dir —
  // exactly the cluster topology (`--shard 0/2` on one box, `1/2` on
  // another, shared artifact store).
  const std::string dir_c = TestDir("split_c");
  fleet::ShardRunnerConfig config_c = SyntheticConfig(dir_c, total);
  config_c.processes = 2;
  config_c.shard.count = 2;
  for (int shard = 0; shard < 2; ++shard) {
    config_c.shard.index = shard;
    fleet::ShardRunner runner(config_c, SyntheticChunk);
    const fleet::ShardRunStatus status = runner.Run();
    ASSERT_TRUE(status.ok) << status.error;
  }
  const MergedArtifacts merged_c = MergeAll(config_c);
  ASSERT_TRUE(merged_c.status.complete) << merged_c.status.error;

  EXPECT_EQ(merged_b.results, merged_a.results);
  EXPECT_EQ(merged_b.timeline, merged_a.timeline);
  EXPECT_EQ(merged_b.prometheus, merged_a.prometheus);
  EXPECT_EQ(merged_c.results, merged_a.results);
  EXPECT_EQ(merged_c.timeline, merged_a.timeline);
  EXPECT_EQ(merged_c.prometheus, merged_a.prometheus);
}

TEST(ShardRunner, DeadWorkerIsReportedWithItsCallRange) {
  const std::string dir = TestDir("dead_worker");
  fleet::ShardRunnerConfig config = SyntheticConfig(dir, 8);
  config.processes = 2;
  config.checkpoint_every = 2;
  // Worker 1 owns [4, 8); its first chunk dies the way a real OOM kill
  // does. The chunk function only runs inside the forked children, so the
  // raise never touches the test process.
  const fleet::ChunkFn lethal = [](std::uint64_t begin, std::uint64_t end) {
    if (begin >= 6) {
      ::raise(SIGKILL);
    }
    return SyntheticChunk(begin, end);
  };
  fleet::ShardRunner runner(config, lethal);
  const fleet::ShardRunStatus status = runner.Run();
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("worker 1"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("[4, 8)"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("signal 9"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("--resume"), std::string::npos) << status.error;

  // The survivor's checkpoints are intact: resuming with a healthy chunk
  // function completes the sweep and merges cleanly.
  config.resume = true;
  fleet::ShardRunner resumed(config, SyntheticChunk);
  const fleet::ShardRunStatus second = resumed.Run();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.items_done, 8u);
  EXPECT_GE(second.items_resumed, 4u);  // worker 0's full range, at least.
  const MergedArtifacts merged = MergeAll(config);
  EXPECT_TRUE(merged.status.complete) << merged.status.error;
}

#endif  // __unix__ || __APPLE__

// ------------------------------------------ wild-population contract -----

TEST(WildRange, MatchesRunWildPopulationBitForBit) {
  scenario::WildConfig config;
  config.calls = 3;
  config.base_seed = 1010;
  config.call_duration = sim::Seconds(1);
  const scenario::WildResults population = scenario::RunWildPopulation(config);
  ASSERT_EQ(population.calls.size(), 3u);
  ASSERT_TRUE(population.failures.empty());

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
