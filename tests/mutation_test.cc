// Seeded mutation test for every text input: the scenario DSL, FaultSpec,
// the wild-call spill line, checkpoint manifests and the registry codec.
// A fixed seed and budget, no fuzzing library. Each mutant must be rejected
// or accepted without a throw, an abort or (in the ASan and UBSan builds) a
// sanitizer report, and the registry must keep every histogram's count equal
// to its bin sum. The codecs also round-trip: an accepted spill line or
// manifest re-encodes to itself, and a serialized registry survives one more
// merge-and-serialize unchanged.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_spec.h"
#include "fleet/checkpoint.h"
#include "obs/metrics.h"
#include "obs/registry_io.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"

namespace kwikr {
namespace {

/// Feeds `trials` mutants of `seeds` (round-robin) to `check`, stopping at
/// the first failure. Each mutant gets one to three random edits: byte
/// flip, byte delete, byte insert, truncation, or an inserted run of digits
/// (the edit that turns a small number into a huge one).
void Fuzz(const std::vector<std::string>& seeds, int trials,
          const std::function<void(const std::string&)>& check) {
  ASSERT_FALSE(seeds.empty());
  sim::Rng rng(0x5EEDF00D);
  for (int i = 0; i < trials && !::testing::Test::HasFailure(); ++i) {
    std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
    for (auto edits = rng.UniformInt(1, 3); edits > 0; --edits) {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(text.size())));
      const auto kind = rng.UniformInt(0, 4);
      if (kind == 0 && at < text.size()) {
        text[at] ^= static_cast<char>(1 << rng.UniformInt(0, 7));
      } else if (kind == 1 && at < text.size()) {
        text.erase(at, 1);
      } else if (kind == 2) {
        text.insert(at, 1, static_cast<char>(rng.UniformInt(0, 255)));
      } else if (kind == 3) {
        text.resize(at);
      } else if (kind == 4) {
        for (auto n = rng.UniformInt(1, 19); n > 0; --n) {
          text.insert(at, 1, static_cast<char>('0' + rng.UniformInt(0, 9)));
        }
      }
    }
    check(text);
  }
}

/// True when `encoded` (which ends in '\n') is `text`, with or without that
/// newline: the decoders accept both forms.
bool IsEncodingOf(const std::string& text, const std::string& encoded) {
  return text == encoded || text + "\n" == encoded;
}

/// The golden corpus, in name order.
std::vector<std::string> GoldenScenarios() {
  std::set<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(KWIKR_GOLDEN_DIR)) {
    if (entry.path().extension() == ".scenario") paths.insert(entry.path());
  }
  std::vector<std::string> texts;
  for (const auto& path : paths) {
    std::ostringstream text;
    text << std::ifstream(path).rdbuf();
    texts.push_back(text.str());
  }
  return texts;
}

TEST(SeededMutation, ScenarioAndFaultSpecParsersNeverCrash) {
  const std::vector<std::string> scenarios = GoldenScenarios();
  ASSERT_EQ(scenarios.size(), 20u);
  // FaultSpec seeds: each scenario's fault.* lines without the prefix.
  std::vector<std::string> specs;
  for (const std::string& scenario : scenarios) {
    std::istringstream lines(scenario);
    std::string spec;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("fault.", 0) == 0) spec += line.substr(6) + "\n";
    }
    if (!spec.empty()) specs.push_back(spec);
  }
  std::string error;
  Fuzz(scenarios, 20'000, [&](const std::string& text) {
    scenario::FaultScenario parsed;
    scenario::ParseFaultScenario(text, &parsed, &error);
  });
  Fuzz(specs, 20'000, [&](const std::string& text) {
    faults::FaultSpec parsed;
    faults::ParseFaultSpec(text, &parsed, &error);
  });
}

TEST(SeededMutation, SpillAndManifestCodecsNeverCrash) {
  scenario::WildCallResult call;
  call.p95_ta_ms = 1.0 / 3.0;
  call.probe_samples = 57;
  call.wmm_enabled = true;
  Fuzz({scenario::EncodeWildCallLine(77, call),
        scenario::EncodeWildCallLine(0, scenario::WildCallResult{})},
       20'000, [](const std::string& text) {
         std::uint64_t index = 0;
         scenario::WildCallResult decoded;
         if (scenario::DecodeWildCallLine(text, &index, &decoded)) {
           EXPECT_TRUE(IsEncodingOf(
               text, scenario::EncodeWildCallLine(index, decoded)))
               << text;
         }
       });

  // The second shard of a two-shard sweep, part way through its range.
  fleet::CheckpointManifest manifest;
  manifest.fingerprint = "seed=1010 calls=\"24\"\tshards=2";
  manifest.shard = 1;
  manifest.shard_count = 2;
  manifest.range_begin = 12;
  manifest.range_end = 24;
  manifest.completed = 20;
  Fuzz({fleet::EncodeCheckpointManifest(manifest)}, 20'000,
       [](const std::string& text) {
         fleet::CheckpointManifest decoded;
         if (fleet::DecodeCheckpointManifest(text, &decoded)) {
           EXPECT_TRUE(
               IsEncodingOf(text, fleet::EncodeCheckpointManifest(decoded)))
               << text;
         }
       });
}

TEST(SeededMutation, RegistryCodecKeepsHistogramsConsistent) {
  obs::MetricsRegistry source;
  source.GetCounter("frames_total", {{"ac", "VI"}}).Add(41);
  source.GetGauge("queue_depth_max").Max(-3.5);
  source.GetGauge("never_written");
  auto& delay = source.GetHistogram("delay_ms", {}, {0.0, 100.0, 64});
  auto& rate = source.GetHistogram("rate", {{"arm", "kwikr"}}, {0, 4e3, 300});
  for (int i = 0; i < 40; ++i) {
    delay.Observe(i * 2.5);
    rate.Observe(i * 97.0);
  }
  const std::string seed = obs::SerializeRegistry(source);
  std::string error;
  Fuzz({seed}, 20'000, [&](const std::string& text) {
    // Merge on top of the seed, so a mutated binning meets an existing
    // series of the same name.
    obs::MetricsRegistry into;
    ASSERT_TRUE(obs::MergeSerializedRegistry(seed, &into, &error)) << error;
    obs::MergeSerializedRegistry(text, &into, &error);
    for (const auto& row : into.Snapshot()) {
      if (row.kind != obs::MetricsRegistry::Row::Kind::kHistogram) continue;
      const auto& counts = row.histogram.counts();
      ASSERT_EQ(row.histogram.count(),
                std::accumulate(counts.begin(), counts.end(), std::int64_t{0}))
          << text;
    }
    const std::string serialized = obs::SerializeRegistry(into);
    obs::MetricsRegistry again;
    ASSERT_TRUE(obs::MergeSerializedRegistry(serialized, &again, &error))
        << error << "\n" << serialized;
    ASSERT_EQ(obs::SerializeRegistry(again), serialized) << text;
  });
}

}  // namespace
}  // namespace kwikr
