// Golden-scenario corpus runner.
//
// Scans the committed corpus (tests/golden/*.scenario), runs every scenario
// through scenario::RunFaultScenario on the fleet runner, and byte-compares
// the canonical JSON summary against the committed expectation
// (<name>.expected.json). Any drift — behavioural change, determinism
// regression, toolchain-dependent arithmetic — fails the run and leaves the
// produced summaries in an artifact directory for diffing in CI.
//
//   golden_runner --check [--jobs N] [--artifacts DIR]   (the CTest mode)
//   golden_runner --regen-golden [--jobs N]              (refresh corpus)
//
// Optional exports (the golden byte-compare is unaffected by either):
//
//   --metrics-out FILE   merged Prometheus text of every scenario's
//                        registry (jobs-invariant: registry merges are
//                        associative/commutative and the exposition is
//                        deterministically ordered)
//   --timeline-out DIR   per-scenario <name>.timeline.jsonl for scenarios
//                        with timeline=1 (plus <name>.postmortem.jsonl
//                        when an anomaly trigger fired)
//
// Running with different --jobs values must produce identical bytes; the
// CTest registration exercises --jobs 1 and --jobs 8 for exactly that
// reason.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "fleet/fleet_runner.h"
#include "obs/exporters.h"
#include "obs/metrics.h"
#include "scenario/fault_scenario.h"

namespace fs = std::filesystem;

namespace {

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool WriteFile(const fs::path& path, const std::string& content) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

/// First differing line of two texts, for a readable failure message.
std::string FirstDiff(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  int line = 0;
  while (true) {
    ++line;
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return "(no difference found?)";
    if (la != lb || ha != hb) {
      return "line " + std::to_string(line) + ":\n  expected: " +
             (ha ? la : "<eof>") + "\n  got:      " + (hb ? lb : "<eof>");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool regen = false;
  int jobs = 1;
  fs::path golden_dir = KWIKR_GOLDEN_DIR;
  fs::path artifacts = "golden-diff";
  std::string metrics_out;
  fs::path timeline_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      regen = false;
    } else if (arg == "--regen-golden") {
      regen = true;
    } else if (arg == "--jobs" && i + 1 < argc) {
      // The whole value, >= 0 (0 = one worker per hardware thread), read as
      // bench::ParseIntFlag reads it: "banana" is no worker count.
      const char* text = argv[++i];
      const char* end = text + std::strlen(text);
      const auto [last, error] = std::from_chars(text, end, jobs);
      if (error != std::errc() || last != end || jobs < 0) {
        std::fprintf(stderr, "--jobs wants an integer >= 0, got '%s'\n",
                     text);
        return 2;
      }
    } else if (arg == "--artifacts" && i + 1 < argc) {
      artifacts = argv[++i];
    } else if (arg == "--golden-dir" && i + 1 < argc) {
      golden_dir = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (arg == "--timeline-out" && i + 1 < argc) {
      timeline_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: golden_runner [--check|--regen-golden] [--jobs N] "
                   "[--artifacts DIR] [--golden-dir DIR] "
                   "[--metrics-out FILE] [--timeline-out DIR]\n");
      return 2;
    }
  }

  std::vector<fs::path> scenarios;
  if (!fs::is_directory(golden_dir)) {
    std::fprintf(stderr, "golden_runner: no such directory: %s\n",
                 golden_dir.string().c_str());
    return 2;
  }
  for (const auto& entry : fs::directory_iterator(golden_dir)) {
    if (entry.path().extension() == ".scenario") {
      scenarios.push_back(entry.path());
    }
  }
  std::sort(scenarios.begin(), scenarios.end());
  if (scenarios.empty()) {
    std::fprintf(stderr, "golden_runner: empty corpus in %s\n",
                 golden_dir.string().c_str());
    return 2;
  }
  std::printf("golden corpus: %zu scenarios, jobs=%d (%s)\n",
              scenarios.size(), jobs, regen ? "regen" : "check");

  // Parse everything up front so a corpus syntax error fails fast.
  std::vector<kwikr::scenario::FaultScenario> parsed(scenarios.size());
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto text = ReadFile(scenarios[i]);
    if (!text) {
      std::fprintf(stderr, "golden_runner: cannot read %s\n",
                   scenarios[i].string().c_str());
      return 2;
    }
    std::string error;
    if (!kwikr::scenario::ParseFaultScenario(*text, &parsed[i], &error)) {
      std::fprintf(stderr, "golden_runner: %s: %s\n",
                   scenarios[i].string().c_str(), error.c_str());
      return 2;
    }
  }

  // One fleet task per scenario; results are ordered by index regardless of
  // worker interleaving, so the output bytes cannot depend on --jobs. Each
  // scenario's registry merges into a shared stage registry; the merge
  // order varies with worker interleaving but the merged contents (and the
  // --metrics-out exposition) do not. A task catches its own scenario's
  // exception, so every failing scenario is listed, not only the first.
  struct ScenarioRun {
    std::string summary;
    std::string timeline;
    std::string postmortem;
    std::string postmortem_reason;
    std::string error;
  };
  const bool want_metrics = !metrics_out.empty();
  kwikr::obs::MetricsRegistry stage;
  const auto runs = kwikr::fleet::RunFleet(
      scenarios.size(), jobs, [&](std::size_t i) {
        ScenarioRun run;
        try {
          kwikr::scenario::FaultScenarioArtifacts a;
          run.summary = ToCanonicalJson(
              kwikr::scenario::RunFaultScenario(parsed[i], &a));
          run.timeline = std::move(a.timeline_jsonl);
          run.postmortem = std::move(a.postmortem);
          run.postmortem_reason = std::move(a.postmortem_reason);
          if (want_metrics) stage.Merge(a.registry);
        } catch (const std::exception& e) {
          run.error = e.what();
        }
        return run;
      });
  bool threw = false;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].error.empty()) continue;
    std::fprintf(stderr, "golden_runner: scenario %zu threw: %s\n", i,
                 runs[i].error.c_str());
    threw = true;
  }
  if (threw) return 1;

  if (want_metrics && !kwikr::obs::WritePrometheus(stage, metrics_out)) {
    return 2;
  }
  if (!timeline_out.empty()) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      const ScenarioRun& run = runs[i];
      const std::string stem = scenarios[i].stem().string();
      if (!run.timeline.empty() &&
          !WriteFile(timeline_out / (stem + ".timeline.jsonl"),
                     run.timeline)) {
        std::fprintf(stderr, "golden_runner: cannot write timeline for %s\n",
                     stem.c_str());
        return 2;
      }
      if (!run.postmortem.empty()) {
        std::printf("  postmortem %s: %s\n", stem.c_str(),
                    run.postmortem_reason.c_str());
        if (!WriteFile(timeline_out / (stem + ".postmortem.jsonl"),
                       run.postmortem)) {
          std::fprintf(stderr,
                       "golden_runner: cannot write postmortem for %s\n",
                       stem.c_str());
          return 2;
        }
      }
    }
  }

  int failures = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const std::string& got = runs[i].summary;
    fs::path expected_path = scenarios[i];
    expected_path.replace_extension(".expected.json");

    if (regen) {
      if (!WriteFile(expected_path, got)) {
        std::fprintf(stderr, "golden_runner: cannot write %s\n",
                     expected_path.string().c_str());
        return 2;
      }
      std::printf("  regen %s\n", expected_path.filename().string().c_str());
      continue;
    }

    const auto want = ReadFile(expected_path);
    if (!want) {
      std::fprintf(stderr,
                   "  FAIL %s: missing %s (run golden_runner "
                   "--regen-golden)\n",
                   scenarios[i].filename().string().c_str(),
                   expected_path.filename().string().c_str());
      ++failures;
      continue;
    }
    if (*want == got) {
      std::printf("  ok   %s\n", scenarios[i].filename().string().c_str());
      continue;
    }
    ++failures;
    fs::path got_path =
        artifacts / scenarios[i].filename().replace_extension(".got.json");
    WriteFile(got_path, got);
    std::fprintf(stderr,
                 "  FAIL %s: summary drifted from %s\n    %s\n    full "
                 "output: %s\n",
                 scenarios[i].filename().string().c_str(),
                 expected_path.filename().string().c_str(),
                 FirstDiff(*want, got).c_str(), got_path.string().c_str());
  }
  if (failures > 0) {
    std::fprintf(stderr,
                 "golden_runner: %d scenario(s) drifted. If the change is "
                 "intentional, refresh with:\n  golden_runner "
                 "--regen-golden\nand commit the updated expectations.\n",
                 failures);
    return 1;
  }
  std::printf("golden corpus clean.\n");
  return 0;
}
