#include "self_test.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_math.h"
#include "record.h"
#include "spec.h"
#include "workloads.h"

namespace kwikr::benchmark {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAIL: %s\n", what.c_str());
  }
}

void CheckNear(double got, double want, const std::string& what) {
  Check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
        what + ": got " + std::to_string(got) + ", want " +
            std::to_string(want));
}

void TestPercentiles() {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  CheckNear(Percentile(ten, 50), 5.5, "p50 of 1..10");
  CheckNear(Percentile(ten, 90), 9.1, "p90 of 1..10");
  CheckNear(Percentile(ten, 0), 1, "p0 of 1..10");
  CheckNear(Percentile({4.0}, 90), 4, "p90 of one sample");
  CheckNear(Median({3, 1, 2}), 2, "median of 3 samples");
  // Reference values from Python's statistics.quantiles(values, n=4).
  const Quartiles q10 = ComputeQuartiles(ten);
  CheckNear(q10.q1, 2.75, "q1 of 1..10");
  CheckNear(q10.q3, 8.25, "q3 of 1..10");
  const Quartiles q5 = ComputeQuartiles({5, 4, 3, 2, 1});
  CheckNear(q5.q1, 1.5, "q1 of 1..5");
  CheckNear(q5.q3, 4.5, "q3 of 1..5");
  const Quartiles q2 = ComputeQuartiles({5, 1});
  CheckNear(q2.q1, 0.0, "q1 of {1,5} (extrapolated, as Python does)");
  CheckNear(q2.q3, 6.0, "q3 of {1,5}");
  const Quartiles qm =
      ComputeQuartiles({10, 12, 11, 13, 9, 14, 10.5, 11.5, 12.5, 9.5});
  CheckNear(qm.q1, 9.875, "q1 of mixed");
  CheckNear(qm.median, 11.25, "median of mixed");
  CheckNear(qm.q3, 12.625, "q3 of mixed");
}

void TestFastestPass() {
  // Fastest times per environment: {9, 15, 30} ms, 54 ms in all.
  const PassSummary s =
      SummarizePasses({{10, 20, 30}, {12, 15, 40}, {9, 25, 35}}, 5.4);
  CheckNear(s.sim_speed, 100.0, "sim_speed over the fastest env times");
  CheckNear(s.env_ms_p50, 15.0, "p50 of the fastest env times");
  CheckNear(s.env_ms_p90, 27.0, "p90 of the fastest env times");
  CheckNear(SummarizePasses({{10, 20, 30}}, 6.0).sim_speed, 100.0,
            "one pass is its own fastest");
}

void TestDigest() {
  Check(Fnv1a("") == kFnvOffset, "FNV-1a of empty input is the offset basis");
  Check(Fnv1a("a") == 0xaf63dc4c8601ec8cull, "FNV-1a of 'a'");
  Check(Fnv1a("b", Fnv1a("a")) == Fnv1a("ab"), "FNV-1a continues a hash");
  Check(HexDigest(0xabcull) == "0000000000000abc", "hex digest is 16 digits");

  const std::string pretty =
      "{\n  \"channel_busy_pct\": 34.444,\n  \"events_executed\": 58557,\n"
      "  \"wmm\": null\n}\n";
  Check(StripEventCounts(pretty) ==
            "{\n  \"channel_busy_pct\": 34.444,\n  \"wmm\": null\n}\n",
        "strip events_executed from canonical scenario JSON");
  const std::string line =
      "{\"call\":3,\"wmm\":1,\"cross_stations\":2,\"events\":123456}\n";
  Check(StripEventCounts(line) == "{\"call\":3,\"wmm\":1,\"cross_stations\":2}\n",
        "strip events from a spill line");
  const std::string first = "{\"events\":7,\"call\":3}";
  Check(StripEventCounts(first) == "{\"call\":3}", "strip a leading key");
  Check(StripEventCounts("{\"call\":3}") == "{\"call\":3}",
        "text without the key is unchanged");
  // Two runs that differ only in their event counts share one digest.
  Check(Fnv1a(StripEventCounts("{\"a\":1,\"events\":5}")) ==
            Fnv1a(StripEventCounts("{\"a\":1,\"events\":6}")),
        "digest ignores event counts");
}

void TestAbVerdicts() {
  const std::vector<double> parent = {100, 101, 99, 100.5, 99.5,
                                      100, 101, 99, 100.5, 99.5};
  // A/A: the same distribution, order permuted.
  const std::vector<double> same = {99.5, 100.5, 100, 101, 99,
                                    101, 99, 99.5, 100, 100.5};
  const AbResult aa = CompareAb(parent, same, true, 0.10);
  Check(aa.verdict == Verdict::kNoRegression, "A/A is no regression");

  std::vector<double> faster;
  for (double v : parent) faster.push_back(v * 1.2);
  const AbResult gain = CompareAb(parent, faster, true, 0.10);
  Check(gain.verdict == Verdict::kGain && gain.wins == 10, "clear gain");
  // The same numbers read as a regression when lower is better.
  Check(CompareAb(parent, faster, false, 0.10).verdict == Verdict::kRegression,
        "20% worse with a 10% bound is a regression");
  // 5% worse stays inside a 10% bound.
  std::vector<double> slower;
  for (double v : parent) slower.push_back(v * 0.95);
  Check(CompareAb(parent, slower, true, 0.10).verdict ==
            Verdict::kNoRegression,
        "5% worse with a 10% bound is no regression");
  // Nine pairs cannot claim a gain, however clear.
  Check(CompareAb(std::vector<double>(parent.begin(), parent.begin() + 9),
                  std::vector<double>(faster.begin(), faster.begin() + 9),
                  true, 0.10)
                .verdict != Verdict::kGain,
        "fewer than ten pairs never claim a gain");
  // A parent spread wider than the bound leaves a small shift unresolved.
  const std::vector<double> wide = {60, 140, 80, 120, 100,
                                    70, 130, 90, 110, 100};
  std::vector<double> wide_slower;
  for (double v : wide) wide_slower.push_back(v * 0.97);
  Check(CompareAb(wide, wide_slower, true, 0.10).verdict ==
            Verdict::kUnresolved,
        "spread wider than the bound is unresolved");
}

void TestRecord() {
  Record r;
  r.Set("kind", std::string("pass")).Set("wall_s", 0.1).Set("n", 3.0);
  const auto back = Record::Parse(r.ToLine());
  Check(back.has_value(), "record line parses");
  if (back) {
    Check(back->Str("kind") == "pass", "record string field");
    Check(back->Num("wall_s") == 0.1, "record number is bit-exact");
    Check(back->Num("missing", -1) == -1, "absent field falls back");
  }
  Check(!Record::Parse("{\"a\":{\"b\":1}}"), "nested objects are rejected");
  Check(!Record::Parse("not json"), "garbage is rejected");
}

/// BENCHMARK.json must declare exactly the workloads and metrics this program
/// prints, with the same units, directions and bounds.
void TestBenchmarkJson(const std::string& path) {
  std::ifstream in(path);
  Check(static_cast<bool>(in), "cannot read " + path);
  if (!in) return;
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text;
  for (const char c : buffer.str()) {
    if (c != ' ' && c != '\n' && c != '\t' && c != '\r') text.push_back(c);
  }
  const auto object_of = [&text](std::string_view name) {
    const std::string key = "\"name\":\"" + std::string(name) + "\"";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return std::string();
    const std::size_t open = text.rfind('{', at);
    const std::size_t close = text.find('}', at);
    return text.substr(open, close - open + 1);
  };
  for (const std::string_view w : kWorkloadNames) {
    Check(!object_of(w).empty(), "workload missing: " + std::string(w));
  }
  const auto check_metric = [&](const MetricSpec& spec, bool end_to_end) {
    const std::string object = object_of(spec.name);
    const std::string name(spec.name);
    if (object.empty()) {
      Check(false, "metric missing: " + name);
      return;
    }
    Check(object.find("\"unit\":\"" + std::string(spec.unit) + "\"") !=
              std::string::npos,
          "unit of " + name);
    Check(object.find(spec.higher_is_better ? "\"better\":\"higher\""
                                            : "\"better\":\"lower\"") !=
              std::string::npos,
          "direction of " + name);
    const std::size_t bound = object.find("\"bound\":");
    if (end_to_end) {
      Check(bound != std::string::npos &&
                std::strtod(object.c_str() + bound + 8, nullptr) == spec.bound,
            "bound of " + name);
    } else {
      Check(bound == std::string::npos, "per-layer metric has no bound: " + name);
    }
  };
  for (const MetricSpec& spec : kEndToEnd) check_metric(spec, true);
  for (const MetricSpec& spec : kPerLayer) check_metric(spec, false);
  std::size_t names = 0;
  for (std::size_t at = text.find("\"name\":"); at != std::string::npos;
       at = text.find("\"name\":", at + 1)) {
    ++names;
  }
  Check(names == std::size(kWorkloadNames) + std::size(kEndToEnd) +
                     std::size(kPerLayer),
        "BENCHMARK.json names nothing this program does not print");
}

}  // namespace

int RunSelfTest(const std::string& benchmark_json) {
  TestPercentiles();
  TestFastestPass();
  TestDigest();
  TestAbVerdicts();
  TestRecord();
  if (!benchmark_json.empty()) TestBenchmarkJson(benchmark_json);
  if (g_failures == 0) std::fprintf(stderr, "self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace kwikr::benchmark
