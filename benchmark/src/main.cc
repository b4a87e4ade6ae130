// kwikr_benchmark: the repository benchmark's program. See README.md.
//
//   kwikr_benchmark --workload W [--seed S] [--seconds T | --passes N]
//                   [--trace 0|1] [--quick] [--golden DIR] [--label L]
//       Runs one workload and prints its raw records, then, as the last
//       line, {"correct","attempted","failed","metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//   kwikr_benchmark --golden-check DIR   byte-compare the golden corpus
//   kwikr_benchmark --report FILE        aggregate records of many processes
//   kwikr_benchmark --ab FILE            verdicts of an interleaved A/B
//   kwikr_benchmark --self-test [BENCHMARK.json]
//
// Exit status is 0 only when every correctness check passed.

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_math.h"
#include "layers.h"
#include "record.h"
#include "scenario/fault_scenario.h"
#include "self_test.h"
#include "spec.h"
#include "workloads.h"

extern char** environ;

namespace kwikr::benchmark {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Set-up child processes per run; `setup_s` is their median.
constexpr std::size_t kSetupReps = 11;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// CPU time this process has used, in seconds. Environments are timed with
/// it rather than with the wall clock: it leaves out the time the process
/// waits while something else runs on its CPU, including, on a KVM guest
/// with paravirtual steal-time accounting, the time the hypervisor gives
/// the virtual CPU to another guest.
double CpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("no process CPU clock");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ options ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1010;
  double seconds = 0.0;  ///< time budget of the timed passes (0 = --passes).
  int passes = 0;
  bool trace = false;
  bool quick = false;
  std::string golden;    ///< golden corpus to gate on (empty = skip).
  std::string label;     ///< stamped on every record (A/B side).
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "kwikr_benchmark: %s\n"
               "usage: kwikr_benchmark --workload W [--seed S] "
               "[--seconds T | --passes N] [--trace 0|1] [--quick]\n"
               "                       [--golden DIR] [--label L]\n"
               "       kwikr_benchmark --golden-check DIR | --report FILE | "
               "--ab FILE | --self-test [BENCHMARK.json]\n",
               why);
  std::exit(2);
}

std::uint64_t ParseU64(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

// ----------------------------------------------------- child processes ----

/// Runs this executable again with `args`, waits for it, and returns its
/// exit status (-1 when it could not be started or did not exit normally).
/// `cpu_s`, when given, receives the CPU time the child used (user plus
/// system, from exec to exit).
int RunSelf(const std::vector<std::string>& args, double* cpu_s = nullptr) {
  std::vector<char*> argv;
  std::string exe = "/proc/self/exe";
  argv.push_back(exe.data());
  std::vector<std::string> copies = args;
  for (std::string& a : copies) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                  environ) != 0) {
    return -1;
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return -1;
  }
  if (cpu_s != nullptr) {
    const auto seconds = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    *cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// -------------------------------------------------------- golden gate ----

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Byte-compares every <name>.scenario run against <name>.expected.json.
int GoldenCheck(const std::string& dir) {
  std::vector<fs::path> inputs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scenario") inputs.push_back(entry.path());
  }
  if (ec || inputs.empty()) {
    std::fprintf(stderr, "golden: no scenarios under %s\n", dir.c_str());
    return 1;
  }
  std::sort(inputs.begin(), inputs.end());
  int mismatches = 0;
  for (const fs::path& input : inputs) {
    fs::path expected = input;
    expected.replace_extension(".expected.json");
    const auto text = ReadFile(input);
    const auto want = ReadFile(expected);
    scenario::FaultScenario parsed;
    std::string error;
    std::string got;
    if (text && want && scenario::ParseFaultScenario(*text, &parsed, &error)) {
      got = scenario::ToCanonicalJson(scenario::RunFaultScenario(parsed));
    }
    if (!want || got != *want) {
      ++mismatches;
      std::fprintf(stderr, "golden: MISMATCH %s %s\n",
                   input.filename().c_str(), error.c_str());
    }
  }
  std::fprintf(stderr, "golden: %zu/%zu byte-identical\n",
               inputs.size() - static_cast<std::size_t>(mismatches),
               inputs.size());
  return mismatches == 0 ? 0 : 1;
}

// ------------------------------------------------------------- passes ----

/// A run's untimed warm-up: the first environment built and torn down at
/// duration 0. A simulated warm-up would make set-up time depend on whether
/// the seed's first environment happens to be loaded; lazy costs inside the
/// simulation are already kept out of the timings by taking each
/// environment's fastest pass.
void WarmUp(const Workload& workload) {
  workload.Run(0, nullptr, sim::Duration{0});
}

/// True when any JSON value in `text` is a printf rendering of NaN or an
/// infinity.
bool HasNonFinite(std::string_view text) {
  for (std::size_t at = text.find(':'); at != std::string_view::npos;
       at = text.find(':', at + 1)) {
    std::size_t v = at + 1;
    while (v < text.size() && (text[v] == ' ' || text[v] == '-')) ++v;
    const std::string_view value = text.substr(v, 3);
    if (value == "nan" || value == "inf") return true;
  }
  return false;
}

struct PassOutcome {
  std::vector<double> env_ms;  ///< CPU ms per environment, in order.
  double cpu_s = 0.0;          ///< sum of env_ms, in seconds.
  double wall_s = 0.0;         ///< wall time of the whole pass.
  std::string digest;
  std::uint64_t failed = 0;
  std::uint64_t insane = 0;  ///< results with a non-finite value.
  double result_events = 0.0;
  double timeline_bytes = 0.0;
};

/// One closed-loop pass over every environment. Only the environment calls
/// are timed; the digest is folded in between them.
PassOutcome RunPass(const Workload& workload, obs::MetricsRegistry* registry,
                    SpanLog* spans, int parent, const char* name,
                    std::optional<sim::Duration> duration = std::nullopt) {
  ScopedSpan pass_span(spans, name, parent);
  PassOutcome out;
  out.env_ms.reserve(workload.size());
  std::uint64_t hash = kFnvOffset;
  const auto pass_begin = Clock::now();
  for (std::size_t env = 0; env < workload.size(); ++env) {
    std::optional<EnvResult> result;
    std::string error;
    const double begin = CpuSeconds();
    {
      ScopedSpan env_span(spans, "scenario.env", pass_span.id(),
                          static_cast<double>(env));
      try {
        result = workload.Run(env, registry, duration);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    const double ms = (CpuSeconds() - begin) * 1e3;
    out.cpu_s += ms / 1e3;
    out.env_ms.push_back(ms);
    if (!result) {
      ++out.failed;
      hash = Fnv1a("failed\n", hash);
      std::fprintf(stderr, "%s env %zu failed: %s\n", workload.name().c_str(),
                   env, error.c_str());
      continue;
    }
    const std::string canonical = StripEventCounts(result->canonical);
    if (canonical.empty() || HasNonFinite(canonical)) ++out.insane;
    hash = Fnv1a(canonical, hash);
    out.result_events += static_cast<double>(result->events);
    out.timeline_bytes += static_cast<double>(result->timeline_bytes);
  }
  out.wall_s = SecondsSince(pass_begin);
  out.digest = HexDigest(hash);
  return out;
}

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
/// restarts at exec, so the shell that launched this process does not count.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Per-environment times as one record field: "1.2345 0.9876 ...".
std::string JoinMs(const std::vector<double>& ms) {
  std::string out;
  char buffer[32];
  for (const double v : ms) {
    std::snprintf(buffer, sizeof(buffer), out.empty() ? "%.4f" : " %.4f", v);
    out += buffer;
  }
  return out;
}

std::vector<double> SplitMs(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  char* end = nullptr;
  for (double v = std::strtod(p, &end); end != p; v = std::strtod(p, &end)) {
    out.push_back(v);
    p = end;
  }
  return out;
}

Record Tagged(const Options& o, const char* kind) {
  Record r;
  r.Set("kind", std::string(kind));
  if (!o.label.empty()) r.Set("label", o.label);
  r.Set("workload", o.workload).Set("seed", std::to_string(o.seed));
  return r;
}

void PrintRecord(const Record& r) { std::printf("%s\n", r.ToLine().c_str()); }

/// The declared metric named `name`, end-to-end or per-layer.
const MetricSpec* FindSpec(std::string_view name) {
  for (const MetricSpec& s : kEndToEnd) {
    if (s.name == name) return &s;
  }
  for (const MetricSpec& s : kPerLayer) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

/// The last line of a workload run: the BENCHMARK.json result object.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::pair<std::string_view, double>>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    line += std::string(first ? "" : ", ") + "\"" + std::string(name) +
            "\": {\"value\": " + buffer + ", \"unit\": \"" +
            std::string(FindSpec(name)->unit) + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
}

int RunWorkload(const Options& o) {
  bool correct = true;
  const auto fail = [&correct](const std::string& why) {
    correct = false;
    std::fprintf(stderr, "%s\n", why.c_str());
  };
  if (!o.golden.empty() && RunSelf({"--golden-check", o.golden}) != 0) {
    fail("correctness: golden corpus mismatch");
  }

  // Set-up time: the CPU time of a child process that runs from exec
  // through input generation, DSL parsing and its warm-up environment, then
  // exits. The children are spread between the timed passes, so one slow
  // moment of the host cannot move their median.
  std::vector<double> setup_s;
  std::vector<std::string> setup_args = {"--setup-only", "--workload",
                                         o.workload, "--seed",
                                         std::to_string(o.seed)};
  if (o.quick) setup_args.push_back("--quick");
  const auto time_setups = [&](std::size_t count) {
    for (std::size_t i = 0; i < count && setup_s.size() < kSetupReps; ++i) {
      double cpu_s = 0.0;
      if (RunSelf(setup_args, &cpu_s) != 0) fail("set-up child failed");
      setup_s.push_back(cpu_s);
    }
  };

  const Workload workload(o.workload, o.seed, o.quick);
  WarmUp(workload);

  std::vector<PassOutcome> passes;
  std::set<std::string> digests;
  const auto record_pass = [&](PassOutcome pass) {
    if (!o.trace) {
      Record r = Tagged(o, "pass");
      r.Set("pass", static_cast<double>(passes.size()))
          .Set("wall_s", pass.wall_s)
          .Set("cpu_s", pass.cpu_s)
          .Set("sim_s", workload.sim_seconds())
          .Set("envs", static_cast<double>(workload.size()))
          .Set("failed", static_cast<double>(pass.failed))
          .Set("digest", pass.digest)
          .Set("env_ms", JoinMs(pass.env_ms));
      PrintRecord(r);
    }
    digests.insert(pass.digest);
    if (pass.insane > 0) fail("correctness: non-finite value in a result");
    passes.push_back(std::move(pass));
  };

  std::optional<SpanLog> spans;
  std::optional<ScopedSpan> root;
  AllocCount pass_allocs;
  if (!o.trace) {
    // Another pass starts only if it should end within the budget.
    const auto start = Clock::now();
    do {
      time_setups(2);
      record_pass(RunPass(workload, nullptr, nullptr, -1, "pass"));
    } while (o.passes > 0 ? static_cast<int>(passes.size()) < o.passes
                          : SecondsSince(start) + passes.back().wall_s <=
                                o.seconds);
    time_setups(kSetupReps);
  } else {
    // Fixed shape, so every count is deterministic: a pass that finishes
    // any lazy set-up, then a pass with the allocation counter on. Neither
    // records per-environment spans.
    spans.emplace(o.workload);
    spans->Reserve(4 * workload.size() + 64);
    root.emplace(&*spans, "benchmark." + o.workload, -1);
    {
      ScopedSpan untraced(&*spans, "pass.untraced", root->id());
      record_pass(RunPass(workload, nullptr, nullptr, -1, "pass"));
    }
    {
      ScopedSpan counted(&*spans, "pass.alloc_counted", root->id());
      const AllocCount before = AllocsCounted();
      SetAllocCounting(true);
      record_pass(RunPass(workload, nullptr, nullptr, -1, "pass"));
      SetAllocCounting(false);
      pass_allocs = {AllocsCounted().count - before.count,
                     AllocsCounted().bytes - before.bytes};
    }
  }
  if (digests.size() > 1) fail("correctness: digest differs between passes");

  std::vector<std::vector<double>> env_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassOutcome& p : passes) {
    env_ms.push_back(p.env_ms);
    attempted += workload.size();
    failed += p.failed;
  }
  const PassSummary summary = SummarizePasses(env_ms, workload.sim_seconds());

  if (!o.trace) {
    const double rss_mb = PeakRssMb();
    const double setup = Median(setup_s);
    PrintRecord(Tagged(o, "process").Set("rss_mb", rss_mb).Set("setup_s", setup));
    const std::vector<std::pair<std::string_view, double>> metrics = {
        {"sim_speed", summary.sim_speed},
        {"env_ms_p50", summary.env_ms_p50},
        {"env_ms_p90", summary.env_ms_p90},
        {"peak_rss_mb", rss_mb},
        {"setup_s", setup},
    };
    Record result = Tagged(o, "result");
    result.Set("digest", *digests.begin())
        .Set("correct", correct ? 1.0 : 0.0)
        .Set("attempted", static_cast<double>(attempted))
        .Set("failed", static_cast<double>(failed));
    for (const auto& [name, value] : metrics) result.Set(std::string(name), value);
    PrintRecord(result);
    std::fprintf(stderr,
                 "%s seed %llu: %zu pass(es) x %zu envs, %.1f call-s/s, "
                 "digest %s\n",
                 o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                 passes.size(), workload.size(), summary.sim_speed,
                 digests.begin()->c_str());
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
  }

  // Traced pass: metrics registry (plus the loop profiler on the DSL
  // workloads) and a span around every environment.
  obs::MetricsRegistry registry;
  const PassOutcome traced =
      RunPass(workload, &registry, &*spans, root->id(), "pass.traced");
  if (traced.digest != *digests.begin()) {
    fail("correctness: traced digest differs from the untraced passes");
  }
  // Set-up cost: the same environments at duration 0.
  const AllocCount setup_before = AllocsCounted();
  SetAllocCounting(true);
  const PassOutcome setup = RunPass(workload, nullptr, &*spans, root->id(),
                                    "pass.setup", sim::Duration{0});
  SetAllocCounting(false);
  const AllocCount setup_after = AllocsCounted();
  const KernelTimes kernels = RunKernels(&*spans, root->id());
  root.reset();

  LayerInputs in;
  in.registry = &registry;
  in.sim_s = workload.sim_seconds();
  in.envs = static_cast<double>(workload.size());
  in.result_events = traced.result_events;
  in.timeline_bytes = traced.timeline_bytes;
  in.traced_cpu_s = traced.cpu_s;
  in.fastest_untraced_cpu_s = in.sim_s / summary.sim_speed;
  in.env_ms_p50 = summary.env_ms_p50;
  in.pass_allocs = pass_allocs;
  in.setup_cpu_s = setup.cpu_s;
  in.setup_allocs = {setup_after.count - setup_before.count,
                     setup_after.bytes - setup_before.bytes};
  in.kernels = kernels;
  const auto metrics = PerLayerMetrics(in);
  attempted += 2 * workload.size();
  failed += traced.failed + setup.failed;

  const fs::path spans_path =
      fs::read_symlink("/proc/self/exe").parent_path() /
      ("spans-" + o.workload + ".json");
  if (!spans->WriteChromeTrace(spans_path.string())) {
    fail("cannot write " + spans_path.string());
  }
  Record r = Tagged(o, "traced");
  r.Set("digest", traced.digest).Set("spans", spans_path.string());
  for (const auto& [name, value] : metrics) r.Set(std::string(name), value);
  PrintRecord(r);
  std::fprintf(stderr, "%s seed %llu: traced, %zu spans in %s\n",
               o.workload.c_str(), static_cast<unsigned long long>(o.seed),
               spans->size(), spans_path.c_str());
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

// ------------------------------------------------------------- report ----

/// Aggregates the records of every process of one `run.sh` invocation with
/// the same rules as a single process: fastest time per environment over
/// all passes, medians of per-process RSS and set-up, failures over
/// attempts. Fails on any digest disagreement.
int Report(const std::string& path) {
  const auto records = ReadRecords(path);
  if (!records) {
    std::fprintf(stderr, "report: cannot read %s\n", path.c_str());
    return 2;
  }
  bool ok = true;
  for (const std::string_view w : kWorkloadNames) {
    std::vector<std::vector<double>> passes;
    std::vector<double> speeds, rss, setup;
    std::set<std::string> digests;
    double envs = 0.0, failed = 0.0, sim_s = 0.0;
    std::string seed;
    const Record* traced = nullptr;
    for (const Record& r : *records) {
      if (r.Str("workload") != w) continue;
      seed = r.Str("seed");
      const std::string kind = r.Str("kind");
      if (kind == "pass") {
        passes.push_back(SplitMs(r.Str("env_ms")));
        sim_s = r.Num("sim_s");
        speeds.push_back(sim_s / r.Num("cpu_s"));
        digests.insert(r.Str("digest"));
        envs += r.Num("envs");
        failed += r.Num("failed");
      } else if (kind == "process") {
        rss.push_back(r.Num("rss_mb"));
        setup.push_back(r.Num("setup_s"));
      } else if (kind == "traced") {
        traced = &r;
        digests.insert(r.Str("digest"));
      }
    }
    if (passes.empty() && traced == nullptr) continue;
    const PassSummary s = SummarizePasses(passes, sim_s);
    std::printf("\n== %s  (seed %s, %zu passes, digest %s)\n",
                std::string(w).c_str(), seed.c_str(), passes.size(),
                digests.size() == 1 ? digests.begin()->c_str() : "MISMATCH");
    if (digests.size() != 1) {
      ok = false;
      for (const std::string& d : digests) std::printf("   digest seen: %s\n", d.c_str());
    }
    if (!passes.empty()) {
      const auto [slow, fast] = std::minmax_element(speeds.begin(), speeds.end());
      const auto row = [](const char* name, double value, const char* note) {
        const MetricSpec* spec = FindSpec(name);
        std::printf("   %-14s %14.4f %-9s %s\n", name, value,
                    spec != nullptr ? std::string(spec->unit).c_str() : "ratio",
                    note);
      };
      char speed_note[96];
      std::snprintf(speed_note, sizeof(speed_note),
                    "fastest env times; whole passes %.1f-%.1f", *slow, *fast);
      row("sim_speed", s.sim_speed, speed_note);
      row("env_ms_p50", s.env_ms_p50, "median of fastest env times");
      row("env_ms_p90", s.env_ms_p90, "p90 of fastest env times");
      row("peak_rss_mb", Median(rss), "median over pass processes");
      row("setup_s", Median(setup), "median over pass processes");
      char failed_note[64];
      std::snprintf(failed_note, sizeof(failed_note), "%.0f of %.0f envs",
                    failed, envs);
      row("failed_frac", envs > 0 ? failed / envs : 0.0, failed_note);
      if (failed > 0) ok = false;
    }
    if (traced != nullptr) {
      std::printf("   -- traced run (spans: %s)\n", traced->Str("spans").c_str());
      for (const MetricSpec& spec : kPerLayer) {
        std::printf("   %-46s %16.6g %s\n", std::string(spec.name).c_str(),
                    traced->Num(spec.name), std::string(spec.unit).c_str());
      }
    }
  }
  return ok ? 0 : 1;
}

// ----------------------------------------------------------------- A/B ----

/// Reads the "result" records of an interleaved A/B (labels "parent" and
/// "change", in pair order) and prints each metric's verdict per workload.
int CompareSides(const std::string& path) {
  const auto records = ReadRecords(path);
  if (!records) {
    std::fprintf(stderr, "ab: cannot read %s\n", path.c_str());
    return 2;
  }
  for (const std::string_view w : kWorkloadNames) {
    std::map<std::string, std::vector<const Record*>> sides;
    for (const Record& r : *records) {
      if (r.Str("kind") == "result" && r.Str("workload") == w) {
        sides[r.Str("label")].push_back(&r);
      }
    }
    const auto& parent = sides["parent"];
    const auto& change = sides["change"];
    if (parent.empty() || change.empty()) continue;
    std::printf("\n== %s  (%zu parent runs, %zu change runs)\n",
                std::string(w).c_str(), parent.size(), change.size());
    std::printf("   %-12s %-34s %-34s %-6s %s\n", "metric",
                "parent median [q1, q3]", "change median [q1, q3]", "wins",
                "verdict");
    for (const MetricSpec& spec : kEndToEnd) {
      std::vector<double> p, c;
      for (const Record* r : parent) p.push_back(r->Num(spec.name));
      for (const Record* r : change) c.push_back(r->Num(spec.name));
      const AbResult ab = CompareAb(p, c, spec.higher_is_better, spec.bound);
      char left[64], right[64];
      std::snprintf(left, sizeof(left), "%.4f [%.4f, %.4f]", ab.parent.median,
                    ab.parent.q1, ab.parent.q3);
      std::snprintf(right, sizeof(right), "%.4f [%.4f, %.4f]", ab.change.median,
                    ab.change.q1, ab.change.q3);
      std::printf("   %-12s %-34s %-34s %2d/%-3zu %s\n",
                  std::string(spec.name).c_str(), left, right, ab.wins,
                  std::min(p.size(), c.size()), Name(ab.verdict));
    }
    std::set<std::string> pd, cd;
    for (const Record* r : parent) pd.insert(r->Str("digest"));
    for (const Record* r : change) cd.insert(r->Str("digest"));
    const auto show = [](const std::set<std::string>& d) {
      return d.size() == 1 ? *d.begin() : std::string("varies");
    };
    std::printf("   digest       parent %s  change %s  %s\n", show(pd).c_str(),
                show(cd).c_str(),
                pd == cd && pd.size() == 1 ? "identical" : "DIFFERENT");
  }
  return 0;
}

}  // namespace
}  // namespace kwikr::benchmark

int main(int argc, char** argv) {
  using namespace kwikr::benchmark;
  if (argc < 2) Usage("no mode given");
  const std::string mode = argv[1];
  try {
    if (mode == "--golden-check" && argc == 3) return GoldenCheck(argv[2]);
    if (mode == "--report" && argc == 3) return Report(argv[2]);
    if (mode == "--ab" && argc == 3) return CompareSides(argv[2]);
    if (mode == "--self-test" && argc <= 3) {
      return RunSelfTest(argc == 3 ? argv[2] : "");
    }

    Options o;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
        return argv[++i];
      };
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = ParseU64(value(), "--seed");
      } else if (arg == "--seconds") {
        o.seconds = static_cast<double>(ParseU64(value(), "--seconds"));
      } else if (arg == "--passes") {
        o.passes = static_cast<int>(ParseU64(value(), "--passes"));
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") Usage("--trace takes 0 or 1");
        o.trace = t == "1";
      } else if (arg == "--quick") {
        o.quick = true;
      } else if (arg == "--golden") {
        o.golden = value();
      } else if (arg == "--label") {
        o.label = value();
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else {
        Usage(("unknown argument " + arg).c_str());
      }
    }
    if (o.workload.empty()) Usage("--workload is required");
    if (setup_only) {
      WarmUp(Workload(o.workload, o.seed, o.quick));
      return 0;
    }
    if (o.seconds <= 0.0 && o.passes <= 0) o.passes = 1;
    return RunWorkload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kwikr_benchmark: %s\n", e.what());
    return 1;
  }
}
