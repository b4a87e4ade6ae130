#include "workloads.h"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace kwikr::benchmark {
namespace {

/// SplitMix64 over (seed, stream): a decorrelated per-environment seed. The
/// scenario DSL takes a non-negative int64, hence the final shift.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) >> 2;
}

/// One CC x qdisc grid cell: 2 stations x 10 flows of `cc` through the AP's
/// `qdisc`, congested over 10-90% of a 20 s call.
std::string CcAqmCell(std::string_view cc, std::string_view qdisc, int rep,
                      std::uint64_t seed) {
  std::string text;
  text.append("name=").append(cc).append("_").append(qdisc).append("_");
  text.append(std::to_string(rep)).append("\nseed=");
  text.append(std::to_string(seed)).append("\n");
  text.append(
      "duration_ms=20000\nband=2.4\ncross_stations=2\nflows_per_station=10\n"
      "congestion_start_ms=2000\ncongestion_end_ms=18000\n");
  text.append("cc=").append(cc).append("\nqdisc=").append(qdisc).append("\n");
  return text;
}

/// The impairment families of `scenario_grid`, each run with the dual
/// ping-pair, the Kwikr arm and 10 ms timeline sampling.
struct Family {
  const char* name;
  const char* keys;
};
constexpr Family kImpairments[] = {
    {"ge_bursts",
     "band=2.4\nfault.ge.enable=1\nfault.ge.mean_good_ms=150\n"
     "fault.ge.mean_bad_ms=60\nfault.ge.loss_bad=0.85\n"},
    {"mangle",
     "band=5\nfault.reorder.prob=0.05\nfault.reorder.delay_ms=4\n"
     "fault.duplicate.prob=0.03\nfault.drop.prob=0.01\n"},
    {"mcs_churn",
     "band=2.4\nclient_rate_bps=52000000\nfault.churn.period_ms=800\n"
     "fault.churn.low_rate_bps=6500000\nfault.churn.low_error_prob=0.05\n"},
    {"wan_skew",
     "band=2.4\nfault.wan.jitter_prob=0.3\nfault.wan.jitter_ms=4\n"
     "fault.skew.ppm=120\nfault.skew.offset_ms=25\n"},
};

std::string ImpairedCell(const Family& family, int rep, std::uint64_t seed) {
  std::string text;
  text.append("name=").append(family.name).append("_");
  text.append(std::to_string(rep)).append("\nseed=");
  text.append(std::to_string(seed)).append("\n");
  text.append(
      "duration_ms=30000\ndual=1\nkwikr=1\ntimeline=1\n"
      "timeline_interval_ms=10\ncross_stations=1\nflows_per_station=6\n"
      "congestion_start_ms=7500\ncongestion_end_ms=22500\n");
  return text.append(family.keys);
}

scenario::FaultScenario Parse(const std::string& text) {
  scenario::FaultScenario parsed;
  std::string error;
  if (!scenario::ParseFaultScenario(text, &parsed, &error)) {
    throw std::invalid_argument("generated scenario rejected: " + error);
  }
  return parsed;
}

/// Population indices [0, n): the environment mix is whatever the seed
/// draws.
std::vector<std::uint64_t> FirstIndices(std::size_t n) {
  std::vector<std::uint64_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  return indices;
}

/// The first population indices that fill fixed shares per cross-station
/// count: 40% clean, 20% each with 1, 2 and 3 stations (the population's
/// expected mix). Clean and loaded environments differ about sixfold in
/// cost, so a mix that varied with the seed would move every timing metric
/// between seeds. The count is read from a duration-0 run, which only
/// echoes the drawn environment.
std::vector<std::uint64_t> StratifiedIndices(scenario::WildConfig config,
                                             std::size_t n) {
  const std::size_t loaded = n / 5;
  std::size_t want[4] = {n - 3 * loaded, loaded, loaded, loaded};
  config.call_duration = 0;
  std::vector<std::uint64_t> indices;
  for (std::uint64_t index = 0; indices.size() < n; ++index) {
    if (index >= 100 * n) {
      throw std::runtime_error("wild population never filled its strata");
    }
    int stations = -1;
    scenario::RunWildRange(
        config, index, index + 1,
        [&stations](std::uint64_t, scenario::WildCallResult&& result) {
          stations = result.cross_stations;
        });
    if (stations >= 0 && stations < 4 && want[stations] > 0) {
      --want[stations];
      indices.push_back(index);
    }
  }
  return indices;
}

}  // namespace

Workload::Workload(std::string_view name, std::uint64_t seed, bool quick)
    : name_(name) {
  wild_.base_seed = seed;
  wild_.jobs = 1;
  if (name == "wild_fig10") {
    wild_.call_duration = sim::Seconds(15);
    population_ = StratifiedIndices(wild_, quick ? 40 : 400);
  } else if (name == "fleet_1s") {
    wild_.call_duration = sim::Seconds(1);
    population_ = FirstIndices(quick ? 300 : 3000);
  } else if (name == "scenario_grid") {
    // The two kinds of cell cost about the same per environment (~24 and
    // ~20 ms), so the median and p90 fall inside one continuous spread of
    // times rather than in a gap between two clusters.
    const int cc_reps = quick ? 1 : 6;
    std::uint64_t stream = 0;
    for (const char* cc : {"reno", "cubic", "westwood", "bbr"}) {
      for (const char* qdisc : {"droptail", "codel", "fq_codel"}) {
        for (int rep = 0; rep < cc_reps; ++rep) {
          scenarios_.push_back(
              Parse(CcAqmCell(cc, qdisc, rep, Mix(seed, stream++))));
        }
      }
    }
    const int impaired_reps = quick ? 2 : 15;
    stream = 1000;
    for (const Family& family : kImpairments) {
      for (int rep = 0; rep < impaired_reps; ++rep) {
        scenarios_.push_back(
            Parse(ImpairedCell(family, rep, Mix(seed, stream++))));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) +
                                "'");
  }
}

std::size_t Workload::size() const {
  return population_.empty() ? scenarios_.size() : population_.size();
}

double Workload::sim_seconds() const {
  if (!population_.empty()) {
    return 2.0 * sim::ToSeconds(wild_.call_duration) *
           static_cast<double>(population_.size());
  }
  double total = 0.0;
  for (const auto& s : scenarios_) {
    total += sim::ToSeconds(s.experiment.duration) *
             static_cast<double>(s.experiment.calls.size());
  }
  return total;
}

EnvResult Workload::Run(std::size_t env, obs::MetricsRegistry* registry,
                        std::optional<sim::Duration> duration) const {
  EnvResult out;
  if (!population_.empty()) {
    scenario::WildConfig config = wild_;
    config.metrics = registry;
    if (duration) config.call_duration = *duration;
    const std::uint64_t index = population_.at(env);
    scenario::RunWildRange(
        config, index, index + 1,
        [&out](std::uint64_t index, scenario::WildCallResult&& result) {
          out.canonical = scenario::EncodeWildCallLine(index, result);
          out.events = result.events_executed;
        });
    return out;
  }
  // The untraced path hands the parsed input over as is; only traced and
  // shortened runs pay for a copy.
  const scenario::FaultScenario* input = &scenarios_.at(env);
  scenario::FaultScenario modified;
  if (registry != nullptr || duration) {
    modified = *input;
    modified.experiment.profile_loop = registry != nullptr;
    if (duration) modified.experiment.duration = *duration;
    input = &modified;
  }
  scenario::FaultScenarioArtifacts artifacts;
  const scenario::FaultScenarioSummary summary =
      scenario::RunFaultScenario(*input, &artifacts);
  out.canonical = scenario::ToCanonicalJson(summary);
  out.timeline_bytes = artifacts.timeline_jsonl.size();
  if (registry != nullptr) registry->Merge(artifacts.registry);
  return out;
}

}  // namespace kwikr::benchmark
