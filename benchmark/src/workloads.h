#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/time.h"

namespace kwikr::benchmark {

/// The benchmark's workloads, in their default order (README "Workloads"
/// says why each exists).
inline constexpr std::string_view kWorkloadNames[] = {
    "wild_fig10", "scenario_grid", "fleet_1s"};

/// What one environment produced.
struct EnvResult {
  /// Canonical per-environment text: EncodeWildCallLine for the population
  /// workloads, ToCanonicalJson for the scenario-DSL ones.
  std::string canonical;
  /// Events both arms dispatched (population workloads only; 0 otherwise).
  std::uint64_t events = 0;
  /// Serialized timeline bytes (scenario-DSL workloads with timeline=1).
  std::uint64_t timeline_bytes = 0;
};

/// One workload's full input set, generated from the seed alone: the
/// simulator only ever receives these inputs. Environments are independent
/// and run one at a time on the calling thread (a closed loop: the next
/// starts when the previous returns).
class Workload {
 public:
  /// Throws std::invalid_argument for an unknown name, or when the
  /// scenario parser rejects a generated input. `quick` makes the input set
  /// about ten times smaller.
  Workload(std::string_view name, std::uint64_t seed, bool quick);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const;
  /// Simulated call-seconds of one pass over every environment, every arm
  /// of a paired environment counted.
  [[nodiscard]] double sim_seconds() const;

  /// Runs environment `env`. With `registry`, deterministic series (and,
  /// for the scenario-DSL workloads, per-event-type dispatch counts) land
  /// there. `duration` overrides the simulated call length (set-up and
  /// warm-up runs). Throws whatever the simulator throws.
  EnvResult Run(std::size_t env, obs::MetricsRegistry* registry = nullptr,
                std::optional<sim::Duration> duration = std::nullopt) const;

 private:
  std::string name_;
  scenario::WildConfig wild_;
  /// Population indices run through RunWildRange (population workloads).
  std::vector<std::uint64_t> population_;
  /// Parsed inputs (scenario-DSL workloads).
  std::vector<scenario::FaultScenario> scenarios_;
};

}  // namespace kwikr::benchmark
