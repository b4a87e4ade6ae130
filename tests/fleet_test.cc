#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_spec.h"
#include "fleet/fleet_runner.h"
#include "obs/metrics.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"
#include "stats/histogram.h"
#include "stats/percentile.h"

namespace kwikr::fleet {
namespace {

// ------------------------------------------------------------- RunFleet ----

TEST(RunFleet, ResultsAreOrderedByTaskIndex) {
  const auto results =
      RunFleet(64, 8, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) * 3);
  }
}

TEST(RunFleet, SerialAndParallelProduceIdenticalResults) {
  auto task = [](std::size_t i) {
    sim::Rng rng = sim::Rng(7).Fork(i);
    return rng.UniformDouble() + rng.Exponential(2.0);
  };
  const auto serial = RunFleet(40, 1, task);
  const auto parallel = RunFleet(40, 8, task);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
  }
}

TEST(RunFleet, RethrowsLowestIndexFailureForAnyWorkerCount) {
  for (const int jobs : {1, 4, 8}) {
    std::atomic<int> ran{0};
    try {
      RunFleet(20, jobs, [&ran](std::size_t i) -> int {
        ran.fetch_add(1);
        if (i % 3 == 2) {
          throw std::runtime_error("env " + std::to_string(i) + " exploded");
        }
        return 1;
      });
      ADD_FAILURE() << "jobs=" << jobs << ": RunFleet returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "env 2 exploded") << "jobs=" << jobs;
    }
    // The failure is reported only after every task ran.
    EXPECT_EQ(ran.load(), 20) << "jobs=" << jobs;
  }
}

TEST(RunFleet, ZeroJobsMeansHardwareConcurrency) {
  EXPECT_GE(ResolveJobs(0), 1);
  const auto results =
      RunFleet(8, 0, [](std::size_t i) { return static_cast<int>(i); });
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(results.back(), 7);
}

// ------------------------------------------------------------ Histogram ----

TEST(Histogram, MergedShardsEqualSingleHistogram) {
  sim::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.Normal(50.0, 15.0));

  stats::Histogram whole({0.0, 100.0, 200});
  stats::Histogram merged({0.0, 100.0, 200});
  for (int shard = 0; shard < 4; ++shard) {
    stats::Histogram part({0.0, 100.0, 200});
    for (int i = shard; i < 4000; i += 4) part.Add(samples[i]);
    merged.Merge(part);
  }
  for (const double s : samples) whole.Add(s);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.counts(), whole.counts());
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  for (const double p : {5.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), whole.Percentile(p));
  }
}

TEST(Histogram, PercentileTracksExactWithinBinWidth) {
  sim::Rng rng(9);
  std::vector<double> samples;
  stats::Histogram histogram({0.0, 200.0, 400});  // bin width 0.5.
  for (int i = 0; i < 5000; ++i) {
    samples.push_back(rng.Uniform(0.0, 200.0));
    histogram.Add(samples.back());
  }
  for (const double p : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0}) {
    EXPECT_NEAR(histogram.Percentile(p), stats::Percentile(samples, p), 0.5)
        << "p=" << p;
  }
}

// ----------------------------------------------- population determinism ----

TEST(FleetDeterminism, WildPopulationIsIdenticalAcrossWorkerCounts) {
  scenario::WildConfig config;
  config.calls = 8;
  config.base_seed = 321;
  config.call_duration = sim::Seconds(15);

  config.jobs = 1;
  const scenario::WildResults serial = scenario::RunWildPopulation(config);
  config.jobs = 8;
  const scenario::WildResults parallel = scenario::RunWildPopulation(config);

  ASSERT_EQ(serial.calls.size(), 8u);
  ASSERT_EQ(parallel.calls.size(), 8u);
  for (std::size_t i = 0; i < serial.calls.size(); ++i) {
    const auto& a = serial.calls[i];
    const auto& b = parallel.calls[i];
    EXPECT_DOUBLE_EQ(a.p95_tq_ms, b.p95_tq_ms);
    EXPECT_DOUBLE_EQ(a.p95_ta_ms, b.p95_ta_ms);
    EXPECT_DOUBLE_EQ(a.p95_tc_ms, b.p95_tc_ms);
    EXPECT_EQ(a.probe_samples, b.probe_samples);
    EXPECT_DOUBLE_EQ(a.baseline_rate_kbps, b.baseline_rate_kbps);
    EXPECT_DOUBLE_EQ(a.kwikr_rate_kbps, b.kwikr_rate_kbps);
    EXPECT_DOUBLE_EQ(a.baseline_loss_pct, b.baseline_loss_pct);
    EXPECT_DOUBLE_EQ(a.kwikr_loss_pct, b.kwikr_loss_pct);
    EXPECT_DOUBLE_EQ(a.baseline_rtt_p50_ms, b.baseline_rtt_p50_ms);
    EXPECT_DOUBLE_EQ(a.kwikr_rtt_p50_ms, b.kwikr_rtt_p50_ms);
    EXPECT_EQ(a.wmm_enabled, b.wmm_enabled);
    EXPECT_EQ(a.cross_stations, b.cross_stations);
  }
}

TEST(WildPopulation, ThrowingEnvironmentFailsTheRun) {
  // Calls 1 and 3 draw a fault row whose Gilbert-Elliott chain refuses a
  // zero mean dwell time. The run must fail on the lowest such call for any
  // worker count — not hand back zero-filled results for calls 1 and 3 —
  // and must merge no metrics.
  faults::FaultSpec broken;
  broken.ge.enable = true;
  broken.ge.mean_good_ms = 0.0;
  for (const int jobs : {1, 4}) {
    scenario::WildConfig config;
    config.calls = 4;
    config.base_seed = 321;
    config.call_duration = sim::Seconds(2);
    config.jobs = jobs;
    config.fault_matrix = {faults::FaultSpec{}, broken};
    obs::MetricsRegistry registry;
    config.metrics = &registry;
    try {
      scenario::RunWildPopulation(config);
      ADD_FAILURE() << "jobs=" << jobs << ": the population returned normally";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("wild call 1: ", 0), 0u) << what;
      EXPECT_NE(what.find("GilbertElliott"), std::string::npos) << what;
    }
    EXPECT_EQ(registry.size(), 0u) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace kwikr::fleet
