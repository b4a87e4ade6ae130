// Fault-injection subsystem tests: spec parsing, the Gilbert–Elliott chain,
// every injector hook point, the paper-facing behaviours (Section 5.6 dual
// ping-pair discards under retransmission bursts, Section 5.5 WMM verdicts
// on dishonest APs), and the determinism contract the golden corpus and the
// fleet sharding rely on.
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_spec.h"
#include "faults/gilbert_elliott.h"
#include "faults/injector.h"
#include "scenario/fault_scenario.h"
#include "scenario/wild_population.h"
#include "sim/rng.h"

namespace kwikr {
namespace {

// --- FaultSpec parsing -----------------------------------------------------

TEST(FaultSpecTest, DefaultSpecIsInert) {
  faults::FaultSpec spec;
  EXPECT_FALSE(spec.any());
}

TEST(FaultSpecTest, ParsesEveryKey) {
  const char* text = R"(
    # full-coverage spec
    ge.enable=1
    ge.mean_good_ms=300
    ge.mean_bad_ms=25
    ge.loss_good=0.01
    ge.loss_bad=0.8
    reorder.prob=0.02
    reorder.delay_ms=4
    duplicate.prob=0.01
    drop.prob=0.002
    wan.loss_prob=0.001
    wan.jitter_prob=0.2
    wan.jitter_ms=2
    wmm.mode=partial
    wmm.honor_prob=0.4
    churn.period_ms=1500
    churn.low_rate_bps=6500000
    churn.low_error_prob=0.05
    skew.ppm=150
    skew.offset_ms=30
    schedule=10000 ge off
    schedule=20000 ge on
  )";
  faults::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(faults::ParseFaultSpec(text, &spec, &error)) << error;
  EXPECT_TRUE(spec.any());
  EXPECT_TRUE(spec.ge.enable);
  EXPECT_DOUBLE_EQ(spec.ge.mean_good_ms, 300.0);
  EXPECT_DOUBLE_EQ(spec.ge.mean_bad_ms, 25.0);
  EXPECT_DOUBLE_EQ(spec.ge.loss_good, 0.01);
  EXPECT_DOUBLE_EQ(spec.ge.loss_bad, 0.8);
  EXPECT_DOUBLE_EQ(spec.mangle.reorder_prob, 0.02);
  EXPECT_DOUBLE_EQ(spec.mangle.reorder_delay_ms, 4.0);
  EXPECT_DOUBLE_EQ(spec.mangle.duplicate_prob, 0.01);
  EXPECT_DOUBLE_EQ(spec.mangle.drop_prob, 0.002);
  EXPECT_DOUBLE_EQ(spec.wan.loss_prob, 0.001);
  EXPECT_DOUBLE_EQ(spec.wan.jitter_prob, 0.2);
  EXPECT_DOUBLE_EQ(spec.wan.jitter_ms, 2.0);
  EXPECT_EQ(spec.wmm.mode, faults::FaultSpec::WmmMode::kPartial);
  EXPECT_DOUBLE_EQ(spec.wmm.honor_prob, 0.4);
  EXPECT_DOUBLE_EQ(spec.churn.period_ms, 1500.0);
  EXPECT_EQ(spec.churn.low_rate_bps, 6'500'000);
  EXPECT_DOUBLE_EQ(spec.churn.low_error_prob, 0.05);
  EXPECT_DOUBLE_EQ(spec.skew.ppm, 150.0);
  EXPECT_DOUBLE_EQ(spec.skew.offset_ms, 30.0);
  ASSERT_EQ(spec.schedule.size(), 2u);
  EXPECT_EQ(spec.schedule[0].at, sim::Millis(10000));
  EXPECT_EQ(spec.schedule[0].kind, faults::FaultKind::kGilbertElliott);
  EXPECT_FALSE(spec.schedule[0].enable);
  EXPECT_TRUE(spec.schedule[1].enable);
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  faults::FaultSpec spec;
  std::string error;
  EXPECT_FALSE(faults::ParseFaultSpec("no_equals_sign", &spec, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(faults::ParseFaultSpec("bogus.key=1", &spec, &error));
  EXPECT_FALSE(faults::ParseFaultSpec("ge.enable=maybe", &spec, &error));
  EXPECT_FALSE(faults::ParseFaultSpec("wmm.mode=sideways", &spec, &error));
  EXPECT_FALSE(
      faults::ParseFaultSpec("schedule=10 nosuchfault on", &spec, &error));
  EXPECT_FALSE(faults::ParseFaultSpec("schedule=10 ge", &spec, &error));
}

TEST(FaultSpecTest, RejectsOutOfRangeNumbers) {
  // Probabilities must be finite and in [0, 1]; millisecond values finite,
  // >= 0 and representable as a sim::Duration; integers in range.
  const char* kRows[] = {
      "reorder.prob=7",
      "drop.prob=nan",
      "duplicate.prob=-0.1",
      "wan.loss_prob=1.5",
      "ge.loss_bad=inf",
      "wmm.honor_prob=0x1p+1",
      "ge.mean_good_ms=-5",
      "ge.mean_good_ms=0",
      "ge.mean_bad_ms=0.5",
      "reorder.delay_ms=1e300",
      "wan.jitter_ms=nan",
      "churn.period_ms=-1",
      "skew.offset_ms=inf",
      "skew.ppm=nan",
      "churn.low_rate_bps=99999999999999999999",
      "churn.low_rate_bps=0",
      "schedule=1e300 ge on",
      "schedule=9300000000000 ge on",
  };
  for (const char* row : kRows) {
    faults::FaultSpec spec;
    std::string error;
    EXPECT_FALSE(faults::ParseFaultSpec(row, &spec, &error)) << row;
  }
}

// --- Gilbert–Elliott chain -------------------------------------------------

TEST(GilbertElliottTest, DeterministicInSeed) {
  faults::GilbertElliott::Config config;
  config.mean_good = sim::Millis(50);
  config.mean_bad = sim::Millis(10);
  config.loss_bad = 0.9;
  faults::GilbertElliott a(config, sim::Rng(7));
  faults::GilbertElliott b(config, sim::Rng(7));
  for (int i = 0; i < 1000; ++i) {
    const sim::Time t = sim::Millis(i);
    EXPECT_DOUBLE_EQ(a.LossProb(t), b.LossProb(t)) << "step " << i;
    EXPECT_EQ(a.bad(), b.bad());
  }
  EXPECT_EQ(a.transitions(), b.transitions());
  EXPECT_GT(a.transitions(), 0u) << "chain never left the Good state";
}

TEST(GilbertElliottTest, LossProbTracksState) {
  faults::GilbertElliott::Config config;
  config.mean_good = sim::Millis(40);
  config.mean_bad = sim::Millis(40);
  config.loss_good = 0.0;
  config.loss_bad = 0.7;
  faults::GilbertElliott ge(config, sim::Rng(3));
  bool saw_good = false;
  bool saw_bad = false;
  for (int i = 0; i < 2000; ++i) {
    const double p = ge.LossProb(sim::Millis(i));
    if (ge.bad()) {
      EXPECT_DOUBLE_EQ(p, 0.7);
      saw_bad = true;
    } else {
      EXPECT_DOUBLE_EQ(p, 0.0);
      saw_good = true;
    }
  }
  EXPECT_TRUE(saw_good);
  EXPECT_TRUE(saw_bad);
}

TEST(GilbertElliottTest, RejectsSubMillisecondMeans) {
  // Below 1 ms the chain flips state millions of times per simulated
  // second; a zero mean flips it once per nanosecond.
  faults::GilbertElliott::Config config;
  config.mean_good = 0;
  EXPECT_THROW(faults::GilbertElliott ge(config, sim::Rng(1)),
               std::invalid_argument);
  config.mean_good = sim::Millis(1);
  config.mean_bad = sim::Millis(1) - 1;
  EXPECT_THROW(faults::GilbertElliott ge(config, sim::Rng(1)),
               std::invalid_argument);
  config.mean_bad = sim::Millis(1);
  EXPECT_NO_THROW(faults::GilbertElliott ge(config, sim::Rng(1)));
}

// --- Scenario plumbing -----------------------------------------------------

scenario::FaultScenario Parse(const std::string& text) {
  scenario::FaultScenario s;
  std::string error;
  EXPECT_TRUE(scenario::ParseFaultScenario(text, &s, &error)) << error;
  return s;
}

constexpr char kBaseScenario[] = R"(
  name=test
  seed=11
  duration_ms=8000
  cross_stations=1
  flows_per_station=4
  congestion_start_ms=2000
  congestion_end_ms=6000
)";

TEST(FaultScenarioTest, ParserRoundTrips) {
  scenario::FaultScenario s = Parse(std::string(kBaseScenario) +
                                    "band=5\ndual=1\nkwikr=1\n"
                                    "fault.ge.enable=1\nfault.ge.loss_bad=0.5\n"
                                    "fault.schedule=4000 ge off\n");
  EXPECT_EQ(s.name, "test");
  EXPECT_EQ(s.experiment.seed, 11u);
  EXPECT_EQ(s.experiment.duration, sim::Millis(8000));
  EXPECT_EQ(s.experiment.band, wifi::Band::k5GHz);
  EXPECT_TRUE(s.experiment.dual_ping_pair);
  EXPECT_TRUE(s.experiment.calls.at(0).kwikr);
  EXPECT_TRUE(s.experiment.faults.ge.enable);
  EXPECT_DOUBLE_EQ(s.experiment.faults.ge.loss_bad, 0.5);
  ASSERT_EQ(s.experiment.faults.schedule.size(), 1u);

  scenario::FaultScenario bad;
  std::string error;
  EXPECT_FALSE(scenario::ParseFaultScenario("nonsense=1", &bad, &error));
  EXPECT_FALSE(
      scenario::ParseFaultScenario("fault.ge.enable=maybe", &bad, &error));
}

TEST(FaultScenarioTest, GilbertElliottLosesFrames) {
  scenario::FaultScenarioSummary clean =
      scenario::RunFaultScenario(Parse(kBaseScenario));
  scenario::FaultScenarioSummary bursty = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) +
            "fault.ge.enable=1\nfault.ge.mean_good_ms=200\n"
            "fault.ge.mean_bad_ms=50\nfault.ge.loss_bad=0.8\n"));
  EXPECT_EQ(clean.fault_counters.ge_losses, 0u);
  EXPECT_GT(bursty.fault_counters.ge_losses, 0u);
  EXPECT_GT(bursty.fault_counters.ge_bursts, 0u);
  // Bursty loss costs media throughput under identical seeds.
  EXPECT_LT(bursty.mean_rate_kbps, clean.mean_rate_kbps);
}

TEST(FaultScenarioTest, DeliveryMangleCountersFire) {
  scenario::FaultScenarioSummary s = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) +
            "fault.reorder.prob=0.05\nfault.duplicate.prob=0.05\n"
            "fault.drop.prob=0.02\n"));
  EXPECT_GT(s.fault_counters.reordered, 0u);
  EXPECT_GT(s.fault_counters.duplicated, 0u);
  EXPECT_GT(s.fault_counters.dropped, 0u);
}

TEST(FaultScenarioTest, WanFaultsFire) {
  scenario::FaultScenarioSummary s = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) +
            "fault.wan.loss_prob=0.05\nfault.wan.jitter_prob=0.3\n"
            "fault.wan.jitter_ms=3\n"));
  EXPECT_GT(s.fault_counters.wan_losses, 0u);
  EXPECT_GT(s.fault_counters.wan_jitters, 0u);
  EXPECT_GT(s.loss_pct, 0.0);
}

TEST(FaultScenarioTest, ChurnFlipsLinkQuality) {
  scenario::FaultScenarioSummary s = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) +
            "fault.churn.period_ms=500\nfault.churn.low_rate_bps=6500000\n"));
  // 8 s call, 500 ms period: ~16 flips.
  EXPECT_GE(s.fault_counters.churn_switches, 8u);
}

TEST(FaultScenarioTest, ScheduleTogglesFaultsMidCall) {
  scenario::FaultScenarioSummary s = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) +
            "fault.ge.enable=1\nfault.ge.loss_bad=0.9\n"
            "fault.schedule=1000 ge off\nfault.schedule=7000 ge on\n"));
  EXPECT_EQ(s.fault_counters.schedule_toggles, 2u);
}

// Section 5.6: under retransmission bursts the two pairs of a dual probe
// see divergent queues, and the prober discards the round instead of
// reporting a corrupted Tq.
TEST(FaultScenarioTest, DualPairDiscardsUnderRetransmissionBursts) {
  const std::string dual = std::string(kBaseScenario) + "dual=1\n";
  scenario::FaultScenarioSummary clean =
      scenario::RunFaultScenario(Parse(dual));
  scenario::FaultScenarioSummary bursty = scenario::RunFaultScenario(
      Parse(dual +
            "fault.ge.enable=1\nfault.ge.mean_good_ms=150\n"
            "fault.ge.mean_bad_ms=60\nfault.ge.loss_bad=0.85\n"));
  const std::uint64_t clean_discards = clean.probe.dual_divergence +
                                       clean.probe.dual_gap +
                                       clean.probe.timeouts;
  const std::uint64_t bursty_discards = bursty.probe.dual_divergence +
                                        bursty.probe.dual_gap +
                                        bursty.probe.timeouts;
  EXPECT_GT(bursty.probe.rounds, 0u);
  EXPECT_GT(bursty_discards, clean_discards)
      << "bursty retransmissions should force dual-pair discards";
}

// Section 5.5: the WMM detector's verdict on honest, WMM-off and
// WMM-partial APs under the fault plan.
TEST(FaultScenarioTest, WmmDetectorVerdicts) {
  const std::string base = std::string(kBaseScenario) +
                           "cross_stations=0\nwmm_detection=1\n";
  scenario::FaultScenarioSummary honest =
      scenario::RunFaultScenario(Parse(base));
  ASSERT_TRUE(honest.wmm_ran);
  EXPECT_TRUE(honest.wmm.wmm_enabled)
      << "honest WMM AP must be detected as prioritizing";

  scenario::FaultScenarioSummary off =
      scenario::RunFaultScenario(Parse(base + "fault.wmm.mode=off\n"));
  ASSERT_TRUE(off.wmm_ran);
  EXPECT_FALSE(off.wmm.wmm_enabled)
      << "WMM-off AP collapses everything to Best Effort";

  scenario::FaultScenarioSummary partial = scenario::RunFaultScenario(
      Parse(base + "fault.wmm.mode=partial\nfault.wmm.honor_prob=0.1\n"));
  ASSERT_TRUE(partial.wmm_ran);
  EXPECT_FALSE(partial.wmm.wmm_enabled)
      << "an AP honouring 10% of priorities must not count as WMM";
  EXPECT_LT(partial.wmm.prioritized_runs, partial.wmm.total_runs);
}

TEST(FaultScenarioTest, ClockSkewShiftsProbeTimestamps) {
  // A large rate error stretches the measured reply spacing; the pure
  // offset cancels out of Tq (both replies shift together).
  scenario::FaultScenarioSummary clean =
      scenario::RunFaultScenario(Parse(kBaseScenario));
  scenario::FaultScenarioSummary skewed = scenario::RunFaultScenario(
      Parse(std::string(kBaseScenario) + "fault.skew.ppm=200000\n"));
  EXPECT_GT(skewed.probe.rounds, 0u);
  EXPECT_NE(skewed.tq_p95_ms, clean.tq_p95_ms);
}

// --- Determinism -----------------------------------------------------------

TEST(FaultScenarioTest, SummaryIsByteStableAcrossReruns) {
  const std::string text = std::string(kBaseScenario) +
                           "dual=1\n"
                           "fault.ge.enable=1\nfault.reorder.prob=0.02\n"
                           "fault.wan.jitter_prob=0.1\nfault.wan.jitter_ms=2\n"
                           "fault.schedule=4000 ge off\n";
  const std::string a = ToCanonicalJson(scenario::RunFaultScenario(Parse(text)));
  const std::string b = ToCanonicalJson(scenario::RunFaultScenario(Parse(text)));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.back(), '\n');
}

TEST(FaultMatrixTest, WildPopulationShardsFaultsDeterministically) {
  scenario::WildConfig config;
  config.calls = 6;
  config.base_seed = 99;
  config.call_duration = sim::Seconds(4);

  faults::FaultSpec bursty;
  bursty.ge.enable = true;
  faults::FaultSpec wan;
  wan.wan.loss_prob = 0.02;
  config.fault_matrix = {faults::FaultSpec{}, bursty, wan};

  config.jobs = 1;
  const scenario::WildResults serial = RunWildPopulation(config);
  config.jobs = 4;
  const scenario::WildResults parallel = RunWildPopulation(config);

  ASSERT_EQ(serial.calls.size(), 6u);
  ASSERT_EQ(parallel.calls.size(), 6u);
  EXPECT_TRUE(serial.failures.empty());
  for (std::size_t i = 0; i < serial.calls.size(); ++i) {
    EXPECT_EQ(serial.calls[i].events_executed,
              parallel.calls[i].events_executed)
        << "environment " << i << " diverged across worker counts";
    EXPECT_DOUBLE_EQ(serial.calls[i].baseline_rate_kbps,
                     parallel.calls[i].baseline_rate_kbps);
    EXPECT_DOUBLE_EQ(serial.calls[i].kwikr_rate_kbps,
                     parallel.calls[i].kwikr_rate_kbps);
  }
}

}  // namespace
}  // namespace kwikr
