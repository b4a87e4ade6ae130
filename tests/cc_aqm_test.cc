// Tests for the CC x qdisc grid: the pluggable CongestionControl zoo, the
// AP queue disciplines (CoDel / FQ-CoDel vs the DropTail seed path), the
// TokenBucket boundary conditions the BBR pacer leans on, and the scenario
// plumbing that makes grid cells reproducible byte for byte.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "net/wired_link.h"
#include "scenario/call_experiment.h"
#include "scenario/fault_scenario.h"
#include "sim/event_loop.h"
#include "stats/percentile.h"
#include "transport/congestion_control.h"
#include "transport/tcp_reno.h"
#include "transport/token_bucket.h"
#include "wifi/queue_discipline.h"

namespace kwikr {
namespace {

using transport::CcAlgorithm;
using transport::CcConfig;
using transport::MakeCongestionControl;
using transport::TokenBucket;

// --------------------------------------- TokenBucket boundary conditions --

TEST(TokenBucketBoundary, ZeroCapacityPolicerForwardsWhileTokensLast) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 1'000'000;
  config.burst_bytes = 3000;
  config.queue_capacity_packets = 0;  // pure policer: no backlog at all.
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  bucket.Send(net::Packet(p));
  bucket.Send(net::Packet(p));
  bucket.Send(net::Packet(p));  // exactly drains the burst.
  EXPECT_EQ(forwarded, 3);
  bucket.Send(net::Packet(p));  // no tokens, no queue: policed.
  EXPECT_EQ(forwarded, 3);
  EXPECT_EQ(bucket.dropped(), 1u);
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucketBoundary, QueuedPacketForwardsExactlyWhenTokensAccrue) {
  sim::EventLoop loop;
  std::vector<sim::Time> forward_times;
  TokenBucket::Config config;
  config.rate_bps = 8'000;  // 1000 bytes per second.
  config.burst_bytes = 1000;
  TokenBucket bucket(loop, config,
                     [&](net::Packet) { forward_times.push_back(loop.now()); });
  net::Packet p;
  p.size_bytes = 1000;
  bucket.Send(net::Packet(p));  // spends the whole burst.
  // Queues with a deficit of exactly one refill second.
  bucket.Send(net::Packet(p));
  EXPECT_EQ(bucket.backlog(), 1u);
  loop.RunUntil(sim::Seconds(3));
  ASSERT_EQ(forward_times.size(), 2u);
  EXPECT_EQ(forward_times[0], 0);
  // The drain wake-up lands at deficit/rate (+1 ns scheduling epsilon) and
  // must not fire early.
  EXPECT_GE(forward_times[1], sim::Seconds(1));
  EXPECT_LE(forward_times[1], sim::Seconds(1) + sim::Millis(1));
  EXPECT_EQ(bucket.backlog(), 0u);
}

TEST(TokenBucketBoundary, OversizedHeadWaitsWithoutLivelock) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 1'000'000;
  config.burst_bytes = 100;  // tokens can never cover the packet below.
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  bucket.Send(net::Packet(p));
  EXPECT_EQ(bucket.backlog(), 1u);
  loop.RunUntil(sim::Seconds(1));
  // The head can never drain at this rate; the bucket must go idle instead
  // of rescheduling its wake-up forever.
  EXPECT_EQ(bucket.backlog(), 1u);
  EXPECT_LT(loop.executed(), 10u);
  bucket.SetRate(0);  // disabling shaping flushes the backlog.
  EXPECT_EQ(forwarded, 1);
}

TEST(TokenBucketBoundary, BurstOfPacketsLargerThanQueueCapacityDrops) {
  sim::EventLoop loop;
  int forwarded = 0;
  TokenBucket::Config config;
  config.rate_bps = 8'000;
  config.burst_bytes = 1000;
  config.queue_capacity_packets = 2;
  TokenBucket bucket(loop, config, [&](net::Packet) { ++forwarded; });
  net::Packet p;
  p.size_bytes = 1000;
  for (int i = 0; i < 10; ++i) bucket.Send(net::Packet(p));
  EXPECT_EQ(forwarded, 1);           // burst covered exactly one packet.
  EXPECT_EQ(bucket.backlog(), 2u);   // queue bound respected.
  EXPECT_EQ(bucket.dropped(), 7u);
}

// ------------------------------------------------- CongestionControl zoo --

TEST(CongestionControlZoo, NamesParseAndRoundTrip) {
  for (const auto algo : {CcAlgorithm::kReno, CcAlgorithm::kCubic,
                          CcAlgorithm::kWestwood, CcAlgorithm::kBbr}) {
    CcAlgorithm parsed;
    ASSERT_TRUE(transport::ParseCcAlgorithm(transport::Name(algo), &parsed));
    EXPECT_EQ(parsed, algo);
    EXPECT_STREQ(MakeCongestionControl(algo, CcConfig{})->name(),
                 transport::Name(algo));
  }
  CcAlgorithm parsed;
  EXPECT_FALSE(transport::ParseCcAlgorithm("vegas", &parsed));
}

TEST(CongestionControlZoo, RenoMatchesTheOriginalArithmetic) {
  // The extracted Reno must evolve exactly like the pre-refactor inline
  // arithmetic; the goldens prove it end to end, this proves it per step.
  auto cc = MakeCongestionControl(CcAlgorithm::kReno, CcConfig{});
  EXPECT_DOUBLE_EQ(cc->cwnd(), 10.0);
  double expect = 10.0;
  for (int i = 0; i < 5; ++i) {  // slow start: +1 per ACK arrival.
    cc->OnAck(1, 10, sim::Millis(i));
    expect += 1.0;
    EXPECT_DOUBLE_EQ(cc->cwnd(), expect);
  }
  cc->OnLoss(sim::Millis(6));  // ssthresh = cwnd/2, cwnd = ssthresh + 3.
  EXPECT_DOUBLE_EQ(cc->ssthresh(), 7.5);
  EXPECT_DOUBLE_EQ(cc->cwnd(), 10.5);
  cc->OnDupAckInRecovery();
  EXPECT_DOUBLE_EQ(cc->cwnd(), 11.5);
  cc->OnRecoveryExit(sim::Millis(7));
  EXPECT_DOUBLE_EQ(cc->cwnd(), 7.5);
  cc->OnAck(1, 7, sim::Millis(8));  // congestion avoidance: +1/cwnd.
  EXPECT_DOUBLE_EQ(cc->cwnd(), 7.5 + 1.0 / 7.5);
  cc->OnRto(sim::Millis(9));
  EXPECT_DOUBLE_EQ(cc->cwnd(), 1.0);
}

TEST(CongestionControlZoo, CubicBacksOffByBetaAndRegrowsTowardWmax) {
  auto cc = MakeCongestionControl(CcAlgorithm::kCubic, CcConfig{});
  sim::Time now = 0;
  for (int i = 0; i < 40; ++i) {  // leave slow start well behind.
    now += sim::Millis(10);
    cc->OnRttSample(sim::Millis(20), now);
    cc->OnAck(1, 20, now);
  }
  const double before_loss = cc->cwnd();
  cc->OnLoss(now);
  cc->OnRecoveryExit(now);
  EXPECT_NEAR(cc->cwnd(), 0.7 * before_loss, 1e-9);  // beta = 0.7.
  // The cubic curve regrows toward the loss point over the next second.
  const double after_backoff = cc->cwnd();
  for (int i = 0; i < 100; ++i) {
    now += sim::Millis(10);
    cc->OnRttSample(sim::Millis(20), now);
    cc->OnAck(1, 20, now);
  }
  EXPECT_GT(cc->cwnd(), after_backoff);
  EXPECT_GT(cc->cwnd(), 0.9 * before_loss);
}

TEST(CongestionControlZoo, WestwoodCollapsesToEstimatedBdpOnLoss) {
  auto cc = MakeCongestionControl(CcAlgorithm::kWestwood, CcConfig{});
  sim::Time now = 0;
  cc->OnRttSample(sim::Millis(100), now);
  // 10 segments acked every 100 ms for 3 s: ACK rate 100 seg/s, so the BDP
  // at RTTmin 100 ms is ~10 segments.
  for (int i = 0; i < 30; ++i) {
    now += sim::Millis(100);
    cc->OnRttSample(sim::Millis(100), now);
    cc->OnAck(10, 10, now);
  }
  EXPECT_GT(cc->cwnd(), 30.0);  // slow start grew far beyond the pipe.
  cc->OnLoss(now);
  // ssthresh lands near the bandwidth-delay product, not at cwnd/2 — the
  // queue-draining backoff that distinguishes Westwood+ from Reno.
  EXPECT_GE(cc->ssthresh(), 4.0);
  EXPECT_LE(cc->ssthresh(), 20.0);
  EXPECT_DOUBLE_EQ(cc->cwnd(), cc->ssthresh());
}

TEST(CongestionControlZoo, BbrBuildsAModelPacesAndIgnoresLoss) {
  auto cc = MakeCongestionControl(CcAlgorithm::kBbr, CcConfig{});
  EXPECT_EQ(cc->pacing_rate_bps(), 0);  // empty model: unpaced first flight.
  sim::Time now = 0;
  for (int i = 0; i < 30; ++i) {
    now += sim::Millis(10);
    cc->OnAck(10, 20, now);
    cc->OnRttSample(sim::Millis(20), now);
  }
  // 10 segments / 10 ms = 1000 seg/s at 1500 wire bytes -> ~12 Mbps.
  EXPECT_GT(cc->pacing_rate_bps(), 6'000'000);
  const double cwnd_before = cc->cwnd();
  EXPECT_GE(cwnd_before, 4.0);
  cc->OnLoss(now);  // the model is loss-agnostic.
  EXPECT_DOUBLE_EQ(cc->cwnd(), cwnd_before);
  cc->OnRto(now);  // ...but a dead RTO restarts it.
  EXPECT_EQ(cc->pacing_rate_bps(), 0);
}

// ------------------------------------------- TcpSender x CC integration --

/// Fixed-delay bottleneck harness (mirrors transport_test's TcpHarness) but
/// parameterized on the congestion-control algorithm.
struct CcHarness {
  sim::EventLoop loop;
  net::PacketIdAllocator ids;
  std::unique_ptr<net::WiredLink> bottleneck;
  std::unique_ptr<transport::TcpSender> sender;
  std::unique_ptr<transport::TcpRenoReceiver> receiver;

  void OnBottleneck(net::Packet p) { receiver->OnSegment(p, loop.now()); }

  explicit CcHarness(CcAlgorithm cc, std::int64_t rate_bps,
                     std::size_t queue = 100) {
    net::WiredLink::Config link;
    link.rate_bps = rate_bps;
    link.propagation = sim::Millis(10);
    link.queue_capacity_packets = queue;
    bottleneck = std::make_unique<net::WiredLink>(
        loop, link,
        net::WiredLink::Receiver::Member<&CcHarness::OnBottleneck>(this));
    transport::TcpSender::Config config;
    config.cc = cc;
    sender = std::make_unique<transport::TcpSender>(
        loop, 1, 10, 20, ids,
        [this](net::Packet p) { bottleneck->Send(std::move(p)); }, config);
    receiver = std::make_unique<transport::TcpRenoReceiver>(
        1, 20, 10, ids, [this](net::Packet p) {
          loop.ScheduleIn(sim::Millis(10),
                          [this, p = std::move(p)]() mutable {
                            sender->OnAck(p);
                          });
        });
  }
};

class CcUtilization : public ::testing::TestWithParam<CcAlgorithm> {};

TEST_P(CcUtilization, FillsAtLeastHalfTheBottleneck) {
  CcHarness h(GetParam(), 10'000'000);
  h.sender->Start();
  h.loop.RunUntil(sim::Seconds(10));
  h.sender->Stop();
  const double goodput_bps =
      static_cast<double>(h.receiver->bytes_received()) * 8.0 / 10.0;
  EXPECT_GT(goodput_bps, 5'000'000.0) << transport::Name(GetParam());
  EXPECT_LT(goodput_bps, 10'500'000.0) << transport::Name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, CcUtilization,
    ::testing::Values(CcAlgorithm::kReno, CcAlgorithm::kCubic,
                      CcAlgorithm::kWestwood, CcAlgorithm::kBbr),
    [](const auto& info) { return transport::Name(info.param); });

// -------------------------------------------------------- QueueDiscipline --

TEST(QueueDisciplineConfig, KindNamesParseIncludingAliases) {
  wifi::QdiscKind kind;
  ASSERT_TRUE(wifi::ParseQdiscKind("droptail", &kind));
  EXPECT_EQ(kind, wifi::QdiscKind::kDropTail);
  ASSERT_TRUE(wifi::ParseQdiscKind("codel", &kind));
  EXPECT_EQ(kind, wifi::QdiscKind::kCoDel);
  for (const char* alias : {"fq_codel", "fq-codel", "fqcodel"}) {
    ASSERT_TRUE(wifi::ParseQdiscKind(alias, &kind)) << alias;
    EXPECT_EQ(kind, wifi::QdiscKind::kFqCoDel);
  }
  EXPECT_FALSE(wifi::ParseQdiscKind("red", &kind));
}

/// Congested short call used by the scenario-level qdisc assertions.
scenario::ExperimentConfig GridConfig(CcAlgorithm cc, wifi::QdiscKind qdisc,
                                      obs::MetricsRegistry* metrics) {
  scenario::ExperimentConfig config;
  config.seed = 1001;
  config.duration = sim::Seconds(12);
  config.cross_stations = 1;
  config.flows_per_station = 6;
  config.congestion_start = sim::Seconds(3);
  config.congestion_end = sim::Seconds(9);
  config.cross_cc = cc;
  config.qdisc.kind = qdisc;
  config.metrics = metrics;
  return config;
}

double TqP95Ms(const scenario::ExperimentMetrics& metrics) {
  std::vector<double> ms;
  for (const auto& s : metrics.calls.at(0).probe_samples) {
    ms.push_back(sim::ToMillis(s.tq));
  }
  return stats::Percentile(ms, 95.0);
}

std::uint64_t SumCounter(obs::MetricsRegistry& registry,
                         const std::string& name) {
  std::uint64_t total = 0;
  for (int ac = 0; ac < wifi::kNumAccessCategories; ++ac) {
    total += registry
                 .GetCounter(name, {{"ac", wifi::Name(
                                               static_cast<wifi::AccessCategory>(
                                                   ac))}})
                 .value();
  }
  return total;
}

TEST(QueueDisciplineScenario, CoDelCutsQueueingDelayVsDropTail) {
  obs::MetricsRegistry droptail_metrics;
  const auto droptail = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kDropTail,
                 &droptail_metrics));
  obs::MetricsRegistry codel_metrics;
  const auto codel = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kCoDel,
                 &codel_metrics));
  // DropTail lets the standing queue grow (bufferbloat); CoDel drops from
  // sojourn time and keeps the Ping-Pair Tq component well below it.
  EXPECT_LT(TqP95Ms(codel), 0.6 * TqP95Ms(droptail));
  EXPECT_GT(SumCounter(codel_metrics, "qdisc_aqm_drops_total"), 0u);
  EXPECT_EQ(SumCounter(droptail_metrics, "qdisc_aqm_drops_total"), 0u);
}

TEST(QueueDisciplineScenario, FqCoDelIsolatesTheCallFromCrossTraffic) {
  const auto droptail = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kDropTail, nullptr));
  const auto fq = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kFqCoDel, nullptr));
  // Flow isolation keeps the call's queue private: its rate must improve
  // materially over sharing one DropTail FIFO with six bulk flows.
  EXPECT_GT(fq.calls.at(0).mean_rate_kbps,
            1.5 * droptail.calls.at(0).mean_rate_kbps);
  EXPECT_LT(TqP95Ms(fq), 0.2 * TqP95Ms(droptail));
}

// ------------------------------------------------- grid reproducibility --

TEST(GridScenario, BottleneckKeysParse) {
  scenario::FaultScenario parsed;
  std::string error;
  ASSERT_TRUE(scenario::ParseFaultScenario(
      "name=cell\nseed=5\nduration_ms=1000\ncc=cubic\nqdisc=fq_codel\n"
      "codel_target_ms=7\ncodel_interval_ms=90\nfq_flows=32\n",
      &parsed, &error))
      << error;
  EXPECT_TRUE(parsed.bottleneck_explicit);
  EXPECT_EQ(parsed.experiment.cross_cc, CcAlgorithm::kCubic);
  EXPECT_EQ(parsed.experiment.qdisc.kind, wifi::QdiscKind::kFqCoDel);
  EXPECT_EQ(parsed.experiment.qdisc.target, sim::Millis(7));
  EXPECT_EQ(parsed.experiment.qdisc.interval, sim::Millis(90));
  EXPECT_EQ(parsed.experiment.qdisc.flows, 32u);

  EXPECT_FALSE(scenario::ParseFaultScenario("cc=vegas\n", &parsed, &error));
  EXPECT_FALSE(scenario::ParseFaultScenario("qdisc=red\n", &parsed, &error));

  ASSERT_TRUE(scenario::ParseFaultScenario("name=plain\n", &parsed, &error));
  EXPECT_FALSE(parsed.bottleneck_explicit);  // seed summaries stay unchanged.
}

TEST(GridScenario, SummaryBytesAreStableAcrossReruns) {
  scenario::FaultScenario cell;
  std::string error;
  ASSERT_TRUE(scenario::ParseFaultScenario(
      "name=rerun_cell\nseed=77\nduration_ms=8000\ncross_stations=1\n"
      "flows_per_station=6\ncongestion_start_ms=2000\n"
      "congestion_end_ms=6000\ncc=cubic\nqdisc=codel\n",
      &cell, &error))
      << error;
  const std::string first =
      scenario::ToCanonicalJson(scenario::RunFaultScenario(cell));
  const std::string second =
      scenario::ToCanonicalJson(scenario::RunFaultScenario(cell));
  EXPECT_EQ(first, second);
  // The explicit grid keys switch the bottleneck section on.
  EXPECT_NE(first.find("\"bottleneck\""), std::string::npos);
  EXPECT_NE(first.find("\"cc\": \"cubic\""), std::string::npos);
  EXPECT_NE(first.find("\"qdisc\": \"codel\""), std::string::npos);
}

TEST(GridScenario, FqCodelHashSeedIsForkedFromTheScenarioSeed) {
  // Same seed -> identical FQ bucketing; the perturbation must come from the
  // scenario seed through a dedicated Rng::Fork stream, never ambient state.
  obs::MetricsRegistry a, b;
  const auto first = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kFqCoDel, &a));
  const auto second = scenario::RunCallExperiment(
      GridConfig(CcAlgorithm::kReno, wifi::QdiscKind::kFqCoDel, &b));
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(SumCounter(a, "qdisc_aqm_drops_total"),
            SumCounter(b, "qdisc_aqm_drops_total"));
  EXPECT_EQ(SumCounter(a, "qdisc_forwarded_total"),
            SumCounter(b, "qdisc_forwarded_total"));
}

}  // namespace
}  // namespace kwikr
