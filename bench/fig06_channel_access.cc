// Figure 6: estimated channel access delay vs number of channel contenders
// (paper Section 8.2). Contenders upload one 1000-byte UDP packet per
// millisecond; the estimator sends same-priority ping pairs and accepts only
// measurements with consecutive 802.11 sequence numbers and no retry bit.
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/channel_access.h"
#include "scenario/testbed.h"
#include "stats/summary.h"
#include "transport/udp_stream.h"

using namespace kwikr;

namespace {

stats::RunningSummary MeasureAccessDelay(int contenders, std::uint8_t tos,
                                         std::uint64_t seed) {
  scenario::Testbed testbed(
      scenario::Testbed::Config{seed, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});
  auto& client = bss.AddStation(testbed.NextStationAddress(), 26'000'000);

  std::vector<std::unique_ptr<transport::UdpCbrSender>> senders;
  for (int i = 0; i < contenders; ++i) {
    auto& station =
        bss.AddStation(testbed.NextStationAddress(), 26'000'000);
    transport::UdpCbrSender::Config cbr;
    cbr.src = station.address();
    cbr.dst = 5000;  // toward the WAN; payload content is irrelevant.
    cbr.packet_bytes = 1000;
    cbr.interval = sim::Millis(1);
    wifi::Station* sp = &station;
    senders.push_back(std::make_unique<transport::UdpCbrSender>(
        testbed.loop(), testbed.ids(), cbr,
        [sp](net::Packet&& p) { sp->Send(std::move(p)); }));
    senders.back()->Start();
  }

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss.ap().address());
  core::ChannelAccessEstimator::Config cfg;
  cfg.interval = sim::Millis(20);
  cfg.tos = tos;
  core::ChannelAccessEstimator estimator(testbed.loop(), transport, cfg,
                                         testbed.channel().phy());
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) estimator.OnReply(p, at);
  });
  estimator.Start();
  // ~1500 probes, as in the paper.
  testbed.loop().RunUntil(sim::Seconds(30));
  estimator.Stop();

  stats::RunningSummary summary;
  for (const auto e : estimator.estimates()) {
    summary.Add(sim::ToMicros(e));
  }
  return summary;
}

}  // namespace

int main() {
  bench::Header("Figure 6 — channel access delay vs contenders",
                "Contenders upload 1 pkt/ms; normal-priority probes; 95% CI.\n"
                "Paper: delay grows with the number of contenders.");
  std::printf("%12s %16s %12s %10s\n", "contenders", "mean(us)", "ci95(us)",
              "n");
  for (int contenders = 0; contenders <= 4; ++contenders) {
    const auto summary = MeasureAccessDelay(
        contenders, net::kTosBestEffort, 600 + contenders);
    std::printf("%12d %16.1f %12.1f %10lld\n", contenders, summary.mean(),
                summary.ci95_halfwidth(),
                static_cast<long long>(summary.count()));
  }
  return 0;
}
