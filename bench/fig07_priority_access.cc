// Figure 7: channel access delay for normal- vs high-priority ping probes
// (paper Section 8.2). With contenders on the channel, the high-priority
// probe's access delay stays low and flat while the normal-priority one
// grows — the EDCA differentiation Ping-Pair exploits.
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
    cbr.dst = 5000;
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
  bench::Header("Figure 7 — access delay by probe priority",
                "3 contending uploaders; probe pairs at each priority.\n"
                "Paper: high-priority access delay stays low (~us scale) "
                "regardless of contention.");
  std::printf("%12s %16s %12s %10s\n", "priority", "mean(us)", "ci95(us)",
              "n");
  const auto normal =
      MeasureAccessDelay(3, net::kTosBestEffort, 700);
  std::printf("%12s %16.1f %12.1f %10lld\n", "Normal", normal.mean(),
              normal.ci95_halfwidth(),
              static_cast<long long>(normal.count()));
  const auto high = MeasureAccessDelay(3, net::kTosVoice, 701);
  std::printf("%12s %16.1f %12.1f %10lld\n", "High", high.mean(),
              high.ci95_halfwidth(), static_cast<long long>(high.count()));
  std::printf("\nratio normal/high = %.1fx\n",
              high.mean() > 0 ? normal.mean() / high.mean() : 0.0);
  return 0;
}
