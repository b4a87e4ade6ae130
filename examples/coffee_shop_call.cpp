// A call from a busy coffee shop: neighbours come and go, pulling bulk
// downloads through the same AP. This example shows the Kwikr hints API
// (paper Figure 2): the Ping-Pair detector turns raw probe measurements into
// actionable Wi-Fi hints, the adapter feeds the estimator, and the
// application (here: a printout) can observe the congestion attribution
// live.
//
// Build & run:   ./build/examples/coffee_shop_call
#include <cstdio>

#include "core/kwikr.h"
#include "core/ping_pair.h"
#include "rtc/media.h"
#include "scenario/testbed.h"

using namespace kwikr;

int main() {
  scenario::Testbed testbed(scenario::Testbed::Config{21, wifi::PhyParams{}});
  auto& bss = testbed.AddBss(scenario::Bss::Config{});

  // Our client and its call.
  auto& client = bss.AddStation(testbed.NextStationAddress(), 26'000'000);
  const net::FlowId call_flow = testbed.NextFlowId();
  const net::Address peer = testbed.NextServerAddress();

  rtc::MediaSender::Config sender_config;
  sender_config.src = peer;
  sender_config.dst = client.address();
  sender_config.flow = call_flow;
  rtc::MediaSender sender(testbed.loop(), testbed.ids(), sender_config,
                          [&bss](net::Packet&& p) {
                            bss.SendFromWan(std::move(p));
                          });

  rtc::MediaReceiver::Config receiver_config;
  receiver_config.src = client.address();
  receiver_config.dst = peer;
  receiver_config.flow = call_flow;
  rtc::MediaReceiver receiver(testbed.loop(), testbed.ids(), receiver_config,
                              [&client](net::Packet&& p) {
                                client.Send(std::move(p));
                              });
  bss.RegisterWanEndpoint(peer, [&sender](net::Packet&& p, sim::Time at) {
    sender.OnFeedback(p, at);
  });

  // Ping-Pair probing + the Kwikr adapter, wired per Figure 2.
  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss.ap().address());
  core::PingPairProber prober(testbed.loop(), transport,
                              core::PingPairProber::Config{}, call_flow);
  core::KwikrAdapter adapter(testbed.loop());
  adapter.AttachTo(prober);
  receiver.SetCrossTrafficProvider(adapter.CrossTrafficProvider());

  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) {
      prober.OnReply(p, at);
    } else {
      prober.OnFlowPacket(p, at);
      receiver.OnPacket(p, at);
    }
  });

  // Print a hint line whenever the congestion verdict changes.
  bool last_congested = false;
  adapter.AddHintCallback([&](const core::WifiHint& hint) {
    if (hint.congested != last_congested) {
      last_congested = hint.congested;
      std::printf("t=%6.1fs  HINT: %s  (Tq=%.1f ms: self %.1f ms + cross "
                  "%.1f ms)\n", sim::ToSeconds(hint.at),
                  hint.congested ? "Wi-Fi CONGESTED" : "Wi-Fi clear",
                  sim::ToMillis(hint.tq), sim::ToMillis(hint.ta),
                  sim::ToMillis(hint.tc));
    }
  });

  // The coffee shop: three neighbours start heavy downloads at t=30 s and
  // leave at t=90 s.
  for (int i = 0; i < 3; ++i) {
    auto& neighbour =
        bss.AddStation(testbed.NextStationAddress(), 26'000'000);
    testbed.AddTcpBulkFlows(bss, neighbour, 8);
  }
  testbed.ScheduleCrossTraffic(sim::Seconds(30), sim::Seconds(90));

  std::printf("120 s call; neighbours hammer the AP from t=30 s to t=90 s\n");
  sender.Start();
  receiver.Start();
  prober.Start();
  // Periodic status line.
  sim::PeriodicTimer status(testbed.loop(), sim::Seconds(10), [&] {
    std::printf("t=%6.1fs  rate=%5lld kbps  smoothed Tq=%5.1f ms  "
                "Tc=%5.1f ms\n", sim::ToSeconds(testbed.loop().now()),
                static_cast<long long>(
                    receiver.controller().target_rate_bps() / 1000),
                adapter.SmoothedTqMillis(),
                adapter.SmoothedTcSeconds() * 1000.0);
  });
  status.Start();
  testbed.loop().RunUntil(sim::Seconds(120));

  std::printf("\ncall summary: %.0f kbps mean, %.2f%% loss, %llu probe "
              "samples (%llu rounds)\n",
              [&] {
                double sum = 0.0;
                for (double r : receiver.rate_series_kbps()) sum += r;
                return receiver.rate_series_kbps().empty()
                           ? 0.0
                           : sum / receiver.rate_series_kbps().size();
              }(),
              receiver.loss_fraction() * 100.0,
              (unsigned long long)prober.stats().valid,
              (unsigned long long)prober.stats().rounds);
  return 0;
}
