// A call that survives a Wi-Fi handoff: the client roams from the living
// room AP to the office AP mid-call. The handoff detector (paper Figure 2's
// third hint family) resets all path-learned state — the one-way-delay
// baseline, the Ping-Pair EWMA — and the prober retargets the new gateway
// automatically.
//
// Build & run:   ./build/examples/roaming_call
#include <cstdio>

#include "core/handoff.h"
#include "core/kwikr.h"
#include "core/ping_pair.h"
#include "rtc/media.h"
#include "scenario/testbed.h"

using namespace kwikr;

int main() {
  scenario::Testbed testbed(scenario::Testbed::Config{55, wifi::PhyParams{}});
  auto& living_room = testbed.AddBss(scenario::Bss::Config{});
  scenario::Bss::Config office_config;
  office_config.ap.address = 2;
  auto& office = testbed.AddBss(office_config);

  // The client starts far from the office AP, close to the living room one.
  auto& client = living_room.AddStation(testbed.NextStationAddress(),
                                        65'000'000);
  const net::FlowId call_flow = testbed.NextFlowId();
  const net::Address peer = testbed.NextServerAddress();

  // The wired peer reaches the client through whichever BSS serves it.
  scenario::Bss* serving = &living_room;
  rtc::MediaSender::Config sender_config;
  sender_config.src = peer;
  sender_config.dst = client.address();
  sender_config.flow = call_flow;
  rtc::MediaSender sender(testbed.loop(), testbed.ids(), sender_config,
                          [&serving](net::Packet&& p) {
                            serving->SendFromWan(std::move(p));
                          });
  rtc::MediaReceiver::Config receiver_config;
  receiver_config.src = client.address();
  receiver_config.dst = peer;
  receiver_config.flow = call_flow;
  rtc::MediaReceiver receiver(testbed.loop(), testbed.ids(), receiver_config,
                              [&client](net::Packet&& p) {
                                client.Send(std::move(p));
                              });
  auto feedback = [&sender](net::Packet&& p, sim::Time at) {
    sender.OnFeedback(p, at);
  };
  living_room.RegisterWanEndpoint(peer, feedback);
  office.RegisterWanEndpoint(peer, feedback);

  // Probing + hints.
  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, client.gateway());
  core::PingPairProber prober(testbed.loop(), transport,
                              core::PingPairProber::Config{}, call_flow);
  core::KwikrAdapter adapter(testbed.loop());
  adapter.AttachTo(prober);
  receiver.SetCrossTrafficProvider(adapter.CrossTrafficProvider());

  core::HandoffDetector handoff([&] { return testbed.loop().now(); });
  handoff.SetInitialGateway(client.gateway());
  handoff.AddResetHook([&] {
    adapter.Reset();        // the smoothed Tq/Tc described the old AP.
    receiver.OnPathChange();  // the OWD minimum encoded the old path.
  });
  handoff.AddHintCallback([](const core::HandoffHint& hint) {
    std::printf("t=%6.1fs  HINT: handoff AP %u -> AP %u (path state reset)\n",
                sim::ToSeconds(hint.at), hint.old_gateway, hint.new_gateway);
  });
  client.AddRoamCallback([&](net::Address gw) {
    serving = &office;  // upstream routing converges on the new AP.
    handoff.OnGatewayChange(gw);
  });

  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) {
      prober.OnReply(p, at);
    } else {
      prober.OnFlowPacket(p, at);
      receiver.OnPacket(p, at);
    }
  });

  // The walk to the office at t=40 s: link weakens, then the client roams.
  testbed.loop().ScheduleAt(sim::Seconds(38), [&] {
    client.SetLinkQuality(
        wifi::LinkQualityAtDistance(wifi::Band::k2_4GHz, 40.0));
  });
  testbed.loop().ScheduleAt(sim::Seconds(40), [&] {
    client.Roam(office.ap(), wifi::LinkQuality{65'000'000, 0.0});
  });

  std::printf("80 s call; the client walks to the office and roams at "
              "t=40 s\n");
  sender.Start();
  receiver.Start();
  prober.Start();
  sim::PeriodicTimer status(testbed.loop(), sim::Seconds(10), [&] {
    std::printf("t=%6.1fs  gateway=AP%u  rate=%5lld kbps  Tq=%5.1f ms\n",
                sim::ToSeconds(testbed.loop().now()), client.gateway(),
                static_cast<long long>(receiver.target_rate_bps() / 1000),
                adapter.SmoothedTqMillis());
  });
  status.Start();
  testbed.loop().RunUntil(sim::Seconds(80));

  std::printf("\ncall summary: loss %.2f%%, %llu/%llu probe rounds valid, "
              "%lld handoff(s)\n", receiver.loss_fraction() * 100.0,
              (unsigned long long)prober.stats().valid,
              (unsigned long long)prober.stats().rounds,
              (long long)handoff.handoffs());
  return 0;
}
