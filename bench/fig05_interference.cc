// Figure 5: co-channel interference. A UDP "call" (20 ms packets) runs on
// AP1 while a neighbouring co-channel AP2 carries heavy TCP downloads for
// 30 s. Both the flow's one-way delay and the Ping-Pair AP-downlink delay
// rise during the interference window (paper Section 8.1).
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/ping_pair.h"
#include "scenario/testbed.h"
#include "transport/udp_stream.h"

using namespace kwikr;

int main() {
  bench::Header("Figure 5 — co-channel interference",
                "Neighbouring AP congested t=85..115 s; 1 s averages.\n"
                "Paper: both OWD and Ping-Pair delay rise during the window.");

  scenario::Testbed testbed(scenario::Testbed::Config{505, wifi::PhyParams{}});
  auto& bss1 = testbed.AddBss(scenario::Bss::Config{});
  scenario::Bss::Config bc2;
  bc2.ap.address = 2;
  auto& bss2 = testbed.AddBss(bc2);

  // AP1: the observed client with a simulated call (20 ms UDP downlink).
  // A low MCS stretches frame airtimes so co-channel contention shows up
  // clearly in the delay series.
  auto& client = bss1.AddStation(testbed.NextStationAddress(), 6'500'000);
  const net::FlowId call_flow = testbed.NextFlowId();
  transport::UdpCbrSender::Config cbr;
  cbr.src = testbed.NextServerAddress();
  cbr.dst = client.address();
  cbr.flow = call_flow;
  cbr.packet_bytes = 1200;
  cbr.interval = sim::Millis(20);
  transport::UdpCbrSender call(testbed.loop(), testbed.ids(), cbr,
                               [&bss1](net::Packet&& p) {
                                 bss1.SendFromWan(std::move(p));
                               });
  transport::UdpOwdReceiver owd(call_flow);

  scenario::StationProbeTransport transport(testbed.loop(), testbed.ids(),
                                            client, bss1.ap().address());
  core::PingPairProber::Config pcfg;
  pcfg.interval = sim::Millis(200);  // 5 probes/s as in the experiment.
  core::PingPairProber prober(testbed.loop(), transport, pcfg, call_flow);
  client.AddReceiver([&](const net::Packet& p, sim::Time at) {
    if (p.protocol == net::Protocol::kIcmp) {
      prober.OnReply(p, at);
    } else {
      prober.OnFlowPacket(p, at);
      owd.OnPacket(p, at);
    }
  });

  // AP2: six clients with 20 parallel TCP downloads each, t=85..115 s.
  for (int i = 0; i < 6; ++i) {
    auto& neighbor =
        bss2.AddStation(testbed.NextStationAddress(), 26'000'000);
    testbed.AddTcpBulkFlows(bss2, neighbor, 20);
  }
  testbed.ScheduleCrossTraffic(sim::Seconds(85), sim::Seconds(115));

  call.Start();
  prober.Start();
  testbed.loop().RunUntil(sim::Seconds(200));
  call.Stop();
  prober.Stop();

  // 1-second averages of normalized OWD and of Ping-Pair Tq.
  constexpr int kSeconds = 200;
  std::vector<double> owd_sum(kSeconds, 0.0);
  std::vector<double> owd_n(kSeconds, 0.0);
  const auto normalized = owd.NormalizedOwdMillis();
  for (std::size_t i = 0; i < normalized.size(); ++i) {
    const auto sec =
        static_cast<std::size_t>(owd.samples()[i].arrival / sim::kSecond);
    if (sec < kSeconds) {
      owd_sum[sec] += normalized[i];
      owd_n[sec] += 1.0;
    }
  }
  std::vector<double> tq_sum(kSeconds, 0.0);
  std::vector<double> tq_n(kSeconds, 0.0);
  for (const auto& s : prober.samples()) {
    const auto sec = static_cast<std::size_t>(s.completed_at / sim::kSecond);
    if (sec < kSeconds) {
      tq_sum[sec] += sim::ToMillis(s.tq);
      tq_n[sec] += 1.0;
    }
  }
  std::vector<double> owd_avg(kSeconds, 0.0);
  std::vector<double> tq_avg(kSeconds, 0.0);
  for (int t = 0; t < kSeconds; ++t) {
    owd_avg[t] = owd_n[t] > 0 ? owd_sum[t] / owd_n[t] : 0.0;
    tq_avg[t] = tq_n[t] > 0 ? tq_sum[t] / tq_n[t] : 0.0;
  }

  const std::string labels[] = {"OWD(ms)", "APdelay(ms)"};
  const std::vector<double> series[] = {owd_avg, tq_avg};
  bench::PrintSeries(labels, series, /*stride=*/4);

  // Summary: window vs outside.
  double in_owd = 0.0, out_owd = 0.0, in_tq = 0.0, out_tq = 0.0;
  int in_n = 0, out_n = 0;
  for (int t = 0; t < kSeconds; ++t) {
    if (t >= 87 && t < 113) {
      in_owd += owd_avg[t];
      in_tq += tq_avg[t];
      ++in_n;
    } else if (t > 5) {
      out_owd += owd_avg[t];
      out_tq += tq_avg[t];
      ++out_n;
    }
  }
  std::printf("\nmeans: interference window OWD=%.1f ms APdelay=%.1f ms | "
              "outside OWD=%.1f ms APdelay=%.1f ms\n",
              in_owd / in_n, in_tq / in_n, out_owd / out_n, out_tq / out_n);
  return 0;
}
