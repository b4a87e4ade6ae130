// Scenario CLI: run a custom call experiment from the command line and get
// a per-second rate series plus summary metrics (optionally as CSV).
//
//   ./build/examples/simulate --duration 120 --cross-stations 2 --flows 10
//       --congest 40:80 --kwikr --seed 7 --csv rates.csv
//
// Flags:
//   --duration <s>         call length (default 120)
//   --seed <n>             RNG seed (default 1)
//   --kwikr                enable Ping-Pair-informed adaptation
//   --gcc                  use the delay-gradient (WebRTC-style) stack
//   --cross-stations <n>   cross-traffic stations (default 2)
//   --flows <n>            TCP flows per cross station (default 10)
//   --congest <a>:<b>      congestion window seconds (default 40:80)
//   --throttle <kbps>      token-bucket throttle during the window
//   --band5                5 GHz band (default 2.4 GHz)
//   --no-wmm               AP without WMM prioritization
//   --rate <mbps>          client MCS rate (default 26)
//   --csv <file>           write the per-second series as CSV
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/call_experiment.h"
#include "stats/percentile.h"

using namespace kwikr;

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--duration s] [--seed n] [--kwikr] [--gcc]\n"
               "  [--cross-stations n] [--flows n] [--congest a:b]\n"
               "  [--throttle kbps] [--band5] [--no-wmm] [--rate mbps]\n"
               "  [--csv file]\n", argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  scenario::ExperimentConfig config;
  config.duration = sim::Seconds(120);
  config.cross_stations = 2;
  config.flows_per_station = 10;
  config.congestion_start = sim::Seconds(40);
  config.congestion_end = sim::Seconds(80);
  std::string csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--duration") {
      config.duration = sim::Seconds(std::atoll(next()));
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--kwikr") {
      config.calls[0].kwikr = true;
    } else if (arg == "--gcc") {
      config.calls[0].adaptation =
          rtc::MediaReceiver::Adaptation::kDelayGradient;
    } else if (arg == "--cross-stations") {
      config.cross_stations = std::atoi(next());
    } else if (arg == "--flows") {
      config.flows_per_station = std::atoi(next());
    } else if (arg == "--congest") {
      long a = 0;
      long b = 0;
      if (std::sscanf(next(), "%ld:%ld", &a, &b) != 2) Usage(argv[0]);
      config.congestion_start = sim::Seconds(a);
      config.congestion_end = sim::Seconds(b);
    } else if (arg == "--throttle") {
      config.throttle_bps = std::atoll(next()) * 1000;
      config.throttle_start = config.congestion_start;
      config.throttle_end = config.congestion_end;
    } else if (arg == "--band5") {
      config.band = wifi::Band::k5GHz;
    } else if (arg == "--no-wmm") {
      config.wmm_enabled = false;
    } else if (arg == "--rate") {
      config.client_rate_bps = std::atoll(next()) * 1'000'000;
    } else if (arg == "--csv") {
      csv_path = next();
    } else {
      Usage(argv[0]);
    }
  }

  const auto metrics = scenario::RunCallExperiment(config);
  const auto& call = metrics.calls[0];

  std::printf("t(s)  rate(kbps)\n");
  for (std::size_t t = 0; t < call.rate_series_kbps.size(); t += 5) {
    std::printf("%4zu  %10.1f\n", t, call.rate_series_kbps[t]);
  }
  std::printf("\nmean rate       : %8.0f kbps\n", call.mean_rate_kbps);
  if (config.congestion_end > config.congestion_start) {
    std::printf("rate in window  : %8.0f kbps\n",
                call.mean_rate_congested_kbps);
  }
  std::printf("loss            : %8.2f %%\n", call.loss_pct);
  std::printf("RTT p50 / p95   : %5.1f / %5.1f ms\n",
              stats::Percentile(call.rtt_ms, 50.0),
              stats::Percentile(call.rtt_ms, 95.0));
  std::printf("probe rounds    : %8llu (%llu valid)\n",
              (unsigned long long)call.probe_stats.rounds,
              (unsigned long long)call.probe_stats.valid);
  std::vector<double> tq;
  for (const auto& s : call.probe_samples) tq.push_back(sim::ToMillis(s.tq));
  std::printf("Tq p50 / p95    : %5.1f / %5.1f ms\n",
              stats::Percentile(tq, 50.0), stats::Percentile(tq, 95.0));
  std::printf("channel busy    : %8.0f %%\n",
              100.0 * metrics.channel_busy_fraction);

  if (!csv_path.empty()) {
    std::FILE* csv = std::fopen(csv_path.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(csv, "t_s,rate_kbps\n");
    for (std::size_t t = 0; t < call.rate_series_kbps.size(); ++t) {
      std::fprintf(csv, "%zu,%g\n", t, call.rate_series_kbps[t]);
    }
    std::fclose(csv);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}
