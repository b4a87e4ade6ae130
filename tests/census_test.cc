// Exact work census: deterministic counts of what the simulator does, compared
// line by line against the committed files in tests/census/, plus exact
// zero-allocation checks of the steady-state hot paths.
//
//   scenario_grid.census  per-type event dispatches and per-AC AP deliveries
//                         of every tests/golden cell
//   wild_fig10.census     events and probe samples of 8 environments x 15 s
//   fleet_1s.census       the same for 24 environments x 1 s
//   kernels.census        the saturated channel's frame counters, the
//                         sparse frame-hop loop's per-round allocations and
//                         the TCP receive path's per-round segments,
//                         out-of-order arrivals and allocations
//
// A mismatch writes the measured file to <build>/tests/census-diff/ and a match
// removes it, so that directory holds only the current mismatches. A change
// that moves a count on purpose regenerates the census by copying that file
// over tests/census/ and explains the delta in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "scenario/fault_scenario.h"
#include "scenario/testbed.h"
#include "scenario/wild_population.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "wifi/channel.h"
#include "wifi/edca.h"
#include "wifi/station.h"

// Counts every heap allocation in the process. new and new[] are replaced
// in their plain and aligned forms (sim::FrameRing, behind every contender
// queue, allocates aligned), together with every delete: plain, sized,
// aligned and sized aligned. So every new is paired with a free it knows;
// the nothrow forms forward to these.
namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t size, std::size_t align = 0) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = align == 0
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) & ~(align - 1));
  if (p != nullptr) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedMalloc(size); }
void* operator new[](std::size_t size) { return CountedMalloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedMalloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedMalloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kwikr {
namespace {

namespace fs = std::filesystem;

std::uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Compares `got` with the committed tests/census/<file>, reporting the
/// first differing line (each line starts with its cell or kernel).
void ExpectCensus(const std::string& file, const std::string& got) {
  const std::string want = ReadFile(fs::path(KWIKR_CENSUS_DIR) / file);
  const fs::path measured = fs::path(KWIKR_CENSUS_DIFF_DIR) / file;
  if (want == got) {
    std::error_code ignored;
    fs::remove(measured, ignored);
    return;
  }
  fs::create_directories(measured.parent_path());
  std::ofstream(measured, std::ios::binary) << got;
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (ha != hb || la != lb || !ha) {
      ADD_FAILURE() << file << " line " << line << " moved\n  committed: "
                    << (ha ? la : "<end>") << "\n  measured:  "
                    << (hb ? lb : "<end>") << "\nmeasured census: "
                    << measured.string();
      return;
    }
  }
}

// ------------------------------------------------------ frame-hop loop ----

/// Packet-sized ballast: every hop in the simulation moves a net::Packet
/// through an event closure.
struct Payload {
  unsigned char bytes[152] = {};
};

/// The simulator's per-frame event shape on a bare loop: deliver (carrying
/// the payload by value) arms a 200 ms guard and schedules arbitration 5 us
/// later; tx_done follows after 9 us, cancels the guard (the tcp.rto /
/// probe.timeout pattern) and schedules the next deliver after 86 us. Each
/// round runs `chains` chains of `hops[r]` hops on one loop and counts its
/// heap allocations.
std::vector<std::uint64_t> FrameHopAllocations(int chains,
                                               const std::vector<int>& hops) {
  struct Chain {
    sim::EventLoop* loop = nullptr;
    int remaining = 0;
    sim::EventId guard = 0;
    Payload in_flight;
    void Deliver(const Payload& payload) {
      in_flight = payload;
      in_flight.bytes[0] ^= static_cast<unsigned char>(remaining);
      guard = loop->ScheduleIn(sim::Millis(200), [this] { remaining = 0; });
      loop->ScheduleIn(sim::Micros(5), [this] { Arbitrate(); });
    }
    void Arbitrate() {
      loop->ScheduleIn(sim::Micros(9), [this] { TxDone(); });
    }
    void TxDone() {
      loop->Cancel(guard);
      if (--remaining <= 0) return;
      loop->ScheduleIn(sim::Micros(86),
                       [this, payload = in_flight] { Deliver(payload); });
    }
  };
  sim::EventLoop loop;
  std::vector<Chain> state(static_cast<std::size_t>(chains));
  std::vector<std::uint64_t> allocations(hops.size());
  for (std::size_t round = 0; round < hops.size(); ++round) {
    const std::uint64_t before = Allocations();
    for (Chain& chain : state) {
      chain.loop = &loop;
      chain.remaining = hops[round];
      loop.ScheduleIn(sim::Micros(1), [&chain] { chain.Deliver(Payload{}); });
    }
    loop.Run();
    allocations[round] = Allocations() - before;
  }
  return allocations;
}

// --------------------------------------------------- saturated channel ----

/// Closed-loop saturation: an AP with a downlink contender per access
/// category, two stations with bulk best-effort uplinks and a ping-pair
/// probe (one BE and one VO ICMP echo). Every delivered or retry-dropped
/// frame refills its contender (Packet::flow holds the contender's index),
/// so every queue stays at its prefill depth.
class SaturatedChannel {
 public:
  SaturatedChannel() : channel_(loop_, sim::Rng(0xC0FFEE)) {
    const auto deliver =
        wifi::Channel::DeliveryHandler::Member<&SaturatedChannel::OnDelivery>(
            this);
    const wifi::OwnerId ap = channel_.RegisterOwner(deliver);
    const wifi::OwnerId sta1 = channel_.RegisterOwner(deliver);
    const wifi::OwnerId sta2 = channel_.RegisterOwner(deliver);
    channel_.SetDropHandler(
        wifi::Channel::DropHandler::Member<&SaturatedChannel::OnRetryDrop>(
            this));
    using AC = wifi::AccessCategory;
    Add(ap, sta1, AC::kBackground, 1200, 0x20);
    Add(ap, sta1, AC::kBestEffort, 1200, 0x00);
    Add(ap, sta2, AC::kVideo, 1200, 0xa0);
    Add(ap, sta2, AC::kVoice, 200, 0xb8);
    Add(sta1, ap, AC::kBestEffort, 1200, 0x00);
    Add(sta2, ap, AC::kBestEffort, 1200, 0x00);
    Add(sta1, ap, AC::kBestEffort, 84, 0x00, net::Protocol::kIcmp);
    Add(sta1, ap, AC::kVoice, 84, 0xb8, net::Protocol::kIcmp);
    for (std::uint32_t i = 0; i < count_; ++i) {
      const bool probe =
          specs_[i].frame.packet.protocol == net::Protocol::kIcmp;
      for (int k = 0; k < (probe ? 2 : 32); ++k) Refill(i);
    }
  }

  void RunFor(sim::Duration d) { loop_.RunFor(d); }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t retry_drops() const { return retry_drops_; }
  [[nodiscard]] std::uint64_t collisions() const {
    return channel_.collisions();
  }

 private:
  struct Spec {
    wifi::ContenderId id = 0;
    wifi::Frame frame;  ///< the template every refill enqueues.
  };

  void Add(wifi::OwnerId owner, wifi::OwnerId dest, wifi::AccessCategory ac,
           std::int32_t size_bytes, std::uint8_t tos,
           net::Protocol protocol = net::Protocol::kUdp) {
    Spec& spec = specs_[count_];
    spec.id = channel_.CreateContender(
        owner, ac, wifi::DefaultEdcaParams()[wifi::Index(ac)], 64);
    spec.frame.dest = dest;
    spec.frame.phy_rate_bps = 120'000'000;
    spec.frame.packet.size_bytes = size_bytes;
    spec.frame.packet.tos = tos;
    spec.frame.packet.flow = count_++;
    spec.frame.packet.protocol = protocol;
  }
  void Refill(std::uint32_t i) {
    channel_.Enqueue(specs_[i].id, wifi::Frame(specs_[i].frame));
  }
  void OnDelivery(wifi::Frame&& frame) {
    ++delivered_;
    Refill(frame.packet.flow);
  }
  void OnRetryDrop(const wifi::Frame& frame) {
    ++retry_drops_;
    Refill(frame.packet.flow);
  }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  Spec specs_[8];
  std::uint32_t count_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t retry_drops_ = 0;
};

// ------------------------------------------------------ tcp receive ----

/// One round of the TCP receive kernel.
struct TcpReceiveRound {
  std::int64_t segments = 0;      ///< delivered in order, all flows.
  std::uint64_t out_of_order = 0; ///< arrivals buffered above a hole.
  std::uint64_t allocations = 0;  ///< heap allocations in the round.
};

/// Six Reno bulk flows from wired servers to one station whose frames are
/// lost with probability `kFrameError` per attempt, so AP queue overflow and
/// retry drops leave holes and segments arrive out of order. Runs `rounds`
/// rounds of one simulated second each.
std::vector<TcpReceiveRound> TcpReceiveRounds(int rounds) {
  constexpr double kFrameError = 0.1;
  scenario::Testbed testbed;
  scenario::Bss& bss = testbed.AddBss({});
  wifi::Station& station =
      bss.AddStation(testbed.NextStationAddress(), 65'000'000, kFrameError);
  testbed.InstallStationErrorModel();
  const std::vector<scenario::CrossFlow*> flows =
      testbed.AddTcpBulkFlows(bss, station, 6);
  // Registered after the flows' receivers, so it runs after them: an
  // arrival above the cumulative ACK its receiver just sent was buffered.
  std::uint64_t out_of_order = 0;
  station.AddReceiver([&](const net::Packet& p, sim::Time) {
    for (const scenario::CrossFlow* flow : flows) {
      if (flow->flow == p.flow &&
          p.tcp.seq > flow->receiver->segments_received()) {
        ++out_of_order;
      }
    }
  });
  const auto segments = [&] {
    std::int64_t total = 0;
    for (const scenario::CrossFlow* flow : flows) {
      total += flow->receiver->segments_received();
    }
    return total;
  };
  testbed.StartCrossTraffic();
  std::vector<TcpReceiveRound> out(static_cast<std::size_t>(rounds));
  for (TcpReceiveRound& round : out) {
    const std::uint64_t allocations = Allocations();
    const std::int64_t segments_before = segments();
    const std::uint64_t out_of_order_before = out_of_order;
    testbed.loop().RunFor(sim::Seconds(1));
    round.allocations = Allocations() - allocations;
    round.segments = segments() - segments_before;
    round.out_of_order = out_of_order - out_of_order_before;
  }
  return out;
}

// ---------------------------------------------------------- the census ----

TEST(Census, ScenarioGrid) {
  std::vector<fs::path> cells;
  for (const auto& entry : fs::directory_iterator(KWIKR_GOLDEN_DIR)) {
    if (entry.path().extension() == ".scenario") cells.push_back(entry.path());
  }
  std::sort(cells.begin(), cells.end());
  ASSERT_FALSE(cells.empty());
  std::string census =
      "# scenario_grid: per-type event dispatches and per-AC AP deliveries "
      "of every tests/golden cell\n";
  for (const fs::path& cell : cells) {
    scenario::FaultScenario parsed;
    std::string error;
    ASSERT_TRUE(scenario::ParseFaultScenario(ReadFile(cell), &parsed, &error))
        << cell << ": " << error;
    parsed.experiment.profile_loop = true;
    scenario::FaultScenarioArtifacts artifacts;
    scenario::RunFaultScenario(parsed, &artifacts);
    for (const auto& row : artifacts.registry.Snapshot()) {
      if (row.name != "sim_events_total" && row.name != "ap_delivered_total") {
        continue;
      }
      census += cell.stem().string() + " " + row.name;
      for (const auto& [key, value] : row.labels) {
        census += "{" + key + "=" + value + "}";
      }
      census += " " + std::to_string(row.counter_value) + "\n";
    }
  }
  ExpectCensus("scenario_grid.census", census);
}

std::string WildCensus(const char* name, int environments, int seconds) {
  scenario::WildConfig config;
  config.base_seed = 1010;
  config.jobs = 1;
  config.call_duration = sim::Seconds(seconds);
  std::string census = std::string("# ") + name +
                       ": RunWildRange at seed 1010, environments 0-" +
                       std::to_string(environments - 1) + " x " +
                       std::to_string(seconds) + " s\n";
  scenario::RunWildRange(
      config, 0, static_cast<std::uint64_t>(environments),
      [&](std::uint64_t index, scenario::WildCallResult&& result) {
        census += "env " + std::to_string(index) + " events_executed " +
                  std::to_string(result.events_executed) + " probe_samples " +
                  std::to_string(result.probe_samples) + "\n";
      });
  return census;
}

TEST(Census, WildFig10) {
  ExpectCensus("wild_fig10.census", WildCensus("wild_fig10", 8, 15));
}

TEST(Census, Fleet1s) {
  ExpectCensus("fleet_1s.census", WildCensus("fleet_1s", 24, 1));
}

TEST(Census, Kernels) {
  std::string census =
      "# kernels: the saturated 4-AC channel over 10 s after a 500 ms "
      "warm-up, and the heap allocations of 1400-hop rounds of 4 sparse "
      "frame-hop chains\n";
  SaturatedChannel channel;
  channel.RunFor(sim::Millis(500));
  const std::uint64_t warm = channel.delivered();
  const std::uint64_t allocations = Allocations();
  channel.RunFor(sim::Seconds(10));
  EXPECT_EQ(Allocations() - allocations, 0u)
      << "saturated_channel: heap allocations in 10 s after warm-up";
  census += "saturated_channel frames " +
            std::to_string(channel.delivered() - warm) + " collisions " +
            std::to_string(channel.collisions()) + " retry_drops " +
            std::to_string(channel.retry_drops()) + "\n";
  const std::vector<std::uint64_t> rounds =
      FrameHopAllocations(4, std::vector<int>(8, 1400));
  for (std::size_t round = 1; round < rounds.size(); ++round) {
    census += "sparse_frame_hop round " + std::to_string(round + 1) +
              " allocations " + std::to_string(rounds[round]) + "\n";
  }
  census +=
      "# tcp_receive: six Reno flows to one station losing 10% of frame "
      "attempts, in 1 s rounds after a 1 s warm-up\n";
  const std::vector<TcpReceiveRound> tcp = TcpReceiveRounds(12);
  for (std::size_t round = 1; round < tcp.size(); ++round) {
    census += "tcp_receive round " + std::to_string(round + 1) +
              " segments " + std::to_string(tcp[round].segments) +
              " out_of_order " + std::to_string(tcp[round].out_of_order) +
              " allocations " + std::to_string(tcp[round].allocations) + "\n";
  }
  ExpectCensus("kernels.census", census);
}

// ---------------------------------------------- zero-allocation paths ----

TEST(Census, FrameHopSteadyStateDoesNotAllocate) {
  // 128 chains after a 1400-hop warm-up: one hop advances 100 us, so the
  // warm-up spans the timer wheel's 134.2 ms horizon.
  EXPECT_EQ(FrameHopAllocations(128, {1400, 1000})[1], 0u)
      << "frame_hop: heap allocations in 1000 hops of 128 chains";
}

TEST(FlightRecorderTest, RecordDoesNotAllocate) {
  obs::FlightRecorder recorder(64);  // ring preallocated here.
  const std::uint64_t before = Allocations();
  for (int i = 0; i < 1000; ++i) {
    recorder.Record(sim::Millis(i), obs::FlightEventKind::kQdiscAqmDrop,
                    /*tag=*/2, static_cast<std::uint64_t>(i), "detail");
  }
  EXPECT_EQ(Allocations(), before) << "flight_recorder: heap allocations";
  EXPECT_EQ(recorder.recorded(), 1000u);
}

}  // namespace
}  // namespace kwikr
