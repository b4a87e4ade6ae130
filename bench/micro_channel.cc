// Frame-path microbenchmark: saturated EDCA contention plus a ping-pair
// probe driven through wifi::Channel, timing the devirtualized-hook /
// pooled-ring fast path end to end (enqueue -> contention -> airtime ->
// delivery -> refill). Global operator-new counting proves the steady-state
// frame cycle is allocation-free: after warmup, every ring, scratch vector
// and event-loop slot chunk sits at its high-water mark, so a single heap
// allocation during the measured phase fails the bench.
//
// Usage:
//   micro_channel [--quick] [--json FILE] [--baseline FILE]
//
// --json writes the BENCH_channel.json trajectory record (the mode:"burst"
// line). --baseline reads a previous record and exits non-zero when
// frames/sec regressed more than 20% against it — the perf gate wired into
// scripts/check.sh. --quick shrinks the simulated horizon for CI smoke
// runs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "bench_util.h"
#include "net/packet.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "wifi/channel.h"
#include "wifi/edca.h"

// ------------------------------------------------- allocation accounting ----
// Global new/delete overrides count every heap allocation in the process so
// the bench can prove the frame enqueue/dispatch cycle is allocation-free.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc{};
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace kwikr {
namespace {

// --------------------------------------------------------------- workload ----

/// Closed-loop saturation harness: one AP with a downlink contender per
/// access category, two stations with bulk best-effort uplinks, and the
/// paper's ping-pair probe (one BE + one VO contender carrying small ICMP
/// echoes). Every delivered or retry-dropped frame immediately refills its
/// source contender, so every queue stays at its prefill depth forever —
/// the sustained-contention regime the fig10 scenarios spend their time in.
/// Packet::flow carries the source-contender index so one delivery handler
/// serves every owner.
class Harness {
 public:
  Harness() : channel_(loop_, sim::Rng(0xC0FFEE)) {
    const auto handler =
        wifi::Channel::DeliveryHandler::Member<&Harness::OnDelivery>(this);
    const wifi::OwnerId ap = channel_.RegisterOwner(handler);
    const wifi::OwnerId sta1 = channel_.RegisterOwner(handler);
    const wifi::OwnerId sta2 = channel_.RegisterOwner(handler);
    channel_.SetDropHandler(
        wifi::Channel::DropHandler::Member<&Harness::OnRetryDrop>(this));

    const auto edca = wifi::DefaultEdcaParams();
    // AP downlink: all four WMM access categories contend (bulk video-call
    // shape: fat BE/BK/VI frames, thin VO frames), split across stations.
    AddTx(ap, sta1, wifi::AccessCategory::kBackground, edca, 1200, 0x20);
    AddTx(ap, sta1, wifi::AccessCategory::kBestEffort, edca, 1200, 0x00);
    AddTx(ap, sta2, wifi::AccessCategory::kVideo, edca, 1200, 0xa0);
    AddTx(ap, sta2, wifi::AccessCategory::kVoice, edca, 200, 0xb8);
    // Station bulk uplinks (the self-congestion side of the paper).
    AddTx(sta1, ap, wifi::AccessCategory::kBestEffort, edca, 1200, 0x00);
    AddTx(sta2, ap, wifi::AccessCategory::kBestEffort, edca, 1200, 0x00);
    // Ping-pair probe from sta1: one BE echo and one VO echo, 84 bytes each
    // (64-byte ICMP payload + headers), the paper's probe shape.
    probe_begin_ = specs_count_;
    AddProbe(sta1, ap, wifi::AccessCategory::kBestEffort, edca, 0x00);
    AddProbe(sta1, ap, wifi::AccessCategory::kVoice, edca, 0xb8);

    // Prefill to a power-of-two depth: the rings allocate up to their
    // high-water mark here, during setup, and never again (refills are 1:1
    // with consumption, so depth never exceeds the prefill).
    for (std::uint32_t i = 0; i < specs_count_; ++i) {
      const std::size_t depth = i >= probe_begin_ ? 2 : 32;
      for (std::size_t k = 0; k < depth; ++k) Refill(i);
    }
  }

  void RunFor(sim::Duration d) { loop_.RunFor(d); }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t probe_delivered() const {
    return probe_delivered_;
  }
  [[nodiscard]] std::uint64_t executed() const { return loop_.executed(); }
  [[nodiscard]] std::uint64_t collisions() const {
    return channel_.collisions();
  }
  [[nodiscard]] std::uint64_t retry_drops() const { return retry_drops_; }
  [[nodiscard]] double busy_fraction() const {
    return channel_.BusyFraction();
  }

 private:
  struct TxSpec {
    wifi::ContenderId id = 0;
    /// Prebuilt refill frame: every refill of a spec enqueues the same
    /// shape, so the source keeps one template and clones it — the idiom
    /// real traffic sources use — instead of zero-initializing a fresh
    /// net::Packet per delivered frame.
    wifi::Frame frame;
  };

  void AddTx(wifi::OwnerId owner, wifi::OwnerId dest, wifi::AccessCategory ac,
             const std::array<wifi::EdcaParams, wifi::kNumAccessCategories>&
                 edca,
             std::int32_t size_bytes, std::uint8_t tos) {
    TxSpec& spec = specs_[specs_count_++];
    spec.id = channel_.CreateContender(owner, ac, edca[wifi::Index(ac)], 64);
    spec.frame.dest = dest;
    spec.frame.phy_rate_bps = 120'000'000;
    spec.frame.packet.size_bytes = size_bytes;
    spec.frame.packet.tos = tos;
    spec.frame.packet.flow = specs_count_ - 1;
  }

  void AddProbe(wifi::OwnerId owner, wifi::OwnerId dest,
                wifi::AccessCategory ac,
                const std::array<wifi::EdcaParams,
                                 wifi::kNumAccessCategories>& edca,
                std::uint8_t tos) {
    AddTx(owner, dest, ac, edca, 84, tos);
    specs_[specs_count_ - 1].frame.packet.protocol = net::Protocol::kIcmp;
  }

  void Refill(std::uint32_t spec_index) {
    const TxSpec& spec = specs_[spec_index];
    channel_.Enqueue(spec.id, wifi::Frame(spec.frame));
  }

  void OnDelivery(wifi::Frame&& frame) {
    ++delivered_;
    if (frame.packet.flow >= probe_begin_) ++probe_delivered_;
    Refill(frame.packet.flow);
  }

  void OnRetryDrop(const wifi::Frame& frame) {
    ++retry_drops_;
    Refill(frame.packet.flow);
  }

  sim::EventLoop loop_;
  wifi::Channel channel_;
  TxSpec specs_[8];
  std::uint32_t specs_count_ = 0;
  std::uint32_t probe_begin_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t probe_delivered_ = 0;
  std::uint64_t retry_drops_ = 0;
};

// ------------------------------------------------------------- reporting ----

/// Minimal scanner for `"key": <number>` in a flat JSON object — enough to
/// read back our own BENCH_channel.json without a JSON library.
double JsonNumber(const std::string& text, const char* key, double fallback) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) return fallback;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct Results {
  double frames_per_sec = 0;       ///< delivered frames per wall second.
  double events_per_sec = 0;       ///< loop events per wall second.
  double allocs_per_frame = 0;     ///< heap allocations per delivered frame.
  double probe_share = 0;          ///< probe fraction of delivered frames.
  double busy_fraction = 0;        ///< medium utilization (saturation proof).
  std::uint64_t frames = 0;
  std::uint64_t collisions = 0;
  std::uint64_t retry_drops = 0;
  double wall_ms = 0;
};

std::string ToJson(const Results& r, bool quick) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"micro_channel\",\"mode\":\"%s\","
      "\"frames\":%llu,\"frames_per_sec\":%.0f,\"events_per_sec\":%.0f,"
      "\"allocs_per_frame\":%.4f,\"probe_share\":%.4f,"
      "\"busy_fraction\":%.3f,\"collisions\":%llu,\"retry_drops\":%llu,"
      "\"wall_ms\":%.1f,\"peak_rss_kb\":%lu}\n",
      // The committed (non-quick) trajectory line is tagged with the
      // frame-path generation so regressions bisect cleanly: "burst" = TXOP
      // burst batching + shared airtime cache (vs "batched" = the SoA
      // EdcaCore sweeps, vs the retired per-contender "full").
      quick ? "quick" : "burst", static_cast<unsigned long long>(r.frames),
      r.frames_per_sec, r.events_per_sec, r.allocs_per_frame, r.probe_share,
      r.busy_fraction, static_cast<unsigned long long>(r.collisions),
      static_cast<unsigned long long>(r.retry_drops), r.wall_ms,
      bench::PeakRssKb());
  return buffer;
}

}  // namespace
}  // namespace kwikr

int main(int argc, char** argv) {
  using namespace kwikr;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ParseStringFlag(argc, argv, "--json");
  const char* baseline_path = bench::ParseStringFlag(argc, argv, "--baseline");

  bench::Header("Micro — wifi channel frame path",
                "Saturated multi-AC EDCA contention + ping-pair probe through "
                "wifi::Channel; proves the steady-state frame cycle is "
                "allocation-free.");

  // Warmup runs the closed loop long enough for every FrameRing, backlog
  // vector and event-loop slot chunk to reach its high-water mark; the
  // measured phase must then be allocation-free.
  const sim::Duration warmup = sim::Millis(500);
  const sim::Duration horizon =
      quick ? sim::Seconds(10) : sim::Seconds(120);
  const int reps = 3;

  Results best;
  bench::WallTimer total;
  // Best-of-N keeps the committed trajectory stable against scheduler noise
  // on loaded machines.
  for (int rep = 0; rep < reps; ++rep) {
    Harness harness;
    harness.RunFor(warmup);
    const std::uint64_t frames_before = harness.delivered();
    const std::uint64_t events_before = harness.executed();
    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    const auto begin = std::chrono::steady_clock::now();
    harness.RunFor(horizon);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
            .count();
    const std::uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t frames = harness.delivered() - frames_before;
    const double fps = static_cast<double>(frames) / seconds;
    if (fps > best.frames_per_sec) {
      best.frames_per_sec = fps;
      best.events_per_sec =
          static_cast<double>(harness.executed() - events_before) / seconds;
      best.allocs_per_frame =
          static_cast<double>(allocs) / static_cast<double>(frames);
      best.frames = frames;
      best.probe_share = static_cast<double>(harness.probe_delivered()) /
                         static_cast<double>(harness.delivered());
      best.busy_fraction = harness.busy_fraction();
      best.collisions = harness.collisions();
      best.retry_drops = harness.retry_drops();
    }
  }
  best.wall_ms = total.ElapsedMs();

  std::printf("frames    %12.0f frames/s (%llu frames, probe share %.3f)\n",
              best.frames_per_sec,
              static_cast<unsigned long long>(best.frames), best.probe_share);
  std::printf("events    %12.0f ev/s\n", best.events_per_sec);
  std::printf("medium    busy %.3f, %llu collisions, %llu retry drops\n",
              best.busy_fraction,
              static_cast<unsigned long long>(best.collisions),
              static_cast<unsigned long long>(best.retry_drops));
  std::printf("allocs/frame cycle: %.4f\n", best.allocs_per_frame);

  const std::string json = ToJson(best, quick);
  std::fputs(json.c_str(), stdout);
  if (json_path != nullptr) {
    if (std::FILE* out = std::fopen(json_path, "w")) {
      std::fputs(json.c_str(), out);
      std::fclose(out);
      std::printf("bench: wrote %s\n", json_path);
    } else {
      std::fprintf(stderr, "bench: cannot open %s\n", json_path);
      return 1;
    }
  }

  if (best.allocs_per_frame > 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state frame cycle allocated (%.4f "
                 "allocs/frame; expected 0)\n",
                 best.allocs_per_frame);
    return 1;
  }

  if (baseline_path != nullptr) {
    std::FILE* file = std::fopen(baseline_path, "r");
    if (file == nullptr) {
      std::fprintf(stderr, "bench: cannot read baseline %s\n", baseline_path);
      return 1;
    }
    std::string text;
    char chunk[512];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      text.append(chunk, n);
    }
    std::fclose(file);
    const double reference = JsonNumber(text, "frames_per_sec", 0.0);
    if (reference <= 0.0) {
      std::fprintf(stderr, "bench: baseline %s has no frames_per_sec\n",
                   baseline_path);
      return 1;
    }
    const double ratio = best.frames_per_sec / reference;
    std::printf("baseline: %.0f frames/s committed, measured %.0f frames/s "
                "(%.0f%%)\n",
                reference, best.frames_per_sec, ratio * 100.0);
    if (ratio < 0.8) {
      std::fprintf(stderr,
                   "FAIL: frames/sec regressed >20%% vs %s (%.2fx)\n",
                   baseline_path, ratio);
      return 1;
    }
  }
  return 0;
}
