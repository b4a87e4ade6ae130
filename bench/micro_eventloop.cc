// Event-loop microbenchmark: schedule/cancel/dispatch throughput of the
// allocation-free scheduler (sim::EventLoop) on workloads whose event
// closures capture a Packet-sized payload by value, the shape that dominates
// the simulation's hot path.
//
// Usage:
//   micro_eventloop [--quick] [--json FILE] [--baseline FILE]
//
// --json writes a single JSON object (the BENCH_eventloop.json trajectory
// record). --baseline reads a previous record and exits non-zero when
// events/sec regressed more than 20% against it — the perf gate wired into
// scripts/check.sh. --quick shrinks the workload for CI smoke runs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/event_loop.h"
#include "sim/time.h"

// ------------------------------------------------- allocation accounting ----
// Global new/delete overrides count every heap allocation in the process so
// the bench can prove the dispatch path is allocation-free.

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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kwikr {
namespace {

// -------------------------------------------------------------- workloads ----

/// Packet-sized ballast: every hop in the real simulation moves a ~168-byte
/// net::Packet through an event closure.
struct Payload {
  unsigned char bytes[152] = {};
};

std::uint64_t g_sink = 0;

/// Self-rescheduling "frame hop" chain mirroring the simulator's per-packet
/// event sequence: a deliver event carries the Payload by value (the
/// net.wire_prop / wifi.deliver shape), which triggers small [this]-capture
/// control events (wifi.arbitration / wifi.tx_done shape), and every hop
/// arms a guard timer that is disarmed before it fires (the tcp.rto /
/// probe.timeout pattern — TCP cancels and re-arms its RTO on every ACK).
/// Runs `chains` concurrent chains of `hops` frame hops each; returns
/// dispatched events/sec (3 events run per hop; the guard never runs).
double DispatchThroughput(int chains, int hops, std::uint64_t* allocations) {
  sim::EventLoop loop;
  struct Chain {
    sim::EventLoop* loop;
    int remaining;
    sim::EventId guard = 0;
    void Deliver(Payload payload) {
      g_sink += payload.bytes[0];
      payload.bytes[0] ^= static_cast<unsigned char>(remaining);
      guard = loop->ScheduleIn(sim::Millis(50), [this] { g_sink += 1; });
      loop->ScheduleIn(sim::Micros(5), [this] { Arbitrate(); });
      // The frame rides the chain state while "on the air", like the wifi
      // channel's in-flight burst queue.
      in_flight = payload;
    }
    void Arbitrate() {
      loop->ScheduleIn(sim::Micros(9), [this] { TxDone(); });
    }
    void TxDone() {
      loop->Cancel(guard);
      g_sink += in_flight.bytes[1];
      if (--remaining <= 0) return;
      loop->ScheduleIn(sim::Micros(86),
                       [this, payload = in_flight] { Deliver(payload); });
    }
    Payload in_flight{};
  };
  static_assert(sim::InlineTask::fits_inline<
                decltype([c = static_cast<Chain*>(nullptr),
                          p = Payload{}] { c->Deliver(p); })>);

  std::vector<Chain> state(static_cast<std::size_t>(chains));
  // Warmup: one untimed round primes the scheduler's capacities so the
  // measured phase is steady-state. The loop needs a full L1 wheel
  // revolution (134.2 ms of simulated time; a hop advances 100 us, so 1400
  // hops) before every L1 bucket has seen its high-water guard-tombstone
  // fill — shorter warmups leave bucket vectors growing (allocating) inside
  // the measured phase.
  const int warmup_hops = 1'400;
  for (auto& chain : state) {
    chain = Chain{&loop, warmup_hops};
    loop.ScheduleIn(sim::Micros(1), [&chain] { chain.Deliver(Payload{}); });
  }
  loop.Run();

  for (auto& chain : state) {
    chain = Chain{&loop, hops};
    loop.ScheduleIn(sim::Micros(1), [&chain] { chain.Deliver(Payload{}); });
  }
  const std::uint64_t executed_before = loop.executed();
  const std::uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto begin = std::chrono::steady_clock::now();
  loop.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  *allocations = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  const auto events =
      static_cast<double>(loop.executed() - executed_before);
  return events / seconds;
}

/// Timeout churn: schedule batches of guard timers and cancel most before
/// they fire — the ping-pair / TCP-RTO pattern that hammers Cancel. Returns
/// scheduler operations (schedule + cancel + dispatch) per second.
double CancelChurnThroughput(int rounds, int batch) {
  sim::EventLoop loop;
  std::vector<sim::EventId> ids;
  ids.reserve(static_cast<std::size_t>(batch));
  std::uint64_t ops = 0;
  const auto begin = std::chrono::steady_clock::now();
  for (int r = 0; r < rounds; ++r) {
    ids.clear();
    for (int i = 0; i < batch; ++i) {
      ids.push_back(loop.ScheduleIn(sim::Micros(10 + i), [] { ++g_sink; }));
      ++ops;
    }
    // Cancel 3 of every 4 (timeouts almost always get disarmed).
    for (int i = 0; i < batch; ++i) {
      if (i % 4 != 3) {
        loop.Cancel(ids[static_cast<std::size_t>(i)]);
        ++ops;
      }
    }
    loop.Run();
    ops += static_cast<std::uint64_t>(batch) / 4;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return static_cast<double>(ops) / seconds;
}

/// Dispatch throughput with an attached probe (the
/// observability tax measured by obs_test stays visible in the trajectory).
class CountingProbe : public sim::EventLoopProbe {
 public:
  void OnExecuted(const char*, sim::Time) override { ++count_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

double ProbedDispatchThroughput(int chains, int hops) {
  sim::EventLoop loop;
  CountingProbe probe;
  loop.SetProbe(&probe);
  struct Chain {
    sim::EventLoop* loop;
    int remaining;
    void Hop(Payload payload) {
      g_sink += payload.bytes[0];
      if (--remaining <= 0) return;
      loop->ScheduleIn(sim::Micros(100), [this, payload] { Hop(payload); });
    }
  };
  std::vector<Chain> state(static_cast<std::size_t>(chains));
  for (auto& chain : state) {
    chain = Chain{&loop, hops};
    loop.ScheduleIn(sim::Micros(1), [&chain] { chain.Hop(Payload{}); });
  }

  const auto begin = std::chrono::steady_clock::now();
  loop.Run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return static_cast<double>(probe.count()) / seconds;
}

// ------------------------------------------------------------- reporting ----

/// Minimal scanner for `"key": <number>` in a flat JSON object — enough to
/// read back our own BENCH_eventloop.json without a JSON library.
double JsonNumber(const std::string& text, const char* key, double fallback) {
  const std::string needle = std::string("\"") + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return fallback;
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) return fallback;
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct Results {
  int dispatch_events = 0;
  double events_per_sec = 0;
  double probe_events_per_sec = 0;
  double cancel_ops_per_sec = 0;
  double dispatch_allocs_per_event = 0;
  double wall_ms = 0;
};

std::string ToJson(const Results& r, bool quick) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"micro_eventloop\",\"mode\":\"%s\","
      "\"scheduler\":\"wheel\",\"dispatch_events\":%d,"
      "\"events_per_sec\":%.0f,\"probe_events_per_sec\":%.0f,"
      "\"cancel_ops_per_sec\":%.0f,\"dispatch_allocs_per_event\":%.4f,"
      "\"wall_ms\":%.1f,\"peak_rss_kb\":%lu}\n",
      quick ? "quick" : "full", r.dispatch_events, r.events_per_sec,
      r.probe_events_per_sec, r.cancel_ops_per_sec,
      r.dispatch_allocs_per_event, r.wall_ms, bench::PeakRssKb());
  return buffer;
}

}  // namespace
}  // namespace kwikr

int main(int argc, char** argv) {
  using namespace kwikr;
  const bool quick = bench::HasFlag(argc, argv, "--quick");
  const char* json_path = bench::ParseStringFlag(argc, argv, "--json");
  const char* baseline_path = bench::ParseStringFlag(argc, argv, "--baseline");

  bench::Header("Micro — event loop",
                "Schedule/cancel/dispatch throughput of the allocation-free "
                "scheduler.");

  // 1024 concurrent chains keeps ~1k events pending: a stress population
  // about ten times what the simulation reaches. Each environment runs its
  // own loop, and one pass of each benchmark workload at seed 1010 peaked at
  // 105 / 89 / 66 pending timers on wild_fig10 / scenario_grid / fleet_1s
  // (DESIGN.md §14). Heap depth and cache footprint — not just per-op
  // constants — shape the scheduler's cost, so the bench measures the loop
  // well above that range.
  const int chains = 1'024;
  const int hops = quick ? 125 : 1'000;
  const int churn_rounds = quick ? 400 : 4'000;
  const int churn_batch = 256;
  const int reps = 3;
  // Each frame hop dispatches 3 events (deliver, arbitrate, tx-done); the
  // guard timer is always cancelled before firing.
  const int dispatched = 3 * chains * hops;

  Results best;
  best.dispatch_events = dispatched;
  bench::WallTimer total;
  // Best-of-N keeps the committed trajectory stable against scheduler noise
  // on loaded machines.
  for (int rep = 0; rep < reps; ++rep) {
    std::uint64_t allocs = 0;
    const double eps = DispatchThroughput(chains, hops, &allocs);
    if (eps > best.events_per_sec) {
      best.events_per_sec = eps;
      best.dispatch_allocs_per_event =
          static_cast<double>(allocs) / dispatched;
    }
    best.probe_events_per_sec = std::max(
        best.probe_events_per_sec, ProbedDispatchThroughput(chains, hops));
    best.cancel_ops_per_sec =
        std::max(best.cancel_ops_per_sec,
                 CancelChurnThroughput(churn_rounds, churn_batch));
  }
  best.wall_ms = total.ElapsedMs();

  std::printf("dispatch  %12.0f ev/s\n", best.events_per_sec);
  std::printf("probed    %12.0f ev/s\n", best.probe_events_per_sec);
  std::printf("cancel    %12.0f op/s\n", best.cancel_ops_per_sec);
  std::printf("allocs/dispatched event: %.4f\n",
              best.dispatch_allocs_per_event);

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

  if (best.dispatch_allocs_per_event > 0.0) {
    std::fprintf(stderr,
                 "FAIL: dispatch path allocated (%.4f allocs/event; "
                 "expected 0)\n",
                 best.dispatch_allocs_per_event);
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
    const double reference = JsonNumber(text, "events_per_sec", 0.0);
    if (reference <= 0.0) {
      std::fprintf(stderr, "bench: baseline %s has no events_per_sec\n",
                   baseline_path);
      return 1;
    }
    const double ratio = best.events_per_sec / reference;
    std::printf("baseline: %.0f ev/s committed, measured %.0f ev/s "
                "(%.0f%%)\n",
                reference, best.events_per_sec, ratio * 100.0);
    if (ratio < 0.8) {
      std::fprintf(stderr,
                   "FAIL: events/sec regressed >20%% vs %s (%.2fx)\n",
                   baseline_path, ratio);
      return 1;
    }
  }
  return 0;
}
