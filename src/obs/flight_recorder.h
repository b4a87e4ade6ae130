#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace kwikr::obs {

class ChromeTraceWriter;

/// What happened, for the bounded "recent history" ring a postmortem dumps.
/// Keep this enum stable and append-only — kind names are serialized into
/// postmortem files the fleet tooling diffs.
enum class FlightEventKind : std::uint8_t {
  kFrameDrop,         ///< AP downlink tail drop (contender ring full).
  kRetryDrop,         ///< MAC gave up after the retry limit.
  kUnroutableDrop,    ///< wired-side packet for a station this AP lacks.
  kQdiscAqmDrop,      ///< CoDel control law dropped from a standing queue.
  kQdiscOverflowDrop, ///< queue-discipline buffer full.
  kTcpRetransmit,     ///< fast or partial-ACK retransmission.
  kTcpTimeout,        ///< RTO fired.
  kProbeDiscard,      ///< ping-pair round discarded (Section 5.6 filters).
  kFaultTransition,   ///< injector event (GE burst, schedule toggle, ...).
};

/// Stable serialization name of a kind ("frame_drop", "tcp_retransmit", ...).
const char* Name(FlightEventKind kind);

/// One recorded event. POD on purpose: recording is a struct store into a
/// preallocated ring cell, never an allocation. `detail` must point at
/// static-storage text (the hook sites pass string literals or interned
/// fault names) or be null.
struct FlightEvent {
  sim::Time at = 0;
  FlightEventKind kind = FlightEventKind::kFrameDrop;
  std::uint8_t tag = 0;       ///< kind-specific small id (e.g. AC index).
  std::uint64_t value = 0;    ///< kind-specific payload (flow id, count, ...).
  const char* detail = nullptr;
};

/// Per-worker bounded ring of recent structured events — the "flight
/// recorder" an anomaly trigger freezes and dumps. One recorder serves one
/// event loop (single writer, no locks); the fleet pattern is one recorder
/// per worker task, exactly like worker-local metrics registries.
///
/// Cost model: components hold a `FlightRecorder*` that is null by default,
/// so a detached hook site is a single null check — 0 allocations, no time
/// read, nothing. An attached Record() is a struct store into the
/// preallocated ring (0 allocations per event; census_test proves it with
/// the operator-new counter, and its saturated-channel check keeps the frame
/// path honest).
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(std::size_t capacity = 512);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(sim::Time at, FlightEventKind kind, std::uint8_t tag = 0,
              std::uint64_t value = 0, const char* detail = nullptr) {
    if (frozen_) return;
    FlightEvent& cell = ring_[head_ & mask_];
    cell.at = at;
    cell.kind = kind;
    cell.tag = tag;
    cell.value = value;
    cell.detail = detail;
    ++head_;
    if (listener_) listener_(cell);
  }

  /// Stops accepting events (one-way). A postmortem freezes the recorder
  /// first so the dump captures the window *around* the trigger, not the
  /// churn that follows it.
  void Freeze() { frozen_ = true; }
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Total events offered while unfrozen (>= capacity means the ring
  /// wrapped and older events were overwritten).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// The retained window, oldest first.
  [[nodiscard]] std::vector<FlightEvent> Snapshot() const;

  /// Canonical JSONL, one `{"type":"flight",...}` object per retained
  /// event, oldest first. Deterministic: every field is sim-derived.
  [[nodiscard]] std::string ToJsonl() const;

  /// Chrome-trace export: one instant event ('i', category "flight") per
  /// retained event, oldest first, named by Name(kind) with `tag` and
  /// `value` args.
  void EmitInstants(ChromeTraceWriter& writer) const;

  /// Observer invoked synchronously on every recorded event (after the ring
  /// store). Used by PostmortemMonitor's storm detector; must not allocate
  /// per call if the attached path is to stay cheap. Set once, before
  /// recording starts.
  void SetListener(std::function<void(const FlightEvent&)> listener) {
    listener_ = std::move(listener);
  }

 private:
  std::vector<FlightEvent> ring_;
  std::uint64_t mask_ = 0;
  std::uint64_t head_ = 0;
  bool frozen_ = false;
  std::function<void(const FlightEvent&)> listener_;
};

}  // namespace kwikr::obs
