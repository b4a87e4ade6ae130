#include "obs/flight_recorder.h"

#include <cstdio>

#include "obs/exporters.h"

namespace kwikr::obs {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* Name(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kFrameDrop:
      return "frame_drop";
    case FlightEventKind::kRetryDrop:
      return "retry_drop";
    case FlightEventKind::kUnroutableDrop:
      return "unroutable_drop";
    case FlightEventKind::kQdiscAqmDrop:
      return "qdisc_aqm_drop";
    case FlightEventKind::kQdiscOverflowDrop:
      return "qdisc_overflow_drop";
    case FlightEventKind::kTcpRetransmit:
      return "tcp_retransmit";
    case FlightEventKind::kTcpTimeout:
      return "tcp_timeout";
    case FlightEventKind::kProbeDiscard:
      return "probe_discard";
    case FlightEventKind::kFaultTransition:
      return "fault_transition";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(RoundUpPow2(capacity)), mask_(ring_.size() - 1) {}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> out;
  const std::uint64_t retained =
      head_ < ring_.size() ? head_ : static_cast<std::uint64_t>(ring_.size());
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = head_ - retained; i < head_; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

std::string FlightRecorder::ToJsonl() const {
  std::string out;
  char buf[192];
  for (const FlightEvent& e : Snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"type\":\"flight\",\"t_ms\":%.3f,\"kind\":\"%s\","
                  "\"tag\":%u,\"value\":%llu",
                  sim::ToMillis(e.at), Name(e.kind),
                  static_cast<unsigned>(e.tag),
                  static_cast<unsigned long long>(e.value));
    out += buf;
    if (e.detail != nullptr) {
      out += ",\"detail\":\"";
      out += JsonEscape(e.detail);
      out += '"';
    }
    out += "}\n";
  }
  return out;
}

void FlightRecorder::EmitInstants(ChromeTraceWriter& writer) const {
  for (const FlightEvent& e : Snapshot()) {
    writer.OnInstant(Name(e.kind), "flight", e.at,
                     {{"tag", static_cast<double>(e.tag)},
                      {"value", static_cast<double>(e.value)}});
  }
}

}  // namespace kwikr::obs
