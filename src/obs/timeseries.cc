#include "obs/timeseries.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "obs/exporters.h"

namespace kwikr::obs {
namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// p-th percentile by nearest-rank over a small scratch copy — the monitor
/// windows are tens of samples, so a sort per sample is in the noise.
double WindowPercentile(const std::deque<double>& window, double p) {
  std::vector<double> scratch(window.begin(), window.end());
  std::sort(scratch.begin(), scratch.end());
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(scratch.size() - 1) + 0.5);
  return scratch[std::min(rank, scratch.size() - 1)];
}

}  // namespace

SeriesSampler::SeriesSampler(sim::EventLoop& loop, Config config)
    : loop_(loop),
      config_{config.interval, RoundUpPow2(config.capacity)},
      timer_(loop, config.interval, [this] { Tick(); }) {}

void SeriesSampler::AddProbe(std::string name, std::function<double()> probe) {
  Probe p;
  p.name = std::move(name);
  p.fn = std::move(probe);
  p.values.reserve(config_.capacity);
  probes_.push_back(std::move(p));
}

void SeriesSampler::Start() {
  if (started_) return;
  started_ = true;
  // First row at t=0 so sample i of a series sits at exactly i * stride.
  timer_.Start(/*initial_delay=*/0);
}

void SeriesSampler::Stop() {
  started_ = false;
  timer_.Stop();
}

void SeriesSampler::Tick() {
  const std::uint64_t tick = tick_++;
  if ((tick & (factor_ - 1)) != 0) return;  // decimated-away tick.
  for (Probe& probe : probes_) probe.values.push_back(probe.fn());
  ++rows_;
  if (rows_ == config_.capacity) Decimate();
  if (row_hook_) row_hook_();
}

void SeriesSampler::Decimate() {
  // Keep even indices: sample j was taken at tick j*factor, so the kept set
  // lands on multiples of the doubled factor and the next recorded tick
  // (capacity*factor, a power-of-two multiple) continues the even spacing.
  for (Probe& probe : probes_) {
    for (std::size_t j = 0; 2 * j < probe.values.size(); ++j) {
      probe.values[j] = probe.values[2 * j];
    }
    probe.values.resize((probe.values.size() + 1) / 2);
  }
  rows_ = (rows_ + 1) / 2;
  factor_ <<= 1;
  ++decimations_;
}

std::vector<SeriesSampler::Series> SeriesSampler::Snapshot() const {
  std::vector<Series> out;
  out.reserve(probes_.size());
  for (const Probe& probe : probes_) {
    out.push_back(Series{probe.name, probe.values});
  }
  return out;
}

std::string SeriesSampler::ToJsonl(std::int64_t call_index) const {
  std::string out;
  const double interval_ms = sim::ToMillis(config_.interval);
  const double stride_ms = sim::ToMillis(stride());
  for (const Probe& probe : probes_) {
    out += "{\"type\":\"series\"";
    if (call_index >= 0) {
      AppendF(&out, ",\"call\":%lld", static_cast<long long>(call_index));
    }
    AppendF(&out,
            ",\"name\":\"%s\",\"interval_ms\":%.3f,\"stride_ms\":%.3f,"
            "\"n\":%zu,\"decimations\":%d,\"values\":[",
            probe.name.c_str(), interval_ms, stride_ms, probe.values.size(),
            decimations_);
    for (std::size_t i = 0; i < probe.values.size(); ++i) {
      AppendF(&out, i == 0 ? "%.3f" : ",%.3f", probe.values[i]);
    }
    out += "]}\n";
  }
  return out;
}

void SeriesSampler::EmitCounters(ChromeTraceWriter& writer) const {
  const sim::Duration step = stride();
  for (const Probe& probe : probes_) {
    for (std::size_t i = 0; i < probe.values.size(); ++i) {
      writer.OnCounter(probe.name.c_str(), "timeline",
                       static_cast<sim::Time>(i) * step,
                       {{"value", probe.values[i]}});
    }
  }
}

PostmortemMonitor::PostmortemMonitor(sim::EventLoop& loop,
                                     SeriesSampler& sampler,
                                     FlightRecorder* recorder, Config config)
    : loop_(loop), sampler_(sampler), recorder_(recorder), config_(config) {
  if (recorder_ != nullptr && config_.retransmit_storm > 0) {
    recorder_->SetListener(
        [this](const FlightEvent& event) { OnFlightEvent(event); });
  }
}

void PostmortemMonitor::OnTqSample(double tq_ms) {
  if (triggered_ || config_.tq_p95_ms <= 0.0) return;
  tq_window_.push_back(tq_ms);
  while (tq_window_.size() > config_.tq_window) tq_window_.pop_front();
  if (tq_window_.size() < config_.tq_min_samples) return;
  const double p95 = WindowPercentile(tq_window_, 95.0);
  if (p95 > config_.tq_p95_ms) Trigger("tq_p95", p95, config_.tq_p95_ms);
}

void PostmortemMonitor::OnRateSample(double estimate_kbps,
                                     double target_kbps) {
  if (triggered_ || config_.divergence_factor <= 0.0) return;
  const double lo = std::min(estimate_kbps, target_kbps);
  const double hi = std::max(estimate_kbps, target_kbps);
  if (hi < config_.divergence_floor_kbps || lo <= 0.0) return;
  const double ratio = hi / lo;
  if (ratio > config_.divergence_factor) {
    Trigger("estimator_divergence", ratio, config_.divergence_factor);
  }
}

void PostmortemMonitor::OnFlightEvent(const FlightEvent& event) {
  if (triggered_ || event.kind != FlightEventKind::kTcpRetransmit) return;
  retransmits_.push_back(event.at);
  const sim::Time horizon = event.at - config_.storm_window;
  while (!retransmits_.empty() && retransmits_.front() < horizon) {
    retransmits_.pop_front();
  }
  if (retransmits_.size() >= config_.retransmit_storm) {
    Trigger("retransmit_storm", static_cast<double>(retransmits_.size()),
            static_cast<double>(config_.retransmit_storm));
  }
}

void PostmortemMonitor::Trigger(const char* reason, double value,
                                double threshold) {
  triggered_ = true;
  reason_ = reason;
  if (recorder_ != nullptr) recorder_->Freeze();
  AppendF(&dump_,
          "{\"type\":\"postmortem\",\"reason\":\"%s\",\"t_ms\":%.3f,"
          "\"value\":%.3f,\"threshold\":%.3f}\n",
          reason, sim::ToMillis(loop_.now()), value, threshold);
  if (recorder_ != nullptr) dump_ += recorder_->ToJsonl();
  dump_ += sampler_.ToJsonl();
}

}  // namespace kwikr::obs
