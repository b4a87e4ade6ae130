#pragma once

#include <string_view>

namespace kwikr::benchmark {

/// A metric as BENCHMARK.json declares it. `bound` is the share of the
/// parent's median by which an end-to-end metric may worsen before a change
/// counts as a regression; per-layer metrics have none. `self_test` checks
/// that BENCHMARK.json and these tables agree.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool higher_is_better = false;
  double bound = 0.0;
};

/// Measured with tracing off. The bounds are widened to the run-to-run
/// spread measured on a shared 4-vCPU Xeon VM (README "Noise"), where
/// timings drift by up to ~20% from one minute to the next. `setup_s` gets
/// the largest bound because process start-up jitters most.
inline constexpr MetricSpec kEndToEnd[] = {
    {"sim_speed", "call-s/s", true, 0.24},
    {"env_ms_p50", "ms", false, 0.24},
    {"env_ms_p90", "ms", false, 0.24},
    {"peak_rss_mb", "MB", false, 0.15},
    {"setup_s", "s", false, 0.25},
};

/// Measured by the separate traced run (`--trace 1`).
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.events_per_sim_s", "1/sim_s", false},
    {"sim.cpu_ns_per_event", "ns", false},
    {"kernel.sim.dispatch_ns", "ns", false},
    {"sim.events.wifi.arbitration_per_sim_s", "1/sim_s", false},
    {"sim.events.wifi.tx_done_per_sim_s", "1/sim_s", false},
    {"sim.events.wifi.txop_burst_per_sim_s", "1/sim_s", false},
    {"sim.events.wifi.deliver_per_sim_s", "1/sim_s", false},
    {"sim.events.wifi.qdisc_refill_per_sim_s", "1/sim_s", false},
    {"sim.events.net.wire_tx_per_sim_s", "1/sim_s", false},
    {"sim.events.net.wire_prop_per_sim_s", "1/sim_s", false},
    {"sim.events.net.token_drain_per_sim_s", "1/sim_s", false},
    {"sim.events.timer_per_sim_s", "1/sim_s", false},
    {"sim.events.tcp.rto_per_sim_s", "1/sim_s", false},
    {"sim.events.probe.timeout_per_sim_s", "1/sim_s", false},
    {"sim.events.fault.schedule_per_sim_s", "1/sim_s", false},
    {"sim.events.event_per_sim_s", "1/sim_s", false},
    {"wifi.txop_continuations_per_sim_s", "1/sim_s", true},
    {"wifi.collisions_per_sim_s", "1/sim_s", false},
    {"wifi.collision_frac", "ratio", false},
    {"wifi.ap_delivered_per_sim_s", "1/sim_s", true},
    {"wifi.ap_queue_drops_per_sim_s", "1/sim_s", false},
    {"wifi.ap_retry_drops_per_sim_s", "1/sim_s", false},
    {"kernel.wifi.frame_ns", "ns", false},
    {"wifi.qdisc_forwarded_per_sim_s", "1/sim_s", true},
    {"wifi.qdisc_aqm_drops_per_sim_s", "1/sim_s", false},
    {"wifi.qdisc_overflow_drops_per_sim_s", "1/sim_s", false},
    {"wifi.slow_delivery_frac", "ratio", false},
    {"faults.ge_losses_per_sim_s", "1/sim_s", false},
    {"faults.reordered_per_sim_s", "1/sim_s", false},
    {"faults.duplicated_per_sim_s", "1/sim_s", false},
    {"faults.dropped_per_sim_s", "1/sim_s", false},
    {"faults.wan_jitters_per_sim_s", "1/sim_s", false},
    {"faults.churn_switches_per_sim_s", "1/sim_s", false},
    {"transport.segments_acked_per_sim_s", "1/sim_s", true},
    {"transport.retransmissions_per_sim_s", "1/sim_s", false},
    {"transport.timeouts_per_sim_s", "1/sim_s", false},
    {"transport.useful_frac", "ratio", true},
    {"rtc.estimator_updates_per_sim_s", "1/sim_s", false},
    {"rtc.media_rx_packets_per_sim_s", "1/sim_s", true},
    {"kernel.rtc.ukf_update_ns", "ns", false},
    {"core.probe_rounds_per_sim_s", "1/sim_s", false},
    {"core.probe_valid_frac", "ratio", true},
    {"core.probe_discards.timeout_per_sim_s", "1/sim_s", false},
    {"core.probe_discards.wrong_order_per_sim_s", "1/sim_s", false},
    {"core.probe_discards.dual_divergence_per_sim_s", "1/sim_s", false},
    {"core.probe_discards.dual_gap_per_sim_s", "1/sim_s", false},
    {"obs.timeline_bytes_per_env", "B", false},
    {"obs.trace_overhead", "ratio", false},
    {"scenario.setup_ms_per_env", "ms", false},
    {"scenario.setup_share", "ratio", false},
    {"alloc.count_per_env_setup", "count", false},
    {"alloc.count_per_sim_s", "1/sim_s", false},
    {"alloc.bytes_per_sim_s", "B/sim_s", false},
};

}  // namespace kwikr::benchmark
