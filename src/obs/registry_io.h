#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace kwikr::obs {

/// Lossless registry serialization for cross-process merge.
///
/// PrometheusText is a human/export format: it rounds doubles and flattens
/// histogram sketches into quantile summaries, so a registry cannot be
/// reconstructed from it. The shard runner needs the opposite — a worker
/// process serializes its chunk-local registry into its spill file and the
/// parent rebuilds and merges it exactly, so the merged export is
/// byte-identical to what an in-process merge of the same registries would
/// have produced.
///
/// Format: canonical JSONL, one instrument per line in Snapshot order
/// (sorted by (name, labels)). Doubles use %.17g, which round-trips every
/// finite double exactly through strtod, and a gauge's unset sentinel is
/// preserved via "set":false. Histograms carry their full state (binning,
/// count, exact min/max, sparse non-zero bins), so merging a parsed
/// histogram is the same bin-add the in-process merge performs.
std::string SerializeRegistry(const MetricsRegistry& registry);

/// Parses one SerializeRegistry line and merges the instrument into `into`
/// under the registry merge rules (counter add, gauge max, histogram
/// bin-add). Returns false — with `*error` set, `into` untouched by the bad
/// line — on any malformed input; a spill line that fails here must be
/// treated as corruption, never skipped.
bool MergeSerializedRegistryLine(std::string_view line, MetricsRegistry* into,
                                 std::string* error);

/// MergeSerializedRegistryLine over every '\n'-separated line (empty lines
/// rejected — canonical output never contains them).
bool MergeSerializedRegistry(std::string_view jsonl, MetricsRegistry* into,
                             std::string* error);

}  // namespace kwikr::obs
