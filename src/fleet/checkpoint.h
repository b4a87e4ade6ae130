#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace kwikr::fleet {

/// Per-shard checkpoint manifest: the durable record of how far a shard has
/// progressed and how many spill bytes that progress covers.
///
/// Written atomically (tmp + rename) after every flushed chunk, so at any
/// kill point the manifest describes a prefix of the spill files that ends
/// on a chunk boundary. Resume truncates the spills to the recorded byte
/// offsets and continues from `completed`; anything past the offsets (torn
/// lines from the killed chunk) is dropped and re-run.
struct CheckpointManifest {
  /// Digest of everything that shapes per-item results (seed, item count,
  /// scenario parameters, shard count, which payloads are enabled...).
  /// Resume and merge refuse a manifest whose fingerprint disagrees — a
  /// checkpoint from a different sweep must never be silently continued.
  std::string fingerprint;
  int shard = 0;
  int shard_count = 1;
  std::uint64_t range_begin = 0;
  std::uint64_t range_end = 0;
  /// Next item index to run; `range_end` when the shard is finished.
  std::uint64_t completed = 0;
  std::uint64_t results_bytes = 0;
  std::uint64_t metrics_bytes = 0;
  std::uint64_t timeline_bytes = 0;
  /// Process VmHWM at the last checkpoint, for the flat-memory gate.
  std::uint64_t peak_rss_kb = 0;

  [[nodiscard]] bool done() const { return completed == range_end; }
};

/// One JSON line headed `{"version":2,...`. Version 1 manifests (which
/// also carried a worker index and process count) do not decode, so a spill
/// directory written before the format change is refused, never misread.
std::string EncodeCheckpointManifest(const CheckpointManifest& manifest);
bool DecodeCheckpointManifest(std::string_view text,
                              CheckpointManifest* manifest);

/// Write-tmp-then-rename so a kill mid-write leaves the previous manifest
/// intact. The spill files must be flushed *before* calling this — the
/// manifest is the commit record.
bool WriteCheckpointManifest(const std::string& path,
                             const CheckpointManifest& manifest,
                             std::string* error);

/// nullopt when the file does not exist; error set when it exists but does
/// not parse (a corrupt manifest is not resumable-from).
std::optional<CheckpointManifest> LoadCheckpointManifest(
    const std::string& path, bool* parse_failed, std::string* error);

}  // namespace kwikr::fleet
