#include "fleet/shard_runner.h"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <utility>

#include "fleet/spill.h"
#include "obs/registry_io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace kwikr::fleet {
namespace {

ShardRunStatus Fail(std::string message) {
  ShardRunStatus status;
  status.error = std::move(message);
  return status;
}

/// VmHWM of this process in kB (0 when /proc is unavailable), recorded in
/// every manifest for the flat-memory headline.
std::uint64_t PeakRssKb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  unsigned long kb = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb;
}

/// Validates that `line` is one complete result line for `expected` — the
/// `{"call":<expected>,` prefix ChunkFn promises — so a shuffled, stale, or
/// corrupt spill can never merge silently.
bool CheckResultLine(std::string_view line, std::uint64_t expected) {
  constexpr std::string_view kPrefix = "{\"call\":";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::size_t pos = kPrefix.size();
  std::uint64_t index = 0;
  const std::size_t digits_begin = pos;
  while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
    index = index * 10 + static_cast<std::uint64_t>(line[pos] - '0');
    ++pos;
  }
  if (pos == digits_begin || pos >= line.size() || line[pos] != ',') {
    return false;
  }
  return index == expected && line.back() == '\n';
}

/// Splits a chunk's results payload back into lines and checks the index
/// sequence [begin, end) — run right after ChunkFn so a producer bug is
/// caught before the bytes hit the spill.
bool CheckChunkResults(std::string_view results, std::uint64_t begin,
                       std::uint64_t end) {
  std::uint64_t expected = begin;
  std::size_t pos = 0;
  while (pos < results.size()) {
    std::size_t newline = results.find('\n', pos);
    if (newline == std::string_view::npos) return false;
    if (expected >= end ||
        !CheckResultLine(results.substr(pos, newline - pos + 1), expected)) {
      return false;
    }
    ++expected;
    pos = newline + 1;
  }
  return expected == end;
}

std::string RangeText(const ItemRange& range) {
  return "[" + std::to_string(range.begin) + ", " +
         std::to_string(range.end) + ")";
}

std::string ShardText(ShardSpec shard) {
  return std::to_string(shard.index) + "/" + std::to_string(shard.count);
}

/// Refuses a shard whose spill dir holds only the per-worker files that
/// predate manifest version 2: running or merging past them would silently
/// redo (or report pending forever) a sweep this version cannot read.
/// Empty when the shard has a current manifest or no old one.
std::string OldLayoutError(const std::string& spill_dir, ShardSpec shard) {
  const std::string stem = spill_dir + "/shard" + std::to_string(shard.index) +
                           "of" + std::to_string(shard.count);
  const std::string old_manifest = stem + "_worker0.manifest.json";
  std::error_code ec;
  if (std::filesystem::exists(stem + ".manifest.json", ec) ||
      !std::filesystem::exists(old_manifest, ec)) {
    return {};
  }
  return "shard " + ShardText(shard) + ": " + old_manifest +
         " is a per-worker spill layout that predates manifest version 2 — "
         "this version can neither resume nor merge it; rerun the sweep "
         "into a fresh spill dir";
}

/// Exclusive advisory lock on one shard's spill, held for the duration of
/// its chunk loop. Two live invocations must never append to the same
/// spill: a resumed run racing a still-running one would interleave lines
/// and corrupt the stream past repair. The kernel drops a flock when its
/// process dies — SIGKILL included — so a killed run can never wedge a
/// resume; a LIVE one makes the second run fail fast instead.
class ShardLock {
 public:
  ShardLock() = default;
  ~ShardLock() {
#if defined(__unix__) || defined(__APPLE__)
    if (fd_ >= 0) ::close(fd_);  // closing the fd releases the flock.
#endif
  }
  ShardLock(const ShardLock&) = delete;
  ShardLock& operator=(const ShardLock&) = delete;

  bool Acquire(const std::string& path, std::string* error) {
#if defined(__unix__) || defined(__APPLE__)
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      *error = "cannot open lock file " + path;
      return false;
    }
    if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
      ::close(fd_);
      fd_ = -1;
      *error = "spill is locked by another live run (" + path +
               ") — wait for it to exit before resuming";
      return false;
    }
#else
    (void)path;
    (void)error;
#endif
    return true;
  }

 private:
  int fd_ = -1;
};

}  // namespace

ItemRange PartitionItems(std::uint64_t total, int parts, int part) {
  const auto n = static_cast<std::uint64_t>(std::max(parts, 1));
  const auto i = static_cast<std::uint64_t>(std::clamp(part, 0, parts - 1));
  const std::uint64_t base = total / n;
  const std::uint64_t extra = total % n;
  ItemRange range;
  range.begin = i * base + std::min(i, extra);
  range.end = range.begin + base + (i < extra ? 1 : 0);
  return range;
}

SpillPaths ShardSpillPaths(const std::string& spill_dir, ShardSpec shard) {
  const std::string stem = spill_dir + "/shard" + std::to_string(shard.index) +
                           "of" + std::to_string(shard.count);
  SpillPaths paths;
  paths.results = stem + ".results.jsonl";
  paths.metrics = stem + ".metrics.jsonl";
  paths.timeline = stem + ".timeline.jsonl";
  paths.manifest = stem + ".manifest.json";
  return paths;
}

ShardRunner::ShardRunner(ShardRunnerConfig config, ChunkFn chunk_fn)
    : config_(std::move(config)), chunk_fn_(std::move(chunk_fn)) {}

ShardRunStatus ShardRunner::Run(std::uint64_t stop_after_chunks) {
  if (config_.spill_dir.empty()) return Fail("shard runner: no spill dir");
  if (config_.shard.count < 1 || config_.shard.index < 0 ||
      config_.shard.index >= config_.shard.count) {
    return Fail("shard runner: invalid --shard k/n");
  }
  const std::string where = "shard " + ShardText(config_.shard) + ": ";
  const ItemRange range = PartitionItems(
      config_.total_items, config_.shard.count, config_.shard.index);
  if (std::string old = OldLayoutError(config_.spill_dir, config_.shard);
      !old.empty()) {
    return Fail(std::move(old));
  }
  const SpillPaths paths = ShardSpillPaths(config_.spill_dir, config_.shard);

  ShardLock lock;
  std::string error;
  if (!lock.Acquire(paths.manifest + ".lock", &error)) {
    return Fail(where + error);
  }

  CheckpointManifest manifest;
  manifest.fingerprint = config_.fingerprint;
  manifest.shard = config_.shard.index;
  manifest.shard_count = config_.shard.count;
  manifest.range_begin = range.begin;
  manifest.range_end = range.end;
  manifest.completed = range.begin;

  if (config_.resume) {
    bool parse_failed = false;
    if (auto loaded =
            LoadCheckpointManifest(paths.manifest, &parse_failed, &error)) {
      if (loaded->fingerprint != config_.fingerprint) {
        return Fail(where + "checkpoint fingerprint mismatch (manifest '" +
                    loaded->fingerprint + "' vs run '" + config_.fingerprint +
                    "') — refusing to resume a different sweep's spill");
      }
      if (loaded->shard != config_.shard.index ||
          loaded->shard_count != config_.shard.count ||
          loaded->range_begin != range.begin ||
          loaded->range_end != range.end) {
        return Fail(where +
                    "checkpoint topology mismatch — resume must use the "
                    "same --shard split and population as the original run");
      }
      manifest = *loaded;
    } else if (parse_failed) {
      return Fail(error);
    }
    // No manifest at all: fall through and start this shard from scratch
    // (e.g. the run was killed before its first checkpoint).
  }
  const std::uint64_t resumed = manifest.completed - range.begin;

  // Open the spills truncated to exactly the checkpointed bytes. A torn or
  // corrupt trailing line from a killed chunk lies beyond these offsets and
  // is dropped here; its items re-run below. A file *shorter* than the
  // manifest fails instead (see TruncateSpillFile).
  SpillWriter results;
  SpillWriter metrics;
  SpillWriter timeline;
  if (!results.Open(paths.results, manifest.results_bytes, &error) ||
      !metrics.Open(paths.metrics, manifest.metrics_bytes, &error) ||
      !timeline.Open(paths.timeline, manifest.timeline_bytes, &error)) {
    return Fail(where + error);
  }
  // Commit the starting state (fresh runs: an empty manifest) so a kill at
  // any later point resumes against consistent offsets.
  manifest.peak_rss_kb = std::max(manifest.peak_rss_kb, PeakRssKb());
  if (!WriteCheckpointManifest(paths.manifest, manifest, &error)) {
    return Fail(where + error);
  }

  std::uint64_t chunks_done = 0;
  while (manifest.completed < range.end && chunks_done < stop_after_chunks) {
    const ItemRange chunk{
        manifest.completed,
        std::min(manifest.completed +
                     std::max<std::uint64_t>(config_.checkpoint_every, 1),
                 range.end)};
    ChunkOutput output;
    try {
      output = chunk_fn_(chunk.begin, chunk.end);
    } catch (const std::exception& e) {
      return Fail(where + "chunk " + RangeText(chunk) + " threw: " +
                  e.what() +
                  " — spill checkpoints are intact; rerun with --resume to "
                  "continue from call " +
                  std::to_string(chunk.begin));
    }
    if (!CheckChunkResults(output.results_jsonl, chunk.begin, chunk.end)) {
      return Fail(where + "chunk produced malformed result lines for " +
                  RangeText(chunk));
    }
    if (!results.Append(output.results_jsonl) ||
        !metrics.Append(output.metrics_jsonl) ||
        !timeline.Append(output.timeline_jsonl) || !results.Flush() ||
        !metrics.Flush() || !timeline.Flush()) {
      return Fail(where + "spill write failed (disk full?)");
    }
    manifest.completed = chunk.end;
    manifest.results_bytes = results.bytes();
    manifest.metrics_bytes = metrics.bytes();
    manifest.timeline_bytes = timeline.bytes();
    manifest.peak_rss_kb = std::max(manifest.peak_rss_kb, PeakRssKb());
    if (!WriteCheckpointManifest(paths.manifest, manifest, &error)) {
      return Fail(where + error);
    }
    ++chunks_done;
  }

  ShardRunStatus status;
  status.ok = true;
  status.items_done = manifest.completed - range.begin;
  status.items_resumed = resumed;
  status.peak_rss_kb = manifest.peak_rss_kb;
  return status;
}

MergeStatus MergeShardSpills(const ShardRunnerConfig& config,
                             const MergeConsumer& consumer) {
  MergeStatus status;
  auto fail = [&status](std::string message) -> MergeStatus& {
    status.ok = false;
    status.complete = false;
    status.error = std::move(message);
    return status;
  };
  auto pending = [&status](std::string message) -> MergeStatus& {
    status.ok = true;
    status.complete = false;
    status.error = std::move(message);
    return status;
  };

  std::uint64_t expected_index = 0;
  for (int shard = 0; shard < config.shard.count; ++shard) {
    const ShardSpec spec{shard, config.shard.count};
    const std::string where = "shard " + ShardText(spec);
    if (std::string old = OldLayoutError(config.spill_dir, spec);
        !old.empty()) {
      return fail("merge: " + std::move(old));
    }
    const SpillPaths paths = ShardSpillPaths(config.spill_dir, spec);
    bool parse_failed = false;
    std::string error;
    const auto manifest =
        LoadCheckpointManifest(paths.manifest, &parse_failed, &error);
    if (!manifest.has_value()) {
      if (parse_failed) return fail(error);
      return pending(where + " has no checkpoint yet — merge pending");
    }
    if (manifest->fingerprint != config.fingerprint) {
      return fail("merge: " + where +
                  " fingerprint mismatch — the spill dir holds a "
                  "different sweep's checkpoints");
    }
    const ItemRange range =
        PartitionItems(config.total_items, config.shard.count, shard);
    if (manifest->range_begin != range.begin ||
        manifest->range_end != range.end ||
        manifest->shard_count != config.shard.count) {
      return fail("merge: " + where +
                  " manifest range disagrees with the sweep topology");
    }
    if (!manifest->done()) {
      return pending(where + " is at call " +
                     std::to_string(manifest->completed) + " of " +
                     RangeText(range) + " — merge pending");
    }
    if (manifest->range_begin != expected_index) {
      return fail("merge: " + where + " starts at " +
                  std::to_string(manifest->range_begin) + ", expected " +
                  std::to_string(expected_index));
    }

    // Results: stream, validate the index sequence, hand lines over.
    if (!ForEachSpillLine(
            paths.results, manifest->results_bytes,
            [&](std::string_view line) {
              if (!CheckResultLine(line, expected_index)) return false;
              if (consumer.on_result_line) {
                consumer.on_result_line(expected_index, line);
              }
              ++expected_index;
              return true;
            },
            &error)) {
      return fail(error.empty()
                      ? ("merge: " + paths.results +
                         " holds a corrupt or out-of-sequence line near "
                         "call " + std::to_string(expected_index))
                      : error);
    }
    if (expected_index != range.end) {
      return fail("merge: " + paths.results + " holds " +
                  std::to_string(expected_index - range.begin) +
                  " calls, manifest promises " +
                  std::to_string(range.size()));
    }

    // Metrics: parse-merge each serialized chunk registry line.
    if (consumer.metrics != nullptr && manifest->metrics_bytes > 0) {
      if (!ForEachSpillLine(
              paths.metrics, manifest->metrics_bytes,
              [&](std::string_view line) {
                // Lines keep their '\n'; the codec takes the bare line.
                return obs::MergeSerializedRegistryLine(
                    line.substr(0, line.size() - 1), consumer.metrics,
                    &error);
              },
              &error)) {
        return fail("merge: " + paths.metrics + ": " + error);
      }
    }

    // Timeline: pure ordered concatenation (per-call lines are already
    // "call":N-stamped and internally (t)-ordered, so shard-major order
    // equals the (t, shard) stream-merge rule applied per call).
    if (consumer.on_timeline && manifest->timeline_bytes > 0) {
      if (!ForEachSpillChunk(paths.timeline, manifest->timeline_bytes,
                             consumer.on_timeline, &error)) {
        return fail("merge: " + paths.timeline + ": " + error);
      }
    }

    status.peak_rss_kb = std::max(status.peak_rss_kb, manifest->peak_rss_kb);
  }
  if (expected_index != config.total_items) {
    return fail("merge: shards cover " + std::to_string(expected_index) +
                " calls, sweep declares " +
                std::to_string(config.total_items));
  }
  status.ok = true;
  status.complete = true;
  status.items = expected_index;
  return status;
}

}  // namespace kwikr::fleet
