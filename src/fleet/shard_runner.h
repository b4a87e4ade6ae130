#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fleet/checkpoint.h"
#include "obs/metrics.h"

namespace kwikr::fleet {

/// Shard runner: the spill-and-checkpoint layer above RunFleet.
///
/// RunFleet parallelizes one process across threads but holds every result
/// in RAM; a 10^6-call sweep is memory-bound long before it is CPU-bound.
/// The shard runner walks this invocation's slice of the population in
/// chunks (an explicit `--shard k/n` mode lets independent machines take
/// disjoint slices), streams each chunk's per-item results to spill files
/// as canonical JSONL instead of accumulating them, and checkpoints
/// progress so a killed sweep resumes from the last completed chunk. The
/// chunk function parallelizes a chunk across threads itself. Merging is
/// hierarchical — item chunk → shard spill → global — and every payload's
/// merge rule is order-free (results concatenate in index order, metrics
/// registries merge associatively/commutatively, timeline lines concatenate
/// in index order), so the merged artifacts are byte-identical for any
/// shard split and any thread count.

/// `--shard k/n`: this invocation owns global shard `index` of `count`.
struct ShardSpec {
  int index = 0;
  int count = 1;
};

struct ItemRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};

/// Contiguous, as-even-as-possible split of [0, total): part i of `parts`.
/// The first `total % parts` parts get one extra item. Concatenating the
/// parts in index order reconstructs [0, total) exactly, which is what
/// makes shard-major merge order equal global item order.
ItemRange PartitionItems(std::uint64_t total, int parts, int part);

/// What one chunk of items produced. Every payload must be deterministic in
/// the item indices alone (derive randomness via seed-forking on the global
/// index, exactly as RunFleet tasks do).
struct ChunkOutput {
  /// One canonical JSONL line per item, ascending index order. Each line
  /// must start with `{"call":<index>,` — the merge validates the sequence
  /// and a resumed run's bytes against it.
  std::string results_jsonl;
  /// obs::SerializeRegistry of a chunk-local registry (empty = no metrics).
  std::string metrics_jsonl;
  /// Sim-time timeline JSONL, index-stamped (empty = no timeline).
  std::string timeline_jsonl;
};
using ChunkFn = std::function<ChunkOutput(std::uint64_t begin,
                                          std::uint64_t end)>;

struct ShardRunnerConfig {
  std::uint64_t total_items = 0;  ///< global population, across all shards.
  ShardSpec shard;
  std::string spill_dir;
  /// Items per checkpoint chunk: the RAM high-water mark and the resume
  /// granularity. Results beyond the last completed chunk are re-run.
  std::uint64_t checkpoint_every = 256;
  bool resume = false;
  /// Config digest (see CheckpointManifest::fingerprint). Must be equal
  /// across the shard invocations of one sweep.
  std::string fingerprint;
};

struct ShardRunStatus {
  bool ok = false;
  std::string error;
  std::uint64_t items_done = 0;     ///< completed in this shard's spills.
  std::uint64_t items_resumed = 0;  ///< of those, skipped via checkpoints.
  std::uint64_t peak_rss_kb = 0;    ///< process VmHWM.
};

struct SpillPaths {
  std::string results;
  std::string metrics;
  std::string timeline;
  std::string manifest;
};
/// `<spill_dir>/shard{k}of{n}.{results,metrics,timeline}.jsonl` and
/// `.manifest.json`.
SpillPaths ShardSpillPaths(const std::string& spill_dir, ShardSpec shard);

class ShardRunner {
 public:
  ShardRunner(ShardRunnerConfig config, ChunkFn chunk_fn);

  /// Runs this invocation's shard as one chunk loop in this process,
  /// holding an exclusive lock on the shard's spill for the duration. A
  /// chunk that throws fails the run with its call range and a `--resume`
  /// hint; the checkpoints before it stay intact. Does NOT merge; call
  /// MergeShardSpills once every shard of the sweep is complete.
  ///
  /// `stop_after_chunks` simulates a kill at a chunk boundary (the resume
  /// tests' entry point): the runner checkpoints that many chunks and
  /// returns with ok=true but items_done < range size.
  ShardRunStatus Run(std::uint64_t stop_after_chunks = ~0ull);

 private:
  ShardRunnerConfig config_;
  ChunkFn chunk_fn_;
};

/// Hierarchical merge consumers. All optional; unset payloads are skipped.
struct MergeConsumer {
  /// Called once per item in ascending global index order.
  std::function<void(std::uint64_t index, std::string_view line)>
      on_result_line;
  /// Every shard's serialized chunk registries merge in here.
  obs::MetricsRegistry* metrics = nullptr;
  /// Timeline bytes, streamed in global index order.
  std::function<void(std::string_view)> on_timeline;
};

struct MergeStatus {
  bool ok = false;
  /// ok && !complete: nothing is wrong, but some shard has not finished
  /// (cluster mode — another machine still owns it). `error` says which.
  bool complete = false;
  std::string error;
  std::uint64_t items = 0;
  std::uint64_t peak_rss_kb = 0;  ///< max over the shards' manifests.
};

/// Merges every shard's spill files in `config.spill_dir` into the
/// consumers, validating manifests (fingerprint, ranges, completion) and
/// spill integrity (byte counts, line boundaries, the per-line index
/// sequence) along the way. Byte-identical output for any shard split of
/// the same fingerprinted sweep.
MergeStatus MergeShardSpills(const ShardRunnerConfig& config,
                             const MergeConsumer& consumer);

}  // namespace kwikr::fleet
