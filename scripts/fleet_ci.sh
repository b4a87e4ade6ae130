#!/usr/bin/env bash
# Fleet-determinism gate (CI's fleet-determinism job runs exactly this):
# proves the shard runner's two headline claims on a mid-size sweep of the
# real fig10 wild-population scenario.
#
#   1. Split invariance — one 600-call sweep, three topologies:
#        --jobs 1 x 1 shard   (the reference)
#        --jobs 4 x 2 shards  (two invocations against one spill dir —
#                              the cluster shape; the first merge reports
#                              "pending", the second completes it)
#        --jobs 8 x 1 shard
#      All three must merge to byte-identical percentiles.json,
#      metrics.prom, and timeline.jsonl.
#   2. Crash durability — SIGKILL the sweep mid-run, rerun with --resume,
#      and require the merged artifacts to be byte-identical to the
#      uninterrupted reference.
#
# Merged artifacts and the BENCH_fleet.json headline land in $ARTIFACT_DIR
# (default fleet-ci-artifacts/) for upload.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/common.sh
source scripts/common.sh
jobs=$(nproc 2>/dev/null || echo 4)
artifact_dir=${ARTIFACT_DIR:-fleet-ci-artifacts}

ensure_build_dir build-bench Release ""
cmake --build build-bench -j "$jobs" --target fig10_wild_delay
fig10=./build-bench/bench/fig10_wild_delay

calls=600
common=(--calls "$calls" --call-seconds 1 --metrics --timeline)
d=build-bench/fleet-ci
mkdir -p "$artifact_dir"

echo "== split invariance: jobs 1 x 1 shard vs 4 x 2 vs 8 x 1 =="
ensure_spill_dir "$d/1x1"
ensure_spill_dir "$d/4x2"
ensure_spill_dir "$d/8x1"
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/1x1" \
  --jobs 1 | tee "$d/1x1.out"
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/4x2" \
  --jobs 4 --shard 0/2
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/4x2" \
  --jobs 4 --shard 1/2
"$fig10" "${common[@]}" --checkpoint-every 32 --spill-dir "$d/8x1" \
  --jobs 8 | tee "$d/8x1.out"
for artifact in percentiles.json metrics.prom timeline.jsonl; do
  cmp "$d/1x1/merged/$artifact" "$d/4x2/merged/$artifact"
  cmp "$d/1x1/merged/$artifact" "$d/8x1/merged/$artifact"
done
echo "merged artifacts byte-identical across jobs 1x1 / 4x2 / 8x1"

echo "== crash durability: SIGKILL mid-run, resume, byte-compare =="
ensure_spill_dir "$d/kill"
"$fig10" "${common[@]}" --checkpoint-every 16 --spill-dir "$d/kill" \
  --jobs 2 > "$d/kill_first.out" 2>&1 &
pid=$!
# Kill once the first checkpoints exist, so the resume has real progress to
# pick up — but don't insist the kill lands mid-run: on a fast machine the
# sweep may complete first, in which case the resume degenerates to an
# (equally valid) all-resumed no-op. The sweep is one process, so once it
# is reaped nothing can still append to the spill.
for _ in $(seq 1 200); do
  [[ -f "$d/kill/shard0of1.manifest.json" ]] && break
  sleep 0.05
done
sleep 0.3
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
"$fig10" "${common[@]}" --checkpoint-every 16 --spill-dir "$d/kill" \
  --jobs 2 --resume | tee "$d/resume.out"
for artifact in percentiles.json metrics.prom timeline.jsonl; do
  cmp "$d/kill/merged/$artifact" "$d/1x1/merged/$artifact"
done
echo "kill + --resume converged to the uninterrupted artifacts"

grep '^{"bench":"fleet_shard"' "$d/8x1.out" | tail -1 \
  > "$artifact_dir/BENCH_fleet.json"
cp "$d/1x1/merged/percentiles.json" "$d/1x1/merged/metrics.prom" \
   "$d/resume.out" "$artifact_dir/"
echo "fleet_ci.sh: all green (artifacts in $artifact_dir/)"
