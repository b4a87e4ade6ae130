#!/usr/bin/env bash
# Repo verification gate (the merge bar — CI runs exactly this):
#   1. tier-1: configure + build + full ctest in ./build
#   2. fleet: `ctest -L fleet_shard` (spill/checkpoint/resume property
#      tests) plus a spill-mode smoke of the fig10 sweep — the same calls
#      under --jobs 1 and --jobs 2 must merge to byte-identical
#      percentiles, metrics, and timeline artifacts.
#   3. tsan: rebuild the concurrency-sensitive suites under ThreadSanitizer
#      (-DKWIKR_SANITIZE=thread) and run `ctest -L obs` + `ctest -L faults`
#      + `ctest -L frame_path` + `ctest -L cc_aqm` + `ctest -L timeline`
#      + `ctest -L fleet_shard` (registry merge paths, fleet sharding, the
#      golden corpus whose byte-stability depends on worker-count
#      independence, the frame-path primitives the sharded runs lean on,
#      the CC x qdisc grid that rides the same fleet, the timeline
#      telemetry whose population byte-identity runs worker-local samplers
#      in parallel, and the shard runner whose chunk functions run their
#      calls on fleet threads).
#   4. bench: the fig10 sweep's determinism and memory gates on ./build —
#      150 calls' --metrics-out and --timeline-out byte-identical between
#      --jobs 1 and --jobs 8, timeline-on peak RSS at most 2.5x timeline-off,
#      and the spill sweep's 1600-call peak RSS at most 1.35x its 400-call
#      peak at --jobs 4, its percentiles byte-identical at --jobs 1. Exact
#      work counts and zero-allocation checks are census_test's (tier-1);
#      wall time belongs to benchmark/ and is never gated on one run.
#
# Usage: scripts/check.sh [--ci] [--no-tsan] [--no-bench]
#   --ci  machine-readable per-step summary lines (CHECK-STEP|name|status)
#         on stdout and, when $GITHUB_STEP_SUMMARY is set, a markdown table
#         appended there. All steps run even after a failure so CI reports
#         every broken leg at once; the exit code is non-zero if any failed.
set -euo pipefail

cd "$(dirname "$0")/.."
# shellcheck source=scripts/common.sh
source scripts/common.sh
jobs=$(nproc 2>/dev/null || echo 4)

ci=0
run_tsan=1
run_bench=1
for arg in "$@"; do
  case "$arg" in
    --ci) ci=1 ;;
    --no-tsan) run_tsan=0 ;;
    --no-bench) run_bench=0 ;;
    *) echo "usage: scripts/check.sh [--ci] [--no-tsan] [--no-bench]" >&2
       exit 2 ;;
  esac
done

declare -a step_names=()
declare -a step_results=()
failed=0

# run_step <name> <function>: runs the step in a subshell with errexit so a
# failing command anywhere inside fails the whole step. The subshell runs as
# a plain command with errexit paused out here: bash ignores `set -e` inside
# anything that `if`, `!`, `&&` or `||` tests, subshells included, and
# would then let only a step's last command decide it. In --ci mode
# failures are recorded and reported at the end; interactively they abort
# at once.
run_step() {
  local name="$1" fn="$2"
  echo "== $name =="
  local status=ok rc
  set +e
  (set -euo pipefail; "$fn")
  rc=$?
  set -e
  if ((rc != 0)); then
    status=fail
    failed=1
  fi
  step_names+=("$name")
  step_results+=("$status")
  if [[ "$ci" == 1 ]]; then
    echo "CHECK-STEP|$name|$status"
  elif [[ "$status" == fail ]]; then
    echo "check.sh: step '$name' failed" >&2
    exit 1
  fi
}

skip_step() {
  local name="$1" reason="$2"
  echo "warning: skipping step '$name': $reason" >&2
  step_names+=("$name")
  step_results+=("skipped: $reason")
  [[ "$ci" == 1 ]] && echo "CHECK-STEP|$name|skipped"
  return 0
}

step_tier1() {
  ensure_build_dir build "" ""
  cmake --build build -j "$jobs"
  ctest --test-dir build --output-on-failure -j "$jobs"
}

step_fleet() {
  cmake --build build -j "$jobs" --target fleet_shard_test fig10_wild_delay
  ctest --test-dir build -L fleet_shard --output-on-failure -j "$jobs"
  # Spill-mode smoke: one thread vs two must merge byte-identically.
  local fig10=./build/bench/fig10_wild_delay
  ensure_spill_dir build/fleet-smoke/j1
  ensure_spill_dir build/fleet-smoke/j2
  "$fig10" --calls 12 --call-seconds 2 --spill-dir build/fleet-smoke/j1 \
    --jobs 1 --checkpoint-every 4 --metrics --timeline > /dev/null
  "$fig10" --calls 12 --call-seconds 2 --spill-dir build/fleet-smoke/j2 \
    --jobs 2 --checkpoint-every 4 --metrics --timeline > /dev/null
  local artifact
  for artifact in percentiles.json metrics.prom timeline.jsonl; do
    cmp "build/fleet-smoke/j1/merged/$artifact" \
        "build/fleet-smoke/j2/merged/$artifact"
  done
  echo "fleet spill smoke: merged artifacts byte-identical across" \
       "--jobs 1 and --jobs 2"
}

step_tsan() {
  ensure_build_dir build-tsan "" thread
  cmake --build build-tsan -j "$jobs" \
    --target obs_test fleet_test faults_test frame_path_test cc_aqm_test \
    timeline_test fleet_shard_test golden_runner
  ctest --test-dir build-tsan -L obs --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L faults --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L frame_path --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L cc_aqm --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L timeline --output-on-failure -j "$jobs"
  ctest --test-dir build-tsan -L fleet_shard --output-on-failure -j "$jobs"
}

# peak_rss_kb <file>: peak RSS of the last JSON record a bench printed.
peak_rss_kb() {
  grep -o '"peak_rss_kb":[0-9]*' "$1" | tail -1 | cut -d: -f2
}

step_bench() {
  cmake --build build -j "$jobs" --target fig10_wild_delay
  local fig10=./build/bench/fig10_wild_delay d=build/bench-gates
  rm -rf "$d"
  mkdir -p "$d"
  "$fig10" --calls 150 --jobs 1 --metrics-out "$d/metrics_j1.prom" > /dev/null
  "$fig10" --calls 150 --jobs 8 --metrics-out "$d/metrics_j8.prom" \
    > "$d/plain.out"
  cmp "$d/metrics_j1.prom" "$d/metrics_j8.prom"
  "$fig10" --calls 150 --jobs 1 --timeline-out "$d/timeline_j1.jsonl" \
    > /dev/null
  "$fig10" --calls 150 --jobs 8 --timeline-out "$d/timeline_j8.jsonl" \
    > "$d/timeline.out"
  cmp "$d/timeline_j1.jsonl" "$d/timeline_j8.jsonl"
  echo "fig10 metrics and timeline byte-identical between --jobs 1 and 8"

  # The timeline run holds every call's series until the final
  # concatenation; the per-call point budget keeps it under 2.5x.
  local plain timeline
  plain=$(peak_rss_kb "$d/plain.out")
  timeline=$(peak_rss_kb "$d/timeline.out")
  echo "peak RSS: timeline on ${timeline} kB, off ${plain} kB (bar: 2.5x)"
  if (( timeline * 10 > plain * 25 )); then
    echo "FAIL: timeline sampling more than 2.5x the peak RSS" >&2
    return 1
  fi

  # Spill streaming holds peak RSS at the checkpoint chunk's high-water
  # mark, so a 4x larger sweep must stay within 1.35x; in-RAM accumulation
  # would grow it about linearly.
  local run
  for run in 400_j4 1600_j4 1600_j1; do
    ensure_spill_dir "$d/$run"
    "$fig10" --calls "${run%_j*}" --call-seconds 1 --jobs "${run#*_j}" \
      --checkpoint-every 64 --spill-dir "$d/$run" > "$d/$run.out"
  done
  cmp "$d/1600_j1/merged/percentiles.json" \
      "$d/1600_j4/merged/percentiles.json"
  echo "spill percentiles byte-identical between --jobs 1 and 4"
  local small large
  small=$(peak_rss_kb "$d/400_j4.out")
  large=$(peak_rss_kb "$d/1600_j4.out")
  echo "peak RSS: spill ${large} kB @ 1600 calls, ${small} kB @ 400 calls" \
       "(bar: 1.35x)"
  if (( large * 100 > small * 135 )); then
    echo "FAIL: spill streaming is no longer flat-memory" >&2
    return 1
  fi
}

run_step "tier-1: build + full test suite" step_tier1
run_step "fleet: shard-runner suite + spill split-identity smoke" step_fleet

if [[ "$run_tsan" == 1 ]]; then
  run_step "tsan: obs + faults suites under ThreadSanitizer" step_tsan
else
  skip_step "tsan" "--no-tsan requested"
fi

if [[ "$run_bench" == 1 ]]; then
  run_step "bench: fig10 --jobs byte-identity + peak-RSS ratios" step_bench
else
  skip_step "bench" "--no-bench requested"
fi

if [[ "$ci" == 1 && -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "### check.sh"
    echo "| step | result |"
    echo "| --- | --- |"
    for i in "${!step_names[@]}"; do
      echo "| ${step_names[$i]} | ${step_results[$i]} |"
    done
  } >> "$GITHUB_STEP_SUMMARY"
fi

if [[ "$failed" == 1 ]]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: all green"
