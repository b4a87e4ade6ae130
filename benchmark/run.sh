#!/usr/bin/env bash
# The repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--passes P] [--traced] [--quick]
#       Builds kwikr_benchmark, gates on correctness (self-test, golden corpus),
#       then runs every workload P times (default 5), round-robin with the
#       workload order rotated each pass, one process per (workload, pass),
#       and prints every end-to-end metric per workload. --traced adds one
#       traced process per workload: per-layer metrics and a Chrome-trace
#       spans file under benchmark/build/. --quick: one pass over inputs
#       about ten times smaller (a smoke test, well under 20 s once built).
#
#   benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#       One workload in one process, timed passes for about T seconds; the
#       last line of stdout is the JSON result. This is BENCHMARK.json's
#       command.
#
#   benchmark/run.sh --build-only
#
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build_dir=benchmark/build
bin=$build_dir/kwikr_benchmark
workloads=(wild_fig10 scenario_grid fleet_1s)

build() {
  if [[ ! -d src || ! -d tests/golden ]]; then
    echo "run.sh: no src/ or tests/golden/ under $root; nothing to build" >&2
    exit 1
  fi
  local jobs log=$build_dir/build.log
  jobs=$(nproc 2>/dev/null || echo 2)
  ((jobs > 4)) && jobs=4
  mkdir -p "$build_dir"
  if ! { [[ -f $build_dir/CMakeCache.txt ]] ||
    cmake -S benchmark -B "$build_dir" -DCMAKE_BUILD_TYPE=Release; } >"$log" 2>&1 ||
    ! cmake --build "$build_dir" -j "$jobs" >>"$log" 2>&1; then
    cat "$log" >&2
    echo "run.sh: build failed (log: $log)" >&2
    exit 1
  fi
}

if [[ " $* " == *" --workload "* ]]; then
  build
  exec "$bin" "$@" --golden tests/golden
fi

seed=1010
passes=5
traced=0
quick=()
while (($#)); do
  case $1 in
    --seed) seed=$2; shift 2 ;;
    --passes) passes=$2; shift 2 ;;
    --traced) traced=1; shift ;;
    --quick) quick=(--quick); passes=1; shift ;;
    --build-only) build; exit 0 ;;
    *) echo "usage: benchmark/run.sh [--seed S] [--passes P] [--traced] [--quick]" >&2
       exit 2 ;;
  esac
done

build
"$bin" --self-test BENCHMARK.json
"$bin" --golden-check tests/golden

mkdir -p "$build_dir/results"
out=$build_dir/results/run-$seed-$(date +%Y%m%d-%H%M%S).jsonl
: >"$out"
for ((p = 0; p < passes; p++)); do
  for ((k = 0; k < ${#workloads[@]}; k++)); do
    w=${workloads[$(((k + p) % ${#workloads[@]}))]}
    "$bin" --workload "$w" --seed "$seed" --passes 1 "${quick[@]}" >>"$out"
  done
done
if ((traced)); then
  for w in "${workloads[@]}"; do
    "$bin" --workload "$w" --seed "$seed" --trace 1 "${quick[@]}" >>"$out"
  done
fi
echo "records: $out"
"$bin" --report "$out"
