#!/usr/bin/env bash
# Interleaved A/B of the working tree ("change") against a git ref
# ("parent"), with identical benchmark code on both sides.
#
#   benchmark/ab.sh <git-ref> [--pairs N] [--seed S] [--seconds T]
#
# The parent side is the ref's src/ and tests/golden/, extracted with
# `git archive` into benchmark/build/ab/<sha>/ and built with this tree's
# benchmark sources. Each of N pairs (default 10) runs every workload once
# per side, alternating which side goes first; every run is one
# BENCHMARK.json command process of T seconds (default: run_seconds).
# Prints, per workload and end-to-end metric, both sides' median and
# quartiles, how many pairs the change won, and the verdict (gain, no
# regression, REGRESSION or unresolved; README "A/B"), then both sides'
# behaviour digests. `ab.sh HEAD` is an A/A run of the working tree
# against its own commit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
usage() {
  echo "usage: benchmark/ab.sh <git-ref> [--pairs N] [--seed S] [--seconds T]" >&2
  exit 2
}
(($# >= 1)) || usage
ref=$1
shift
pairs=10
seed=1010
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
while (($#)); do
  case $1 in
    --pairs) pairs=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    *) usage ;;
  esac
done
workloads=(wild_fig10 scenario_grid fleet_1s)

sha=$(git rev-parse --verify "$ref^{commit}")
parent=benchmark/build/ab/$sha
if [[ ! -d $parent/src ]]; then
  mkdir -p "$parent"
  git archive "$sha" src tests/golden | tar -x -C "$parent"
fi
mkdir -p "$parent/benchmark"
cp -Rp benchmark/CMakeLists.txt benchmark/run.sh benchmark/src "$parent/benchmark/"
bash benchmark/run.sh --build-only
bash "$parent/benchmark/run.sh" --build-only

out=$parent/ab-$seed-$(date +%Y%m%d-%H%M%S).jsonl
: >"$out"
for ((i = 0; i < pairs; i++)); do
  sides=(parent change)
  ((i % 2)) && sides=(change parent)
  for w in "${workloads[@]}"; do
    for side in "${sides[@]}"; do
      tree=$root
      [[ $side == parent ]] && tree=$root/$parent
      bash "$tree/benchmark/run.sh" --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 --label "$side" >>"$out"
    done
  done
  echo "ab: pair $((i + 1))/$pairs done" >&2
done
echo "records: $out"
benchmark/build/kwikr_benchmark --ab "$out"
