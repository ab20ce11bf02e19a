#!/usr/bin/env bash
# Parent-vs-change benchmark A/B: builds `perfbench` from git revision REV
# and from the working tree, runs the two alternately for each workload,
# then prints `perfbench compare` of the two sets. Artifacts land in target/bench-ab/{parent,change}/<pair>/.
# Usage: scripts/bench_ab.sh REV [WORKLOAD...] [--pairs N] [--seconds S]
#   REV         the revision to compare against (e.g. HEAD~1)
#   WORKLOAD    perfbench workloads to run (default: every one it lists)
#   --pairs N   parent/change pairs per workload (default 5)
#   --seconds S perfbench --seconds per run (default 6)
# Exits with `perfbench compare`'s status: 1 if a metric regressed past
# its bound, 2 on a usage error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/bench_ab.sh REV [WORKLOAD...] [--pairs N] [--seconds S]" >&2
  exit 2
}
count() { [[ "$1" =~ ^[1-9][0-9]*$ ]] || { echo "$2 takes a positive integer, got '$1'" >&2; usage; }; }

rev=""
workloads=()
pairs=5
seconds=6
while [[ $# -gt 0 ]]; do
  case "$1" in
    --pairs|--seconds)
      [[ $# -ge 2 ]] || { echo "$1 needs a value" >&2; usage; }
      count "$2" "$1"
      if [[ "$1" == --pairs ]]; then pairs=$2; else seconds=$2; fi
      shift 2 ;;
    -*) echo "unknown argument: $1" >&2; usage ;;
    *)
      if [[ -z "$rev" ]]; then rev=$1; else workloads+=("$1"); fi
      shift ;;
  esac
done
[[ -n "$rev" ]] || usage
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "unknown revision: $rev" >&2; exit 2; }

out=target/bench-ab
rm -rf "$out/parent" "$out/change"
mkdir -p "$out"
# The parent's source is a plain export of REV (nothing is registered in
# .git), removed however the script exits.
src=$(mktemp -d "$out/src.XXXXXX")
trap 'rm -rf "$src"' EXIT
git archive "$rev" | tar -x -C "$src"

echo "== building perfbench at $rev and at the working tree =="
CARGO_TARGET_DIR="$PWD/$out/build-parent" \
  cargo build --release --quiet --offline --manifest-path "$src/bench/Cargo.toml"
CARGO_TARGET_DIR="$PWD/$out/build-change" \
  cargo build --release --quiet --offline --manifest-path bench/Cargo.toml

known=$("$out/build-change/release/perfbench" --list | awk '{print $1}')
[[ ${#workloads[@]} -gt 0 ]] || mapfile -t workloads <<<"$known"
for w in "${workloads[@]}"; do
  grep -qx -- "$w" <<<"$known" || { echo "unknown workload: $w" >&2; usage; }
done

# Pairs alternate which side runs first, so drift in host load does not
# favour one side. A run whose rounds fail its check still writes its
# artifact, and `compare` reports it, so one failed run does not stop
# the others.
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    order="parent change"
    ((i % 2)) || order="change parent"
    for side in $order; do
      log="$out/$side/$i/$w.log"
      mkdir -p "$out/$side/$i"
      "$out/build-$side/release/perfbench" run --workload "$w" --seconds "$seconds" \
        --trace 0 --out "$out/$side/$i" >"$log" || echo "   ($side run exited $?)"
      echo "-- $w pair $i/$pairs $side: $(tail -n 1 "$log")"
    done
  done
done

echo
echo "== compare $rev (parent) vs working tree (change) =="
"$out/build-change/release/perfbench" compare "$out/parent" "$out/change"
