#!/usr/bin/env bash
# Parallel-engine benchmark: worker scaling, kernel-event parity, and the
# rendezvous-count gate (lookahead windows), plus the
# rendezvous microbench. Writes results/par_bench.json.
# Usage: scripts/bench_par.sh [--quick]
#   --quick  reduced run length for a fast smoke pass
set -euo pipefail
cd "$(dirname "$0")/.."

quick=""
for arg in "$@"; do
  case "$arg" in
    --quick) quick="--quick" ;;
    *) echo "unknown argument: $arg (expected --quick)" >&2; exit 2 ;;
  esac
done

mkdir -p results
cargo build --release -p hp-bench --bins

echo "== par-bench (worker scaling, kernel-event ratio, rendezvous counts) =="
# shellcheck disable=SC2086  # word-splitting of the flag string is intended
./target/release/trace $quick --par-bench results/par_bench.json

echo
echo "== kernel microbenches (includes rendezvous_cycle) =="
# shellcheck disable=SC2086
cargo bench -p hp-bench --bench kernels -- $quick

echo
echo "Parallel-engine benchmark written to results/par_bench.json"
