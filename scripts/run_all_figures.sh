#!/usr/bin/env bash
# Regenerates every table/figure of the paper into results/.
# Each binary prints its tables, each followed by its CSV block, to
# results/<bin>.txt.
# Usage: scripts/run_all_figures.sh [--quick] [--threads N]
#   --quick      reduced sweeps for a fast smoke run
#   --threads N  worker threads per binary (default: all cores; results are
#                byte-identical for any N, --threads 1 runs fully serial)
set -euo pipefail
cd "$(dirname "$0")/.."

quick=""
threads=""
expect_threads=""
for arg in "$@"; do
  if [ -n "$expect_threads" ]; then
    case "$arg" in
      ''|*[!0-9]*|0)
        echo "--threads expects a positive integer, got: $arg" >&2; exit 2 ;;
      *) threads="--threads $arg"; expect_threads="" ;;
    esac
    continue
  fi
  case "$arg" in
    --quick) quick="--quick" ;;
    --threads) expect_threads=1 ;;
    *) echo "unknown argument: $arg (expected --quick and/or --threads N)" >&2; exit 2 ;;
  esac
done
if [ -n "$expect_threads" ]; then
  echo "--threads expects a positive integer" >&2; exit 2
fi

mkdir -p results
cargo build --release -p hp-bench --bins

for bin in table1 hwcost validate notifiers fig3 fig8 fig9 fig10 fig11 fig12 fig13 qos numa ablate summary; do
  echo "== $bin =="
  # shellcheck disable=SC2086  # word-splitting of the flag strings is intended
  ./target/release/$bin $quick $threads | tee "results/$bin.txt"
done

echo "All figure outputs written to results/"
