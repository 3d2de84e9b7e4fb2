#!/usr/bin/env bash
# Records a benchmark baseline for one of the bench binaries (default: fig3).
#
# Usage: scripts/record-baseline.sh [fig3|...|fig8|reuse|mvbench|commitbench|accountbench|storagebench|adaptivebench|soakbench] [tag]
#
# Output convention (committed so future PRs have a perf trajectory):
#   bench-results/<bin>/<YYYY-MM-DD>-<tag>.tsv   — the TSV rows the binary prints
#   bench-results/<bin>/<YYYY-MM-DD>-<tag>.json  — the JSON measurement array
# where <tag> defaults to "<os>-<arch>-<N>cpu". Set BLOCK_STM_BENCH_QUICK=1
# for a smoke-grid run (recorded with a "-quick" suffix so it is never
# compared against full-grid baselines).
set -euo pipefail
cd "$(dirname "$0")/.."

bin="${1:-fig3}"
cpus="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo unknown)"
tag="${2:-$(uname -s | tr '[:upper:]' '[:lower:]')-$(uname -m)-${cpus}cpu}"
if [[ -n "${BLOCK_STM_BENCH_QUICK:-}" ]]; then
    tag="${tag}-quick"
fi
stamp="$(date +%Y-%m-%d)"
out_dir="bench-results/${bin}"
mkdir -p "${out_dir}"

cargo build --release -p block-stm-bench --bin "${bin}"
raw="$("./target/release/${bin}")"

printf '%s\n' "${raw}" | grep -v '^# json: ' > "${out_dir}/${stamp}-${tag}.tsv"
printf '%s\n' "${raw}" | sed -n 's/^# json: //p' > "${out_dir}/${stamp}-${tag}.json"

echo "recorded ${out_dir}/${stamp}-${tag}.{tsv,json}"
