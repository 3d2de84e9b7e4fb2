#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package from source
# (offline), then runs it from the repository root:
#
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke]     all seven workloads, both passes
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Build outputs: wherever the caller points CARGO_TARGET_DIR (a relative path
# is relative to the caller's directory), else the repository's own target/.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cd "$root"
# Everything the benchmark writes — trace files, results, the LogStore
# directories of p2p-logstore and node-durable — stays under benchmark/out.
mkdir -p "$here/out/tmp"
export TMPDIR="$here/out/tmp"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/blockstm-benchmark" "$@"
