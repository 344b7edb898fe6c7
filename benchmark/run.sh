#!/usr/bin/env bash
# The one command: builds the benchmark (release, offline) and runs it.
#
#   bash benchmark/run.sh
#       the whole suite: six workloads untraced, then traced, then the
#       ladder; every metric printed by name with its unit; result file in
#       benchmark/out/result.json
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of stdout is the JSON result
#   bash benchmark/run.sh compare <baseline.json> <new.json>
#
# Run from the root of the checkout. Build output goes to stderr and to
# $CARGO_TARGET_DIR (default benchmark/target).
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/tiera-benchmark" "$@"
