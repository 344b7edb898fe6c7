#!/usr/bin/env bash
# Tier-1 verification gate. Local runs and CI exercise exactly this script,
# so "works on my machine" and "works in the gate" are the same statement.
#
# The build must succeed fully offline: the workspace is hermetic by policy
# (see DESIGN.md, "Hermetic dependency policy") and depends on nothing but
# the in-repo `tiera-*` path crates. The hermeticity guard test in
# crates/support/tests/hermetic.rs enforces the policy; the `--offline`
# build here proves it end to end.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --offline (hermeticity proof)"
cargo build --offline

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (includes the chaos matrices and the live-server rpc round trips)"
cargo test -q

echo "==> tiera-lint --deny-warnings specs/ (spec analyzer gate)"
cargo run -q --release --offline --bin tiera-lint -- --deny-warnings --quiet specs/*.tiera

echo "==> tiera-analyze --deny-warnings crates/ (concurrency analyzer gate)"
cargo run -q --release --offline --bin tiera-analyze -- --deny-warnings --quiet crates

echo "==> lockcheck tests (runtime lock-order sanitizer enabled)"
cargo test --offline -q -p tiera-support -p tiera-core -p tiera-rpc -p tiera-chaos \
    -p tiera-metastore -p tiera-cluster -p tiera-tierx --features tiera-support/lockcheck

echo "==> benchmark/ tests (outside the root workspace; catches API drift under the referee)"
(cd benchmark && cargo test --offline -q)

echo "==> footprint gate (100 000 keys; fails over the per-object memory budget)"
cargo run -q --release --offline -p tiera --example footprint -- --check

echo "==> experiments golden (every section of experiments_output.txt but fig18, byte for byte)"
sections() { # stdin: an experiments transcript; stdout: all but fig18 (real CPU µs/op) minus the wall-time lines
    awk '/^\[.* completed in .*s wall time\]$/ { keep = 0; next }
        /^[a-z0-9-]+ — / { keep = $1 != "fig18" }
        keep'
}
diff <(sections < experiments_output.txt) <(./target/release/experiments --all | sections)

echo "verify: OK"
