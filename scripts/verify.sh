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

echo "==> cargo test --release (chaos pins, forced interleavings, the metastore crash and linearizability checks and the tier slab's model hold in both build profiles)"
cargo test --release --offline -q -p tiera-chaos --test chaos_suite
cargo test --release --offline -q -p tiera-core --test concurrency
cargo test --release --offline -q -p tiera-core --test copy_races
cargo test --release --offline -q -p tiera-cluster --test version_races --test redial_failover
cargo test --release --offline -q -p tiera-chaos --test metastore_crash_matrix
cargo test --release --offline -q -p tiera-metastore --test linearizability
cargo test --release --offline -q -p tiera-tiers --test slab_model

echo "==> cargo fmt --check (the tree stays rustfmt-clean; rustfmt.toml holds the one setting)"
cargo fmt --all --check

echo "==> cargo clippy (lint gate: every target of every crate, warnings are errors; clippy.toml and the root [workspace.lints] hold the workspace's own rules)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> tiera-lint --deny-warnings specs/ benchmark/specs/ (spec analyzer gate)"
cargo run -q --release --offline --bin tiera-lint -- --deny-warnings --quiet specs/*.tiera benchmark/specs/*.tiera

echo "==> tiera-analyze --deny-warnings crates/ (concurrency analyzer gate)"
cargo run -q --release --offline --bin tiera-analyze -- --deny-warnings --quiet crates

echo "==> cargo doc (rustdoc gate: a broken or ambiguous doc link fails the build)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> lockcheck tests (runtime lock-order sanitizer enabled; spec-compiled instances and fig 17's outage run under it too)"
cargo test --offline -q -p tiera-support -p tiera-sim -p tiera-tiers -p tiera-core -p tiera-rpc -p tiera-chaos \
    -p tiera-metastore -p tiera-cluster -p tiera-tierx -p tiera-db -p tiera-fs -p tiera-workloads \
    -p tiera-spec -p tiera-bench --features tiera-support/lockcheck

echo "==> benchmark/ tests (outside the root workspace; catches API drift under the referee)"
(cd benchmark && cargo test --offline -q)

echo "==> footprint gate (100 000 keys; fails over the per-object memory budget)"
cargo run -q --release --offline -p tiera --example footprint -- --check

echo "==> rpc quickstart (a live server and a client through the tiera facade)"
cargo run -q --release --offline -p tiera --example rpc_server

echo "==> experiments golden (every section of experiments_output.txt but fig18, byte for byte)"
sections() { # stdin: an experiments transcript; stdout: all but fig18 (real CPU µs/op) minus the wall-time lines
    awk '/^\[.* completed in .*s wall time\]$/ { keep = 0; next }
        /^[a-z0-9-]+ — / { keep = $1 != "fig18" }
        keep'
}
diff <(sections < experiments_output.txt) <(./target/release/experiments --all | sections)

echo "verify: OK"
