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

echo "==> cargo test -q"
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

echo "==> bench smoke (quick mode; schema only, no timing assertions)"
./scripts/bench.sh

echo "==> rpc smoke (pipelined echo + batch round trip against a live server)"
./target/release/tiera-bench rpc-smoke --quick

echo "==> chaos smoke (deterministic; seed 1 replays byte-identically)"
CHAOS_OUT="$(mktemp -t tiera-chaos-XXXXXX.json)"
META_OUT="$(mktemp -t tiera-metastore-XXXXXX.json)"
trap 'rm -f "$CHAOS_OUT" "$META_OUT"' EXIT
./target/release/tiera-bench chaos --quick --seed 1 --out "$CHAOS_OUT"
./target/release/tiera-bench check "$CHAOS_OUT"

echo "==> metastore smoke (quick mode; schema only, no timing assertions)"
./target/release/tiera-bench metastore --quick --out "$META_OUT"
./target/release/tiera-bench check "$META_OUT"

echo "==> tco smoke (quick mode; wrapper capacity/latency harness, schema only)"
TCO_OUT="$(mktemp -t tiera-tco-XXXXXX.json)"
trap 'rm -f "$CHAOS_OUT" "$META_OUT" "$TCO_OUT"' EXIT
./target/release/tiera-bench tco --quick --out "$TCO_OUT"
./target/release/tiera-bench check "$TCO_OUT"

echo "==> cluster smoke (quick mode; 3-node routed throughput, schema only)"
CLUSTER_OUT="$(mktemp -t tiera-cluster-XXXXXX.json)"
CLUSTER_CHAOS_OUT="$(mktemp -t tiera-cluster-chaos-XXXXXX.json)"
trap 'rm -f "$CHAOS_OUT" "$META_OUT" "$TCO_OUT" "$CLUSTER_OUT" "$CLUSTER_CHAOS_OUT"' EXIT
./target/release/tiera-bench cluster --quick --out "$CLUSTER_OUT"
./target/release/tiera-bench check "$CLUSTER_OUT"

echo "==> cluster-chaos smoke (node-fault matrix; seed 1 replays byte-identically)"
./target/release/tiera-bench cluster-chaos --quick --seed 1 --out "$CLUSTER_CHAOS_OUT"
./target/release/tiera-bench check "$CLUSTER_CHAOS_OUT"

echo "verify: OK"
