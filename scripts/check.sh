#!/usr/bin/env bash
# Local CI gate: formatting, lints, docs, the offline tier-1 suite and
# the benchmark package.
# Mirrors .github/workflows/ci.yml — run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline

echo "==> tier-1: release build + tests (offline)"
cargo build --release --workspace --offline
cargo test --workspace --offline -q

# nanobench/ is its own workspace: the steps above never compile it.
echo "==> benchmark package: build + tests"
cargo build --release --offline --manifest-path nanobench/Cargo.toml
cargo test --offline --manifest-path nanobench/Cargo.toml

echo "All checks passed."
echo "(CI parity: .github/workflows/ci.yml additionally runs the QoR gate"
echo " via scripts/qor.sh — which includes the perf-diff leg against"
echo " BENCH_perf.json — and a perf-smoke job: 1 benchmark, loose"
echo " catastrophe-only thresholds, profile-artifact validation.)"
