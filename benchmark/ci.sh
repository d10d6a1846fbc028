#!/usr/bin/env bash
# Smoke-checks the benchmark itself: formatting, lints, unit tests, then a
# `--quick` run of every workload with the traced pass and micro-benches
# (test-size inputs, one pass, micro-benches at 1/20 length; < 20 s once
# built). Run from anywhere; exits non-zero on any failed cell.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --release --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- --quick
