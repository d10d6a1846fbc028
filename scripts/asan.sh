#!/usr/bin/env bash
# Runs the engine, runtime and integration test suites under
# AddressSanitizer with LeakSanitizer on: heap and stack misuse, and every
# block still allocated when a test binary exits, fail the run. The fiber
# backend's raw stack switches and hand-built frames are what this guards.
#
# Needs the nightly toolchain (for `-Zsanitizer`), which ships the
# sanitizer runtimes; no `rust-src` or `-Zbuild-std` is needed. Only
# library and integration-test targets are built: rustdoc does not receive
# RUSTFLAGS, so doctests would fail to link against the runtime.
#
# Usage (from the repository root):
#
#   scripts/asan.sh               # about a minute with a warm target/asan
#   scripts/asan.sh -- fiber      # extra arguments go to cargo test
#
# Every test binary runs (`--no-fail-fast`). Exit status is cargo's: 0 only
# when every test passes and no binary reports a sanitizer error or a leak.

set -eu

export RUSTFLAGS="-Zsanitizer=address"
export ASAN_OPTIONS="detect_leaks=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}"

exec cargo +nightly test --target x86_64-unknown-linux-gnu --target-dir target/asan \
    -p bigtiny-engine -p bigtiny-core -p bigtiny-tests --lib --tests --no-fail-fast "$@"
