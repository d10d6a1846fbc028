#!/usr/bin/env bash
# Captures the harness surface: runs ~70 commands of the `bigtiny-bench`
# binaries at test size (every binary's `--help`, and the `json_check`
# pass over every artifact, count one command each) and keeps every
# command's stdout (NAME.out), stderr (NAME.err) and exit status (NAME.rc),
# plus every artifact they write (metrics, traces, heartbeats, black
# boxes, verdict tables, JSON records), in OUTDIR. The simulator is
# deterministic, so two captures of trees that simulate alike differ only
# in host wall time and thread ids. Takes well under a minute.
#
# Usage (from the repository root, after `cargo build --release`):
#
#   scripts/capture.sh OUTDIR            # OUTDIR must not exist yet
#   BIN=/other/target/release scripts/capture.sh OUTDIR
#
# Diffing two captures, say OLD of a parent commit (run that tree's own
# copy of this script) and NEW of a change:
#
#   scripts/capture.sh --mask OLD NEW    # blanks wall time and thread ids
#   diff -r OLD NEW
#
# `--mask` rewrites, in place: the `(N.Ns wall)` of `[bench]` and `table5`
# lines and `chaos_fuzz`'s per-plan `(N.Ns)`; `wall_ms` and
# `grants_per_sec` in JSON (heartbeat lines);
# `tail_run`'s wall, rate and rate sparkline; `check_all`'s `wall ms`
# column; the thread id of a panic message. Anything else that differs is
# a change in what the harness does or prints.

set -u

if [ "${1-}" = --mask ]; then
    shift
    for dir in "$@"; do
        sed -E -i \
            -e 's/[0-9]+\.[0-9]+s wall/N.Ns wall/g; s/\([0-9]+\.[0-9]+s\)/(N.Ns)/g' \
            -e 's/"(wall_ms|grants_per_sec)":[0-9.e+-]+/"\1":N/g' \
            -e "s/^thread '([^']*)' \([0-9]+\)/thread '\1' (N)/" \
            -e 's/wall +[0-9.]+s +rate +[0-9.]+[kMG]?\/s .*$/wall N rate N/' \
            "$dir"/*
        sed -E -i 's/ +([0-9]+|N)( +(clean|[0-9]+ violation\(s\)))$/ N\2/' "$dir/check_all.out"
    done
    exit 0
fi

out=${1:?usage: scripts/capture.sh OUTDIR | scripts/capture.sh --mask DIR...}
root=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "${BIN:-$root/target/release}" && pwd)
mkdir "$out" || exit 2
cd "$out" || exit 2

# Every knob the binaries read, cleared; each command sets its own.
unset BIGTINY_APPS BIGTINY_JSON BIGTINY_BACKEND BIGTINY_CHECK_OUT BIGTINY_MC_OUT \
    BIGTINY_MC_SCHEDULES BIGTINY_MC_DEPTH BIGTINY_MC_APPS
export BIGTINY_SIZE=test
# A backtrace would name this tree's source paths.
export RUST_BACKTRACE=0

# run NAME [VAR=value...] BINARY [ARG...]
run() {
    local name=$1
    shift
    env "$@" >"$name.out" 2>"$name.err"
    echo $? >"$name.rc"
}
nq=BIGTINY_APPS=cilk5-nq

# The baselines the regression gates below compare against.
cp "$root"/results/metrics_{baseline,crash,deque}_test.json .

# Table III, Figures 5-8, Table IV, energy and collaborative execution: the
# full matrix, then flag sets on one kernel.
run eval_all BIGTINY_JSON=eval_all.jsonl "$bin/eval_all"
run eval_all.obs $nq "$bin/eval_all" --metrics-out eval_metrics.json --trace-out eval_trace.json
run eval_all.hostile $nq BIGTINY_JSON=hostile.jsonl "$bin/eval_all" \
    --fault-plan hostile --fault-seed 7 --watchdog-budget 2000000
run eval_all.crash $nq BIGTINY_JSON=crash.jsonl "$bin/eval_all" \
    --fault-plan crash-storm --fault-seed 1 --metrics-out crash_metrics.json
run eval_all.spec $nq "$bin/eval_all" --fault-plan crash_cores=0x20,crash_at=1500 --fault-seed 3
run eval_all.heartbeat $nq "$bin/eval_all" --heartbeat-out heartbeat.jsonl --heartbeat-every 500 \
    --blackbox-out blackbox.json
run eval_all.watchdog $nq "$bin/eval_all" --fault-plan hostile --fault-seed 7 --watchdog-budget 500
run eval_all.watchdog_blackbox $nq "$bin/eval_all" --fault-plan hostile --fault-seed 7 \
    --watchdog-budget 500 --blackbox-out wd_blackbox.json
run eval_all.threads $nq BIGTINY_BACKEND=threads "$bin/eval_all" --metrics-out threads_metrics.json
run eval_all.256 $nq "$bin/eval_all" --setups-256 --fault-plan crash-storm --fault-seed 1 \
    --metrics-out m256_metrics.json
run eval_all.usage "$bin/eval_all" --fault-seed 0x9
run eval_all.spec_range $nq "$bin/eval_all" \
    --fault-plan uli_delay=1000,uli_delay_cycles=18446744073709551615
run eval_all.spec_repeat $nq "$bin/eval_all" --fault-plan uli_drop=5,uli_drop=900

# Every other table and figure binary.
for b in table1 table2 table5 fig4; do
    run "$b" "$bin/$b"
done

# Ablations.
run ablate_deque "$bin/ablate_deque" --metrics-out deque_metrics.json
run ablate_dts "$bin/ablate_dts"
run ablate_faults $nq "$bin/ablate_faults" --fault-seed 9
run ablate_grain "$bin/ablate_grain"
run ablate_sparse "$bin/ablate_sparse"

# Profiler, oracles, fuzzer, heartbeat reader.
run profile_run $nq "$bin/profile_run" --metrics-out profile_metrics.json \
    --trace-out profile_trace.json
run check_all BIGTINY_CHECK_OUT=check_verdicts.json "$bin/check_all"
run model_check BIGTINY_MC_OUT=mc_verdicts.json "$bin/model_check"
run chaos_fuzz "$bin/chaos_fuzz" --budget 5 --seed 1
run tail_run "$bin/tail_run" --once heartbeat.jsonl

# Every artifact through the strict parser.
for doc in eval_all.jsonl eval_metrics.json eval_trace.json hostile.jsonl crash.jsonl \
    crash_metrics.json heartbeat.jsonl threads_metrics.json m256_metrics.json deque_metrics.json \
    profile_metrics.json profile_trace.json check_verdicts.json mc_verdicts.json \
    wd_blackbox.json; do
    run "json_check.$doc" "$bin/json_check" "$doc"
done

# The exact regression gates CI runs.
run metrics_diff.baseline "$bin/metrics_diff" metrics_baseline_test.json eval_metrics.json \
    --threshold 0
run metrics_diff.crash "$bin/metrics_diff" metrics_crash_test.json crash_metrics.json --threshold 0
run metrics_diff.deque "$bin/metrics_diff" metrics_deque_test.json deque_metrics.json --threshold 0
run metrics_diff.threads "$bin/metrics_diff" eval_metrics.json threads_metrics.json --threshold 0

run unsafe_audit "$bin/unsafe_audit" "$root"

# Every binary's generated usage text.
for b in ablate_deque ablate_dts ablate_faults ablate_grain ablate_sparse chaos_fuzz check_all \
    eval_all fig4 json_check metrics_diff model_check profile_run table1 table2 table5 tail_run \
    unsafe_audit; do
    run "help.$b" "$bin/$b" --help
done

echo "captured $(ls ./*.rc | wc -l) commands into $out"
