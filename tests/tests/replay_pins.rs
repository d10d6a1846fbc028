//! Pins on what a sequenced op leaves on *its own core*.
//!
//! `golden_trace.rs` folds every `(time, core)` grant and the final cycle —
//! the sequenced stream. It says nothing about the purely local bookkeeping
//! a core does around each grant: the `TimeBreakdown` charge and its
//! `TraceEvent`, the retired-instruction count, the flight ring's `Grant`
//! record, the ULI marks, the attribution spans. These pins fold exactly
//! that, per core, for the DTS steal protocol under no faults, ULI storms
//! and crash storms, on both backends — captured before the thief's
//! response-wait loop stopped being one sequencer round trip per poll, so a
//! match proves whoever performs a poll's bookkeeping performs all of it.
//!
//! A moved pin means a core's local history moved: find out why before
//! re-pinning (the failing assertion prints the observed row).

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_engine::hash::{fnv1a_continue, fold_u64, FNV_OFFSET};
use bigtiny_engine::{ExecBackend, FaultPlan, Protocol, RunReport, TimeBreakdown, UliMarkKind};

/// `(kernel, fault plan, local fold, stream fold, seq_grants,
/// seq_fast_grants)` on `b.T/HCC-DTS-gwb` at `AppSize::Test`. The grant
/// counts are pinned on the Fibers backend only: how many grants take the
/// inline re-grant path depends on the start-up wave of the thread backend.
const PINS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("cilk5-nq", "none", 0x2ca6_3833_6859_7f84, 0xe26f_b9c7_04a7_64ff, 37863, 10311),
    ("cilk5-nq", "hostile", 0xdb82_80cc_635e_ca1f, 0x3b03_c71d_8ada_b7ba, 215737, 66551),
    ("cilk5-nq", "crash-storm", 0x8be8_6c6a_ea7d_5695, 0xa8b7_9fda_15cd_e2cb, 74181, 19483),
    ("ligra-bfs", "none", 0xfc7a_f083_3d73_9acc, 0x5f9c_141f_69ab_462b, 118106, 34951),
    ("ligra-bfs", "hostile", 0xacd1_82f4_cec0_58b7, 0x811f_7ecd_a690_874f, 182794, 56534),
    ("ligra-bfs", "crash-storm", 0xdd41_b194_8851_fc60, 0xea7a_4553_d13e_1153, 97530, 26005),
];

/// Seed of the seeded fault plans (the clean plan ignores it).
const FAULT_SEED: u64 = 11;

fn fold_str(h: u64, s: &str) -> u64 {
    fnv1a_continue(fold_u64(h, s.len() as u64), s.as_bytes())
}

fn fold_breakdown(h: u64, b: &TimeBreakdown) -> u64 {
    b.pairs().iter().fold(h, |h, &(label, cycles)| fold_u64(fold_str(h, label), cycles))
}

/// What every run records, armed or not: per core the time breakdown by
/// category, the retired instructions, the final clock and the flight ring
/// (events ever recorded plus the retained tail).
fn local_fold(r: &RunReport) -> u64 {
    let mut h = FNV_OFFSET;
    for core in 0..r.core_cycles.len() {
        h = fold_u64(h, core as u64);
        h = fold_u64(h, r.core_cycles[core]);
        h = fold_breakdown(h, &r.breakdowns[core]);
        h = fold_u64(h, r.instructions[core]);
        h = fold_u64(h, r.flight_totals[core]);
        for ev in &r.flight[core] {
            h = fold_str(fold_u64(h, ev.time), ev.kind.label());
            if let Some((name, value)) = ev.kind.arg() {
                h = fold_u64(fold_str(h, name), value);
            }
        }
    }
    h
}

/// What `trace` + `attr` add: per core every `TraceEvent`, every ULI mark
/// and every attribution span, in recording order.
fn stream_fold(r: &RunReport) -> u64 {
    let mut h = FNV_OFFSET;
    for core in 0..r.core_cycles.len() {
        h = fold_u64(h, r.traces[core].len() as u64);
        for ev in &r.traces[core] {
            h = fold_str(fold_u64(fold_u64(h, ev.start), ev.cycles), ev.category.label());
        }
        h = fold_u64(h, r.uli_marks[core].len() as u64);
        for m in &r.uli_marks[core] {
            let (tag, peer) = match m.kind {
                UliMarkKind::ReqSend { to } => (0, to),
                UliMarkKind::ReqRecv { from } => (1, from),
                UliMarkKind::RespSend { to } => (2, to),
                UliMarkKind::RespRecv { from } => (3, from),
            };
            h = fold_u64(fold_u64(fold_u64(h, m.cycle), tag), peer as u64);
        }
        h = fold_u64(h, r.attr_spans[core].len() as u64);
        for s in &r.attr_spans[core] {
            h = fold_u64(h, s.task.map_or(u64::MAX, u64::from));
            h = fold_breakdown(fold_u64(fold_u64(h, s.start), s.end), &s.breakdown);
        }
    }
    h
}

fn setup_for(plan: &str, backend: ExecBackend, armed: bool) -> Setup {
    let mut setup = Setup::bt_hcc(Protocol::GpuWb, true);
    let faults = FaultPlan::by_name(plan, FAULT_SEED).expect("named fault plan");
    setup.sys = setup.sys.clone().with_faults(faults).with_backend(backend);
    setup.rt.record_task_events = true;
    if armed {
        setup.sys.trace = true;
        setup.sys.attr = true;
    }
    setup
}

#[test]
fn per_core_local_history_matches_pins_on_every_backend() {
    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let mut failures = Vec::new();
    for &(app_name, plan, want_local, want_stream, want_grants, want_fast) in PINS {
        let app = app_by_name(app_name).unwrap();
        let (mut observed, seen) = (None, failures.len());
        for backend in [ExecBackend::Fibers, ExecBackend::Threads] {
            if backend != ExecBackend::Threads && !fibers_supported {
                continue;
            }
            // Arming only adds streams (`armed_observability` pins that), so
            // the unarmed run is checked once, on the default backend.
            for armed in [false, true] {
                if !armed && backend != ExecBackend::Fibers {
                    continue;
                }
                let r = run_app(&setup_for(plan, backend, armed), &app, AppSize::Test, 0);
                let rep = &r.run.report;
                let ctx = format!("{app_name} under {plan} on {backend:?}, armed {armed}");
                let local = local_fold(rep);
                if local != want_local {
                    failures.push(format!("{ctx}: local fold {local:#018x}"));
                }
                if armed {
                    let stream = stream_fold(rep);
                    assert!(rep.traces.iter().any(|t| !t.is_empty()), "{ctx}: no trace");
                    assert!(rep.uli_marks.iter().any(|m| !m.is_empty()), "{ctx}: no ULI marks");
                    if stream != want_stream {
                        failures.push(format!("{ctx}: stream fold {stream:#018x}"));
                    }
                    if backend == ExecBackend::Fibers {
                        observed = Some((local, stream, rep.seq_grants, rep.seq_fast_grants));
                    }
                }
                if rep.seq_grants != want_grants {
                    failures.push(format!("{ctx}: seq_grants {}", rep.seq_grants));
                }
                if backend == ExecBackend::Fibers && rep.seq_fast_grants != want_fast {
                    failures.push(format!("{ctx}: seq_fast_grants {}", rep.seq_fast_grants));
                }
            }
        }
        if let Some((local, stream, grants, fast)) = observed.filter(|_| failures.len() > seen) {
            failures.push(format!(
                "observed row: ({app_name:?}, {plan:?}, {local:#018x}, {stream:#018x}, {grants}, \
                 {fast}),"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "a core's local history diverged from its pin:\n  {}",
        failures.join("\n  ")
    );
}

/// The mechanism those pins guard must actually be engaged — and only
/// where it applies. A DTS thief's negative polls are served in place; a
/// runtime that sends no ULIs has none to serve; and with a heartbeat armed
/// every grant publishes the grantee's live counters, so every grant wakes
/// its core and the same `uli_await_response` runs with nothing served in
/// place — through the same grant stream, to the same cycle.
#[test]
fn polls_are_served_in_place_only_where_a_thief_waits_unobserved() {
    use std::sync::Arc;

    use bigtiny_engine::Heartbeat;

    let app = app_by_name("cilk5-nq").unwrap();
    let dts = run_app(&Setup::bt_hcc(Protocol::GpuWb, true), &app, AppSize::Test, 0);
    let rep = &dts.run.report;
    assert!(
        rep.seq_in_place_grants > 0 && rep.seq_in_place_grants < rep.seq_grants,
        "{} of {} grants served in place",
        rep.seq_in_place_grants,
        rep.seq_grants
    );

    let mesi = run_app(&Setup::bt_mesi(), &app, AppSize::Test, 0);
    assert_eq!(mesi.run.report.seq_in_place_grants, 0, "the baseline runtime never waits on a ULI");

    let mut armed = Setup::bt_hcc(Protocol::GpuWb, true);
    armed.sys = armed.sys.clone().with_heartbeat(Heartbeat::new(100, Arc::new(|_snap| {})));
    let armed = run_app(&armed, &app, AppSize::Test, 0);
    let armed_rep = &armed.run.report;
    assert_eq!(armed_rep.seq_in_place_grants, 0, "a heartbeat needs every grantee awake");
    assert_eq!(
        (armed_rep.seq_grants, armed_rep.seq_op_hash, armed.cycles),
        (rep.seq_grants, rep.seq_op_hash, dts.cycles),
        "serving polls in place changed the grant stream"
    );
}
