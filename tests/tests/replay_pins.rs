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
//! A moved pin (`tests/pins/replay.txt`) means a core's local history
//! moved: find out why before re-pinning.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_engine::hash::{fnv1a_continue, fold_u64, FNV_OFFSET};
use bigtiny_engine::{ExecBackend, FaultPlan, Protocol, RunReport, TimeBreakdown, UliMarkKind};
use bigtiny_tests::pins;

/// The cells, on `b.T/HCC-DTS-gwb` at `AppSize::Test`, each run on both
/// backends: the start-up wave always ends in the sequencer's pick loop, so
/// which thread arrives last classifies no grant.
const APPS: [&str; 2] = ["cilk5-nq", "ligra-bfs"];
const PLANS: [&str; 3] = ["none", "hostile", "crash-storm"];

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
                UliMarkKind::ReqLost { from } => (4, from),
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
    use ExecBackend::{Fibers, Threads};
    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let mut observed = pins::Table::new("cell local_fold stream_fold seq_grants seq_fast_grants");
    let mut diverged = Vec::new();
    let runs = [(Fibers, true), (Fibers, false), (Threads, true)];
    for app_name in APPS {
        let app = app_by_name(app_name).unwrap();
        for plan in PLANS {
            // The row is the first run's, armed; every other run must agree
            // with it. Arming only adds streams (the golden `observability`
            // variant pins that), so the unarmed run, on the default backend
            // only, is held to everything but the stream.
            let mut row: Vec<String> = Vec::new();
            for &(backend, armed) in runs.iter().filter(|r| fibers_supported || r.0 == Threads) {
                let r = run_app(&setup_for(plan, backend, armed), &app, AppSize::Test, 0);
                let rep = &r.run.report;
                let ctx = format!("{app_name} under {plan} on {backend:?}, armed {armed}");
                let mut got = vec![
                    pins::hex(local_fold(rep)),
                    pins::hex(stream_fold(rep)),
                    rep.seq_grants.to_string(),
                    rep.seq_fast_grants.to_string(),
                ];
                if armed {
                    assert!(rep.traces.iter().any(|t| !t.is_empty()), "{ctx}: no trace");
                    assert!(rep.uli_marks.iter().any(|m| !m.is_empty()), "{ctx}: no ULI marks");
                } else {
                    got[1].clone_from(&row[1]);
                }
                if row.is_empty() {
                    row = got;
                } else if got != row {
                    diverged.push(format!("{ctx}: {got:?}, first run {row:?}"));
                }
            }
            observed.row(format!("{app_name} / {plan}"), row);
        }
    }
    pins::check("replay", &observed);
    assert!(
        diverged.is_empty(),
        "a core's local history depends on the backend:\n  {}",
        diverged.join("\n  ")
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
