//! Golden determinism pins for the engine.
//!
//! Each cell of `tests/pins/golden.txt` hashes the full sequenced-op
//! stream — every `(time, core)` token grant the `Sequencer` issues, in
//! grant order — for one protocol × representative kernel at the fixed
//! default seed, plus the end-to-end simulated cycle count. The hashes were
//! captured before the engine fast paths (sequencer re-grant, compute
//! coalescing) landed, so a match proves those wall-clock optimizations are
//! bit-for-bit invisible to simulated results. A change *meant* to alter
//! simulated timing re-pins by copying the observed table the failing test
//! writes (see `bigtiny_tests::pins`); otherwise a mismatch here is a bug.

mod golden;

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, run_judged, Setup};
use bigtiny_engine::{ExecBackend, Protocol};
use bigtiny_tests::pins;

use golden::{replay, setup_by_label, KERNELS, SETUPS};

#[test]
fn sequenced_op_stream_matches_golden_hashes() {
    let mut observed = pins::Table::new("cell cycles op_hash");
    for kernel in KERNELS {
        let app = app_by_name(kernel).unwrap();
        for setup in SETUPS {
            let r = run_app(&setup_by_label(setup), &app, AppSize::Test, 0);
            let values = [r.cycles.to_string(), pins::hex(r.run.report.seq_op_hash)];
            observed.row(format!("{kernel} @ {setup}"), values);
        }
    }
    pins::check("golden", &observed);
}

/// The backends share the sequencer's grant-selection rule and differ only
/// in how a blocked core yields the host CPU, and the watchdog only counts
/// grants and idle charges: both replay the golden pins, and `Auto`
/// stays on fibers where they are supported.
#[test]
fn both_backends_produce_identical_op_streams() {
    replay(&["plain", "watchdog"]);
}

/// Arming the DRF checker's event capture moves no golden pin.
#[test]
fn armed_checker_changes_no_golden_pin() {
    replay(&["checker"]);
}

/// Arming trace, attribution and task events moves no golden pin.
#[test]
fn armed_observability_changes_no_golden_pin() {
    replay(&["observability"]);
}

/// A flight ring of capacity 0 or 4x the default, and a heartbeat every
/// 100 grants, move no golden pin on either backend.
#[test]
fn flight_ring_and_heartbeat_change_no_golden_pin() {
    replay(&["ring-off", "ring-4x", "heartbeat"]);
}

/// Crash-armed runs inherit the full determinism contract: the same fault
/// seed replays the same crash schedule, the same recovery actions, the
/// same metrics document, and the same crash-audit verdict — across
/// repeated runs and across both execution backends. Recovery is scheduled
/// work like any other; nothing about it may depend on host timing.
#[test]
fn crash_runs_pin_metrics_and_audit_verdict_across_backends() {
    use bigtiny_engine::FaultPlan;
    use bigtiny_obs::{metrics_document, RunMetrics};

    let app = app_by_name("cilk5-nq").unwrap();
    let run_once = |backend: ExecBackend| {
        let mut setup = setup_by_label("b.T/HCC-DTS-gwb");
        // The watchdog is observational: armed, with both of its rules
        // counting, it never perturbs simulated results on any backend.
        setup.sys = setup
            .sys
            .clone()
            .with_faults(FaultPlan::by_name("crash-storm", 11).unwrap())
            .with_backend(backend)
            .with_watchdog(2_000_000);
        setup.rt.record_task_events = true;
        let (r, verdict) = run_judged(&setup, &app, AppSize::Test, 0);
        let audit = verdict.audit.expect("the run records its task events");
        let doc = metrics_document(&[RunMetrics {
            app: r.app,
            setup: &r.setup,
            deque_policy: r.deque_policy,
            run: &r.run,
            tiny_cores: &r.tiny_cores,
        }])
        .to_json();
        (r.cycles, r.run.report.seq_op_hash, audit.verdict_hash(), doc)
    };

    let a = run_once(ExecBackend::Threads);
    let b = run_once(ExecBackend::Threads);
    assert_eq!(a.0, b.0, "crash-armed cycles are run-to-run stable");
    assert_eq!(a.1, b.1, "crash-armed op stream is run-to-run stable");
    assert_eq!(a.2, b.2, "crash-audit verdict is run-to-run stable");
    assert_eq!(a.3, b.3, "crash-armed metrics document is run-to-run stable");
    assert_ne!(a.2, 0, "verdict hash folds real counts");
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        let c = run_once(ExecBackend::Fibers);
        assert_eq!(a, c, "fiber backend agrees bit-for-bit under a crash storm");
    }
}

#[test]
fn op_hash_is_run_to_run_stable() {
    let app = app_by_name("cilk5-nq").unwrap();
    let setup = Setup::bt_hcc(Protocol::DeNovo, true);
    let a = run_app(&setup, &app, AppSize::Test, 0);
    let b = run_app(&setup, &app, AppSize::Test, 0);
    assert_eq!(a.run.report.seq_op_hash, b.run.report.seq_op_hash);
    assert_eq!(a.cycles, b.cycles);
    assert_ne!(a.run.report.seq_op_hash, 0, "hash must fold real grants");
}
