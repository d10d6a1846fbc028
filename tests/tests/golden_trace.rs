//! Golden determinism pins for the engine.
//!
//! Each entry hashes the full sequenced-op stream — every `(time, core)`
//! token grant the `Sequencer` issues, in grant order — for one protocol ×
//! representative kernel at the fixed default seed, plus the end-to-end
//! simulated cycle count. The hashes below were captured before the engine
//! fast paths (sequencer re-grant, compute coalescing) landed, so a match
//! proves those wall-clock optimizations are bit-for-bit invisible to
//! simulated results. Future engine PRs inherit the guard: if a change is
//! *meant* to alter simulated timing, update the table (the failing
//! assertion prints the observed `(cycles, hash)`) with a note in the PR;
//! if it isn't, a mismatch here is a bug.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, run_judged, Setup};
use bigtiny_engine::Protocol;

/// `(kernel, setup label, simulated cycles, sequenced-op-stream hash)` at
/// `AppSize::Test`, default seed, default grain.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    // cilk5-nq pins re-captured after the kernel moved to crash-tolerant
    // slot-keyed result placement (idempotent re-execution discipline),
    // which changes its memory access pattern and thus simulated timing.
    ("cilk5-nq", "b.T/MESI", 7808, 0x7cc8_52c9_2c4f_0918),
    ("cilk5-nq", "b.T/HCC-DTS-dnv", 7605, 0x2915_0624_3f55_68bb),
    ("cilk5-nq", "b.T/HCC-DTS-gwt", 8096, 0x3e56_d2df_ec25_e841),
    ("cilk5-nq", "b.T/HCC-DTS-gwb", 6350, 0x1509_ceed_9a81_bda9),
    ("cilk5-mm", "b.T/MESI", 17000, 0x63c9_0ddb_29fb_7035),
    ("cilk5-mm", "b.T/HCC-DTS-dnv", 16781, 0x91b5_3ab6_61df_c838),
    ("cilk5-mm", "b.T/HCC-DTS-gwt", 17531, 0x5311_8468_369a_19db),
    ("cilk5-mm", "b.T/HCC-DTS-gwb", 19227, 0xadf2_ba2b_2ec5_a127),
    ("ligra-bfs", "b.T/MESI", 19945, 0xf532_cb4f_96b3_9f7c),
    ("ligra-bfs", "b.T/HCC-DTS-dnv", 23200, 0x6860_8335_6e60_d76a),
    ("ligra-bfs", "b.T/HCC-DTS-gwt", 22096, 0x4814_806a_746e_12f9),
    ("ligra-bfs", "b.T/HCC-DTS-gwb", 22190, 0x32b3_7afd_1f96_2a4b),
];

fn setup_by_label(label: &str) -> Setup {
    match label {
        "b.T/MESI" => Setup::bt_mesi(),
        "b.T/HCC-DTS-dnv" => Setup::bt_hcc(Protocol::DeNovo, true),
        "b.T/HCC-DTS-gwt" => Setup::bt_hcc(Protocol::GpuWt, true),
        "b.T/HCC-DTS-gwb" => Setup::bt_hcc(Protocol::GpuWb, true),
        other => panic!("unknown golden setup {other}"),
    }
}

#[test]
fn sequenced_op_stream_matches_golden_hashes() {
    let mut failures = Vec::new();
    for &(app_name, setup_label, want_cycles, want_hash) in GOLDEN {
        let app = app_by_name(app_name).unwrap();
        let setup = setup_by_label(setup_label);
        let r = run_app(&setup, &app, AppSize::Test, 0);
        let got_hash = r.run.report.seq_op_hash;
        if r.cycles != want_cycles || got_hash != want_hash {
            failures.push(format!(
                "{app_name} on {setup_label}: cycles {} (want {want_cycles}), \
                 op hash {got_hash:#018x} (want {want_hash:#018x})",
                r.cycles
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "sequenced-op stream diverged from golden pins:\n  {}",
        failures.join("\n  ")
    );
}

/// Both execution backends (one OS thread per core, stackful fibers on one
/// thread) must replay the exact same grant stream: they share the
/// sequencer's grant-selection rule and differ only in how a blocked core
/// yields the host CPU. Pinning both against the same table proves the
/// fiber fast path cannot change a single simulated cycle — with
/// the watchdog disarmed, and again with it armed and its wall-clock
/// monitor thread alive beside the cores (the watchdog only observes).
#[test]
fn both_backends_produce_identical_op_streams() {
    use bigtiny_engine::{backend_label, ExecBackend};
    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let mut failures = Vec::new();
    for &(app_name, setup_label, want_cycles, want_hash) in
        GOLDEN.iter().filter(|g| g.0 == "cilk5-nq")
    {
        let app = app_by_name(app_name).unwrap();
        let mut cells = Vec::new();
        for backend in [ExecBackend::Threads, ExecBackend::Fibers] {
            if backend == ExecBackend::Threads || fibers_supported {
                cells.extend([(backend, None), (backend, Some(2_000_000))]);
            }
        }
        // `Auto` resolves to fibers whether or not a watchdog is armed.
        cells.push((ExecBackend::Auto, Some(2_000_000)));
        for (backend, watchdog) in cells {
            let mut setup = setup_by_label(setup_label);
            setup.sys = setup.sys.clone().with_backend(backend);
            setup.sys.watchdog_budget = watchdog;
            if backend == ExecBackend::Auto
                && fibers_supported
                && std::env::var_os("BIGTINY_BACKEND").is_none()
            {
                assert_eq!(backend_label(&setup.sys), "fibers", "Auto + watchdog stays on fibers");
            }
            let r = run_app(&setup, &app, AppSize::Test, 0);
            if r.cycles != want_cycles || r.run.report.seq_op_hash != want_hash {
                failures.push(format!(
                    "{app_name} on {setup_label} with {backend:?}, watchdog {watchdog:?}: cycles \
                     {} (want {want_cycles}), op hash {:#018x} (want {want_hash:#018x})",
                    r.cycles, r.run.report.seq_op_hash
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "backends diverged from golden pins:\n  {}",
        failures.join("\n  ")
    );
}

/// Arming the DRF checker must be bit-for-bit invisible to simulation:
/// event capture observes the op stream but never perturbs timing, so a
/// fully armed run replays the exact golden cycles and grant hashes while
/// actually collecting a non-empty event stream, which the judge then
/// passes.
#[test]
fn armed_checker_changes_no_golden_pin() {
    use bigtiny_engine::CheckMode;
    let mut failures = Vec::new();
    for &(app_name, setup_label, want_cycles, want_hash) in
        GOLDEN.iter().filter(|g| g.0 == "cilk5-nq" || g.0 == "ligra-bfs")
    {
        let app = app_by_name(app_name).unwrap();
        let mut setup = setup_by_label(setup_label);
        setup.sys = setup.sys.clone().with_check(CheckMode::Full);
        let (r, verdict) = run_judged(&setup, &app, AppSize::Test, 0);
        if r.cycles != want_cycles || r.run.report.seq_op_hash != want_hash {
            failures.push(format!(
                "{app_name} on {setup_label} armed: cycles {} (want {want_cycles}), \
                 op hash {:#018x} (want {want_hash:#018x})",
                r.cycles, r.run.report.seq_op_hash
            ));
        }
        let events = verdict.drf.map_or(0, |report| report.events);
        assert!(events > 0, "{app_name} on {setup_label}: armed run captured no events");
    }
    assert!(
        failures.is_empty(),
        "arming the checker perturbed simulated results:\n  {}",
        failures.join("\n  ")
    );
}

/// Arming the full observability stack — per-core tracing, ULI protocol
/// marks, task-event recording, and per-task cycle attribution — must
/// likewise be bit-for-bit invisible: telemetry only ever reads the
/// simulated clock and writes host-side buffers. An armed run replays the
/// exact golden cycles and grant hashes while actually collecting a
/// non-empty trace, ULI marks, task events, and attribution spans.
#[test]
fn armed_observability_changes_no_golden_pin() {
    let mut failures = Vec::new();
    for &(app_name, setup_label, want_cycles, want_hash) in
        GOLDEN.iter().filter(|g| g.0 == "cilk5-nq" || g.0 == "ligra-bfs")
    {
        let app = app_by_name(app_name).unwrap();
        let mut setup = setup_by_label(setup_label);
        setup.sys.trace = true;
        setup.sys.attr = true;
        setup.rt.record_task_events = true;
        let r = run_app(&setup, &app, AppSize::Test, 0);
        if r.cycles != want_cycles || r.run.report.seq_op_hash != want_hash {
            failures.push(format!(
                "{app_name} on {setup_label} armed: cycles {} (want {want_cycles}), \
                 op hash {:#018x} (want {want_hash:#018x})",
                r.cycles, r.run.report.seq_op_hash
            ));
        }
        let spans: usize = r.run.report.traces.iter().map(Vec::len).sum();
        assert!(spans > 0, "{app_name} on {setup_label}: armed run captured no trace spans");
        assert!(
            !r.run.task_events.is_empty(),
            "{app_name} on {setup_label}: armed run recorded no task events"
        );
        assert!(
            r.run.report.attr_spans.iter().any(|s| !s.is_empty()),
            "{app_name} on {setup_label}: armed run recorded no attribution spans"
        );
        if setup_label != "b.T/MESI" {
            let marks: usize = r.run.report.uli_marks.iter().map(Vec::len).sum();
            assert!(marks > 0, "{app_name} on {setup_label}: DTS run recorded no ULI marks");
        }
        // The flight recorder is always-on (default ring capacity): the
        // same armed run must also have retained per-core tails, each in
        // non-decreasing time order — the black box is usable as-is.
        assert!(
            r.run.report.flight.iter().any(|t| !t.is_empty()),
            "{app_name} on {setup_label}: default-armed run retained no flight events"
        );
        for (core, tail) in r.run.report.flight.iter().enumerate() {
            assert!(
                tail.windows(2).all(|w| w[0].time <= w[1].time),
                "{app_name} on {setup_label}: core {core} flight tail out of time order"
            );
            assert!(
                r.run.report.flight_totals[core] >= tail.len() as u64,
                "{app_name} on {setup_label}: core {core} total below retained tail"
            );
        }
    }
    assert!(
        failures.is_empty(),
        "arming observability perturbed simulated results:\n  {}",
        failures.join("\n  ")
    );
}

/// The live-telemetry layer must be bit-for-bit invisible too, on every
/// backend: turning the flight ring off, growing it past its default, or
/// arming a heartbeat sink all replay the exact golden cycles and grant
/// hashes. The ring only reads already-computed core clocks and the
/// heartbeat only observes grant boundaries — neither sequences an op nor
/// charges a cycle.
#[test]
fn flight_ring_and_heartbeat_change_no_golden_pin() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use bigtiny_engine::{ExecBackend, Heartbeat, DEFAULT_FLIGHT_CAPACITY};

    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let mut failures = Vec::new();
    for &(app_name, setup_label, want_cycles, want_hash) in
        GOLDEN.iter().filter(|g| g.0 == "cilk5-nq")
    {
        let app = app_by_name(app_name).unwrap();
        for backend in [ExecBackend::Threads, ExecBackend::Fibers] {
            if backend != ExecBackend::Threads && !fibers_supported {
                continue;
            }
            let beats = Arc::new(AtomicU64::new(0));
            let sink_beats = Arc::clone(&beats);
            let variants: [(&str, Setup); 3] = [
                ("ring-off", {
                    let mut s = setup_by_label(setup_label);
                    s.sys = s.sys.clone().with_flight_ring(0);
                    s
                }),
                ("ring-4x", {
                    let mut s = setup_by_label(setup_label);
                    s.sys = s.sys.clone().with_flight_ring(4 * DEFAULT_FLIGHT_CAPACITY);
                    s
                }),
                ("heartbeat", {
                    let mut s = setup_by_label(setup_label);
                    s.sys = s.sys.clone().with_heartbeat(Heartbeat::new(
                        100,
                        Arc::new(move |_snap| {
                            sink_beats.fetch_add(1, Ordering::Relaxed);
                        }),
                    ));
                    s
                }),
            ];
            for (variant, mut setup) in variants {
                setup.sys = setup.sys.clone().with_backend(backend);
                let r = run_app(&setup, &app, AppSize::Test, 0);
                if r.cycles != want_cycles || r.run.report.seq_op_hash != want_hash {
                    failures.push(format!(
                        "{app_name} on {setup_label} [{variant}, {backend:?}]: cycles {} (want \
                         {want_cycles}), op hash {:#018x} (want {want_hash:#018x})",
                        r.cycles, r.run.report.seq_op_hash
                    ));
                }
                match variant {
                    "ring-off" => assert!(
                        r.run.report.flight.iter().all(Vec::is_empty)
                            && r.run.report.flight_totals.iter().all(|&t| t == 0),
                        "{setup_label} [{backend:?}]: capacity-0 ring recorded events"
                    ),
                    _ => assert!(
                        r.run.report.flight.iter().any(|t| !t.is_empty()),
                        "{setup_label} [{variant}, {backend:?}]: armed ring retained nothing"
                    ),
                }
            }
            assert!(
                beats.load(Ordering::Relaxed) > 0,
                "{setup_label} [{backend:?}]: heartbeat sink never fired"
            );
        }
    }
    assert!(
        failures.is_empty(),
        "live telemetry perturbed simulated results:\n  {}",
        failures.join("\n  ")
    );
}

/// Crash-armed runs inherit the full determinism contract: the same fault
/// seed replays the same crash schedule, the same recovery actions, the
/// same metrics document, and the same crash-audit verdict — across
/// repeated runs and across both execution backends. Recovery is scheduled
/// work like any other; nothing about it may depend on host timing.
#[test]
fn crash_runs_pin_metrics_and_audit_verdict_across_backends() {
    use bigtiny_engine::{ExecBackend, FaultPlan};
    use bigtiny_obs::{metrics_document, RunMetrics};

    let app = app_by_name("cilk5-nq").unwrap();
    let run_once = |backend: ExecBackend| {
        let mut setup = setup_by_label("b.T/HCC-DTS-gwb");
        // The watchdog is observational: armed, with its monitor thread
        // alive, it never perturbs simulated results on any backend.
        setup.sys = setup
            .sys
            .clone()
            .with_faults(FaultPlan::crash_storm(11))
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
