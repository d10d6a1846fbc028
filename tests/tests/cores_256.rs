//! The paper's 256-core configuration (Table V) end to end, at test size.
//!
//! Two guarantees are pinned down here, both past the old 64-core ceiling:
//!
//! 1. A fail-stop crash of core 200 — a core id no `u64` bitmask can hold —
//!    is taken, detected, and recovered from with a clean crash audit. This
//!    is the regression test for the silent `core < 64` guard that used to
//!    make every crash plan above core 63 a no-op.
//! 2. The fiber backend replays the 256-core runs bit for bit against the
//!    one-thread-per-core reference backend.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::{ExecBackend, FaultPlan, Protocol};

/// A crash plan that dooms exactly core 200 — representable only since
/// `crash_cores` became a growable [`bigtiny_mesh::CoreSet`].
fn crash_core_200(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    plan.seed = seed;
    plan.crash_cores.insert(200);
    plan.crash_at_cycle = 1500;
    plan
}

/// Core 200 of the 256-core DTS machine dies mid-run: the crash must be
/// taken (not silently skipped), and the judge must pass the run — its
/// at-least-once task-event audit included: every task spawned by or
/// stolen from the dead core re-executed exactly once.
#[test]
fn crash_of_core_200_recovers_with_clean_audit() {
    let app = app_by_name("cilk5-nq").unwrap();
    let mut setup = Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts);
    setup.sys = setup.sys.clone().with_faults(crash_core_200(7)).with_watchdog(2_000_000);
    setup.rt.record_task_events = true;
    let r = run_app(&setup, &app, AppSize::Test, 0);
    assert_eq!(
        r.run.report.fault_counters.crashes, 1,
        "the core-200 crash must actually fire (the old u64 mask dropped it)"
    );
}

/// The same core-200 crash schedule replays bit for bit run to run: crash
/// recovery past core 64 is scheduled work like any other.
#[test]
fn crash_of_core_200_is_deterministic() {
    let app = app_by_name("cilk5-nq").unwrap();
    let run_once = || {
        let mut setup = Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts);
        setup.sys = setup.sys.clone().with_faults(crash_core_200(7));
        let r = run_app(&setup, &app, AppSize::Test, 0);
        (r.cycles, r.run.report.seq_op_hash, r.run.report.fault_counters)
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a, b, "core-200 crash runs must be run-to-run stable");
    assert_eq!(a.2.crashes, 1);
}

/// The fiber backend on the 256-core machine: the exact same sequenced-op
/// stream, cycle count, per-core history and traffic as the reference
/// backend.
#[test]
fn fibers_backend_matches_threads_on_256_cores() {
    if !cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        eprintln!("skipping: the fiber backend needs x86_64 linux");
        return;
    }
    let app = app_by_name("ligra-bfs").unwrap();
    let run_once = |backend: ExecBackend| {
        let mut setup = Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts);
        setup.sys = setup.sys.clone().with_backend(backend).with_watchdog(2_000_000);
        run_app(&setup, &app, AppSize::Test, 0)
    };
    let a = run_once(ExecBackend::Threads);
    let b = run_once(ExecBackend::Fibers);
    assert_eq!(a.cycles, b.cycles, "the fiber backend must not change simulated time");
    assert_eq!(
        a.run.report.seq_op_hash, b.run.report.seq_op_hash,
        "the fiber backend must replay the exact grant stream"
    );
    assert_eq!(a.run.report.core_cycles, b.run.report.core_cycles);
    assert_eq!(a.run.report.instructions, b.run.report.instructions);
    assert_eq!(a.run.report.traffic, b.run.report.traffic);
}
