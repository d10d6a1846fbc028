//! Watchdog behaviour through `run_system`: the wall-clock fallback catches
//! a core that spins in purely local (unsequenced) host code, and the whole
//! machine unwinds into a diagnostic bundle instead of hanging — on every
//! execution backend, since the fallback is one monitor thread beside the
//! cores rather than a duty of parked core threads.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bigtiny_engine::{run_system, ExecBackend, SystemConfig, TimeCategory, Worker, WATCHDOG_MSG};

/// The backends of this host: threads everywhere, fibers on x86_64 Linux.
fn backends() -> Vec<ExecBackend> {
    let mut all = vec![ExecBackend::Threads];
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        all.push(ExecBackend::Fibers);
    }
    all
}

/// A two-big-core machine on `backend` with the watchdog armed.
fn armed(backend: ExecBackend, budget: u64, wall_ms: u64) -> SystemConfig {
    let mut config = SystemConfig::o3(2).with_watchdog(budget).with_backend(backend);
    config.watchdog_wall_ms = wall_ms;
    config
}

/// Core 1 burns local cycles forever and never enters the sequencer, so no
/// grant can ever happen; the wall-clock monitor trips on behalf of the
/// parked core and the poison flag unwinds the spinner (which holds no lock,
/// and on the single-thread fiber backend also holds the only host thread).
#[test]
fn host_spin_outside_sequencer_trips_wall_clock_and_unwinds() {
    for backend in backends() {
        let config = armed(backend, 1_000_000, 200);

        let waiter: Worker = Box::new(|port| {
            while !port.is_done() {
                port.idle(50);
            }
        });
        let spinner: Worker = Box::new(|port| loop {
            port.wait_cycles(1024, TimeCategory::Idle);
        });

        let result = catch_unwind(AssertUnwindSafe(|| {
            run_system(&config, vec![waiter, spinner]);
        }));
        let payload = result.expect_err("a grant-free run must trip the wall-clock fallback");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("watchdog panic carries the diagnostic bundle");
        assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
        assert!(msg.contains("core   0"), "per-core state for core 0: {msg}");
        assert!(msg.contains("core   1"), "per-core state for core 1: {msg}");
    }
}

/// A slow-but-progressing run must never be poisoned: here grants trickle
/// in slower than the wall-clock window (the token holder spends several
/// windows of host time on purely local compute between sequenced ops,
/// while the other core sits parked in the sequencer), yet the run
/// completes because productive local charges count as liveness evidence.
#[test]
fn grants_slower_than_wall_clock_window_complete_unpoisoned() {
    for backend in backends() {
        let config = armed(backend, 1_000_000, 25);

        let slow: Worker = Box::new(|port| {
            for _ in 0..3 {
                // >2 full wall-clock windows of host time with no grant
                // anywhere, but with local compute trickling in (each advance
                // exceeds the coalescing threshold, so it charges immediately).
                for _ in 0..12 {
                    port.advance(20_000);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                port.is_done(); // one sequenced op: a trickling grant
            }
            port.set_done();
        });
        let waiter: Worker = Box::new(|port| {
            // Waits in the sequencer far in the future; wall-clock windows
            // keep elapsing with zero grants while the slow core computes.
            while !port.is_done() {
                port.idle(1_000_000);
            }
        });
        let report = run_system(&config, vec![slow, waiter]);
        assert!(report.seq_grants > 0);
    }
}

/// A core that fail-stops mid-run goes permanently silent — no grants, no
/// activity, ever again — but its silence is *expected* and must not trip
/// the wall-clock fallback or wedge dispatch: the survivor keeps granting
/// against an aggressive wall window and completes. (Before dead-core
/// retirement was taught to the sequencer, a mid-run exit like this could
/// leave the waiting set expecting a grant that never comes.)
#[test]
fn quarantined_dead_core_never_trips_wall_clock_fallback() {
    for backend in backends() {
        let config = armed(backend, 1_000_000, 100);

        let survivor: Worker = Box::new(|port| {
            for _ in 0..500 {
                port.advance(10);
                port.is_done(); // sequenced op: the only grant source once core 1 dies
            }
            port.set_done();
        });
        let dier: Worker = Box::new(|port| {
            port.advance(50);
            port.crash_now();
            // Permanent fail-stop: the worker retires and never grants again.
        });
        let report = run_system(&config, vec![survivor, dier]);
        assert!(report.seq_grants > 0);
        assert_eq!(report.fault_counters.crashes, 1, "the crash was taken and counted");
    }
}

/// The flip side: a dead core must never *mask* a genuine hang. With core 1
/// dead and the survivor spinning idle without ever marking progress, the
/// deterministic budget still trips — and the diagnostic bundle labels the
/// dead core as dead, not as a suspect hung core.
#[test]
fn idle_spinning_survivor_still_trips_watchdog_despite_dead_core() {
    for backend in backends() {
        let config = armed(backend, 5_000, 60_000);

        let spinner: Worker = Box::new(|port| {
            while !port.is_done() {
                port.idle(50); // grants flow, but no progress is ever marked
            }
        });
        let dier: Worker = Box::new(|port| {
            port.advance(50);
            port.crash_now();
        });
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_system(&config, vec![spinner, dier]);
        }));
        let payload = result.expect_err("a progress-free spin must trip the budget watchdog");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("watchdog panic carries the diagnostic bundle");
        assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
        assert!(msg.contains("[dead"), "bundle labels the fail-stopped core as dead: {msg}");
    }
}

/// The same machine with the spin replaced by a finishing worker completes
/// without tripping: the wall-clock fallback only fires when *nothing* is
/// granted for the whole window.
#[test]
fn finishing_run_never_trips_wall_clock() {
    for backend in backends() {
        let config = armed(backend, 1_000_000, 200);

        let a: Worker = Box::new(|port| {
            for _ in 0..100 {
                port.advance(10);
                port.is_done(); // sequenced op: keeps grants flowing
            }
            port.set_done();
        });
        let b: Worker = Box::new(|port| {
            while !port.is_done() {
                port.idle(10);
            }
        });
        let report = run_system(&config, vec![a, b]);
        assert!(report.seq_grants > 0);
    }
}
