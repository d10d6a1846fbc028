//! Watchdog behaviour through `run_system`: the idle-spin rule catches a
//! core that spins in purely local (unsequenced) code, and the whole
//! machine unwinds into a diagnostic bundle instead of hanging — on every
//! execution backend, at the same core and cycle, since the spinning core's
//! own port counts its spins in simulated time.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bigtiny_engine::{
    run_system, try_run_system, CorePort, ExecBackend, PoisonReason, SystemConfig, TimeCategory,
    Worker, MAX_IDLE_CHARGES, WATCHDOG_MSG,
};

/// The backends of this host: threads everywhere, fibers on x86_64 Linux.
fn backends() -> Vec<ExecBackend> {
    let mut all = vec![ExecBackend::Threads];
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        all.push(ExecBackend::Fibers);
    }
    all
}

/// A two-big-core machine on `backend` with the watchdog armed.
fn armed(backend: ExecBackend, budget: u64) -> SystemConfig {
    SystemConfig::o3(2).with_watchdog(budget).with_backend(backend)
}

/// Core 1 burns idle cycles forever and never enters the sequencer, so no
/// grant can ever happen; core 1 trips on its own idle spins and the
/// poison wakes the parked core 0 to unwind.
#[test]
fn host_spin_outside_sequencer_trips_wall_clock_and_unwinds() {
    for backend in backends() {
        let config = armed(backend, 1_000_000);

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
        let payload = result.expect_err("a grant-free spin must trip the idle-spin rule");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("watchdog panic carries the diagnostic bundle");
        assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
        assert!(msg.contains("core   0"), "per-core state for core 0: {msg}");
        assert!(msg.contains("core   1"), "per-core state for core 1: {msg}");
    }
}

/// A slow-but-progressing run must never be poisoned, however slow the
/// host: the token holder spends host time sleeping and computing locally
/// between sequenced ops while the other core sits parked in the
/// sequencer, and the run completes, since no watchdog rule reads a clock
/// of the host.
#[test]
fn grants_slower_than_wall_clock_window_complete_unpoisoned() {
    for backend in backends() {
        let config = armed(backend, 1_000_000);

        let slow: Worker = Box::new(|port| {
            for _ in 0..3 {
                // Host time passes with no grant anywhere, and local compute
                // trickles in (each advance exceeds the coalescing
                // threshold, so it charges immediately).
                for _ in 0..12 {
                    port.advance(20_000);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                port.is_done(); // one sequenced op: a trickling grant
            }
            port.set_done();
        });
        let waiter: Worker = Box::new(|port| {
            // Waits in the sequencer far in the future while the slow core
            // computes.
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
/// the watchdog or wedge dispatch: the survivor keeps granting and
/// completes. (Before dead-core retirement was taught to the sequencer, a
/// mid-run exit like this could leave the waiting set expecting a grant
/// that never comes.)
#[test]
fn quarantined_dead_core_never_trips_wall_clock_fallback() {
    for backend in backends() {
        let config = armed(backend, 1_000_000);

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
        let config = armed(backend, 5_000);

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
/// without tripping: an idle loop that takes a grant per round never
/// reaches the idle-spin limit.
#[test]
fn finishing_run_never_trips_wall_clock() {
    for backend in backends() {
        let config = armed(backend, 1_000_000);

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

/// An idle loop that takes a grant every round may idle for ever: each
/// sequenced op ends the spin, so `MAX_IDLE_CHARGES` rounds of an idle
/// charge and a poll (which charges idle time too) never trip.
#[test]
fn idle_loops_that_take_a_grant_per_round_never_trip() {
    for backend in backends() {
        let config = SystemConfig::o3(1).with_watchdog(u64::MAX).with_backend(backend);
        let worker: Worker = Box::new(|port| {
            for _ in 0..MAX_IDLE_CHARGES {
                port.idle(1);
                port.is_done();
            }
            port.set_done();
        });
        assert!(try_run_system(&config, vec![worker]).is_ok(), "{backend:?}");
    }
}

/// Runs `workers` on `cores` big cores on every backend, twice each, with
/// the watchdog armed at a budget no grant stream here can spend, and
/// returns the one trip reason they must all agree on.
fn idle_trip(cores: usize, workers: fn() -> Vec<Worker>) -> PoisonReason {
    let mut reasons = Vec::new();
    for backend in backends() {
        for _ in 0..2 {
            let config = SystemConfig::o3(cores).with_watchdog(1_000_000).with_backend(backend);
            let failure = try_run_system(&config, workers()).expect_err("an idle spin must trip");
            assert!(failure.panic.is_none(), "{backend:?}: a trip is its own cause");
            reasons.push(failure.bundle.reason);
        }
    }
    assert!(reasons.windows(2).all(|w| w[0] == w[1]), "same trip everywhere: {reasons:?}");
    reasons[0]
}

/// Spins on `idle(1)` forever without a sequenced op.
fn spin(port: &mut CorePort) {
    loop {
        port.idle(1);
    }
}

/// A one-core run has no second core to wait in the sequencer: the only
/// core spins idle, and trips on its own spins, before the charge that
/// would be one too many.
#[test]
fn a_one_core_idle_spinner_trips_on_every_backend() {
    let reason = idle_trip(1, || vec![Box::new(spin)]);
    assert_eq!(reason, PoisonReason::Watchdog { core: 0, time: MAX_IDLE_CHARGES });
}

/// Core 0 spins before its first sequenced op. On the fiber backend the
/// launcher never gets to start core 1; on threads core 1 waits for a
/// grant that never comes. Either way core 0 trips at the same cycle.
#[test]
fn a_spin_before_the_first_sequenced_op_trips_on_every_backend() {
    let reason = idle_trip(2, || {
        let waiter: Worker = Box::new(|port| {
            while !port.is_done() {
                port.idle(50);
            }
        });
        vec![Box::new(spin), waiter]
    });
    assert_eq!(reason, PoisonReason::Watchdog { core: 0, time: MAX_IDLE_CHARGES });
}
