//! Chaos suite: the simulator under deterministic fault injection, plus the
//! liveness watchdog and crash diagnostics on deliberately broken programs.
//!
//! Three guarantees are pinned down here:
//!
//! 1. `FaultPlan::none()` is free: arming the (empty) fault machinery changes
//!    nothing, bit for bit.
//! 2. Seeded fault plans are deterministic, and the hardened runtimes stay
//!    functionally correct — same results, zero stale reads, no hangs — under
//!    every plan, on every runtime variant.
//! 3. A program that cannot make progress is *detected*, not hung: the
//!    watchdog trips and the panic carries per-core diagnostics.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bigtiny_apps::{app_by_name, AppSize, AppSpec};
use bigtiny_checker::{audit_task_events_mode, kernel_is_duplicate_safe, AuditMode};
use bigtiny_core::{run_task_parallel, DequeKind, RuntimeConfig, RuntimeKind, TaskRun};
use bigtiny_engine::{AddrSpace, FaultPlan, Protocol, SystemConfig, TimeCategory, WATCHDOG_MSG};
use bigtiny_mesh::{MeshConfig, Topology, UliNetwork, UliOutcome};

fn sys(big: usize, tiny: usize, proto: Protocol) -> SystemConfig {
    SystemConfig::big_tiny(
        "chaos",
        MeshConfig::with_topology(Topology::new(4, 4)),
        big,
        tiny,
        proto,
    )
}

fn run(app: &AppSpec, sys: &SystemConfig, kind: RuntimeKind) -> TaskRun {
    let mut space = AddrSpace::new();
    let prepared = app.prepare_default(&mut space, AppSize::Test);
    let run = run_task_parallel(sys, &RuntimeConfig::new(kind), &mut space, prepared.root);
    if let Err(e) = (prepared.verify)() {
        panic!("{} on {}/{kind:?}: {e}", app.name, sys.name);
    }
    run
}

/// Everything deterministic a run produces, for bit-for-bit comparison.
#[allow(clippy::type_complexity)]
fn fingerprint(r: &TaskRun) -> (u64, Vec<u64>, Vec<u64>, u64, u64, u64, u64, u64, u64) {
    (
        r.report.completion_cycles,
        r.report.core_cycles.clone(),
        r.report.instructions.clone(),
        r.report.total_traffic_bytes(),
        r.report.uli.messages,
        r.report.seq_grants,
        r.stats.steals,
        r.stats.steal_attempts,
        r.stats.spawns,
    )
}

/// Arming `FaultPlan::none()` must be invisible: every cycle count, traffic
/// byte, and steal decision is identical to a run without the fault
/// machinery (three kernels, two machine configurations each).
#[test]
fn fault_plan_none_is_bit_for_bit_free() {
    for name in ["cilk5-cs", "ligra-bfs", "ligra-cc"] {
        let app = app_by_name(name).unwrap();
        for (cfg, kind) in [
            (sys(1, 7, Protocol::GpuWb), RuntimeKind::Dts),
            (sys(2, 6, Protocol::GpuWt), RuntimeKind::Hcc),
        ] {
            let bare = run(&app, &cfg, kind);
            let armed_cfg = cfg.clone().with_faults(FaultPlan::none());
            let armed = run(&app, &armed_cfg, kind);
            assert_eq!(
                fingerprint(&bare),
                fingerprint(&armed),
                "{name}/{kind:?}: FaultPlan::none() perturbed the run"
            );
            assert_eq!(armed.report.fault_counters.total(), 0, "{name}: nothing injected");
        }
    }
}

/// Every seeded fault plan, on every runtime variant: the run completes (no
/// hang), the kernel's output verifies, and DAG consistency holds.
#[test]
fn seeded_fault_plans_keep_every_runtime_correct() {
    let plans = [
        ("uli-drop-storm", FaultPlan::uli_drop_storm(0xC0FF_EE01)),
        ("steal-miss-storm", FaultPlan::steal_miss_storm(7)),
        ("mesh-latency-spikes", FaultPlan::mesh_latency_spikes(99)),
        ("hostile", FaultPlan::hostile(0x0BAD_5EED)),
    ];
    let app = app_by_name("cilk5-nq").unwrap();
    for (label, plan) in plans {
        for (kind, proto) in [
            (RuntimeKind::Baseline, Protocol::Mesi),
            (RuntimeKind::Hcc, Protocol::GpuWb),
            (RuntimeKind::Dts, Protocol::GpuWb),
        ] {
            let cfg = sys(1, 7, proto).with_faults(plan.clone());
            let r = run(&app, &cfg, kind);
            assert_eq!(r.report.stale_reads, 0, "{label}/{kind:?}: stale read under faults");
            assert!(r.report.completion_cycles > 0, "{label}/{kind:?}");
        }
    }
}

/// Fault injection is deterministic: the same plan and seed produce the same
/// injected faults and the same run, bit for bit; a different seed produces
/// a different fault pattern.
#[test]
fn fault_injection_is_deterministic_in_its_seed() {
    let app = app_by_name("cilk5-cs").unwrap();
    let go = |seed: u64| {
        let cfg = sys(1, 7, Protocol::GpuWb).with_faults(FaultPlan::hostile(seed));
        let r = run(&app, &cfg, RuntimeKind::Dts);
        (fingerprint(&r), r.report.fault_counters.total(), r.report.mesh_fault_spikes)
    };
    let a = go(42);
    let b = go(42);
    assert_eq!(a, b, "same seed, same run");
    assert!(a.1 + a.2 > 0, "the hostile plan must actually inject something");
    let c = go(43);
    assert_ne!((a.1, a.2), (c.1, c.2), "different seed, different fault pattern");
}

/// Cilksort under the hostile plan on all four protocols: the hardened DTS
/// retry paths (and the baseline runtime on MESI) stay functionally correct
/// under simultaneous ULI drops, NACKs, delays, steal misses, and mesh
/// latency spikes.
#[test]
fn cilksort_survives_hostile_faults_on_all_protocols() {
    let app = app_by_name("cilk5-cs").unwrap();
    for (kind, proto) in [
        (RuntimeKind::Baseline, Protocol::Mesi),
        (RuntimeKind::Dts, Protocol::DeNovo),
        (RuntimeKind::Dts, Protocol::GpuWt),
        (RuntimeKind::Dts, Protocol::GpuWb),
    ] {
        let cfg = sys(1, 7, proto).with_faults(FaultPlan::hostile(0x5EED));
        let r = run(&app, &cfg, kind);
        assert_eq!(r.report.stale_reads, 0, "{proto:?}: stale read under hostile faults");
        if kind == RuntimeKind::Dts {
            assert!(
                r.report.fault_counters.total() > 0,
                "{proto:?}: hostile plan injected nothing"
            );
        }
    }
}

/// Telemetry stays trustworthy under fault injection. Steal counters obey
/// the *adjusted* accounting invariant — `hits + misses` may exceed
/// `attempts` by at most the timed-out-then-late-hit double counts
/// (bounded by `uli_timeouts`), and may fall short by at most one
/// completion-race attempt per worker — and the recorded task-event
/// stream still reconstructs a well-formed spawn/join DAG even while ULI
/// drops, NACKs, and mesh spikes mangle the steal protocol underneath.
#[test]
fn telemetry_survives_fault_injection_with_consistent_accounting() {
    let plans = [
        ("uli-drop-storm", FaultPlan::uli_drop_storm(0xC0FF_EE01)),
        ("hostile", FaultPlan::hostile(0x0BAD_5EED)),
    ];
    let app = app_by_name("cilk5-nq").unwrap();
    for (label, plan) in plans {
        let cfg = sys(1, 7, Protocol::GpuWb).with_faults(plan);
        let mut rt = RuntimeConfig::new(RuntimeKind::Dts);
        rt.record_task_events = true;
        let mut space = AddrSpace::new();
        let prepared = app.prepare_default(&mut space, AppSize::Test);
        let r = run_task_parallel(&cfg, &rt, &mut space, prepared.root);
        if let Err(e) = (prepared.verify)() {
            panic!("{} under {label}: {e}", app.name);
        }

        let t = &r.telemetry;
        let workers = t.per_victim.len() as u64;
        let (attempts, hits, misses) = (t.total_attempts(), t.total_hits(), t.total_misses());
        let resolved = hits + misses;
        assert!(
            resolved + workers >= attempts,
            "{label}: {resolved} resolved outcomes for {attempts} attempts — more than \
             {workers} completion-race attempts vanished"
        );
        assert!(
            resolved <= attempts + r.stats.uli_timeouts,
            "{label}: {resolved} resolved outcomes exceed {attempts} attempts plus \
             {} timeout double counts",
            r.stats.uli_timeouts
        );
        assert!(
            r.stats.steal_nacks <= misses,
            "{label}: {} NACKs but only {misses} misses — NACKs must count as misses",
            r.stats.steal_nacks
        );
        // The victim-side grant counter can exceed thief-side hits only by
        // unclaimed completion-race grants (at most one per worker).
        assert!(
            hits <= r.stats.steals && r.stats.steals <= hits + workers,
            "{label}: {hits} claimed hits vs {} granted steals (workers {workers})",
            r.stats.steals
        );
        assert!(
            r.report.fault_counters.total() > 0,
            "{label}: plan injected nothing; the test is vacuous"
        );

        // The DAG checker must accept the stream recorded under fire:
        // faults may reorder and retry steals, never corrupt lifecycle
        // bookkeeping.
        let dag = bigtiny_obs::check_task_dag(&r.task_events)
            .unwrap_or_else(|e| panic!("{label}: malformed task DAG under faults: {e}"));
        assert_eq!(dag.tasks, dag.executed, "{label}: {dag:?} — spawned tasks never executed");
        assert_eq!(dag.steals, hits, "{label}: Stolen events must match claimed hits");
    }
}

/// The steal back-off cap is the configuration product
/// `steal_backoff_cycles * steal_backoff_max_factor`. The chaos fuzzer
/// drove that product past `u64::MAX`, which panicked debug builds with an
/// arithmetic overflow on the very first failed steal; the cap now
/// saturates ("effectively unbounded"). This pins the minimized repro: a
/// steal-miss storm guarantees failed steals, so the saturated cap is
/// actually exercised, and the run must still verify, stay free of stale
/// reads, and remain deterministic.
#[test]
fn steal_backoff_cap_saturates_on_overflowing_config() {
    let app = app_by_name("cilk5-nq").unwrap();
    let go = || {
        let cfg = sys(1, 7, Protocol::Mesi).with_faults(FaultPlan::steal_miss_storm(7));
        let mut rt = RuntimeConfig::new(RuntimeKind::Baseline);
        rt.steal_backoff_cycles = 2;
        rt.steal_backoff_max_factor = u64::MAX; // 2 * MAX overflows u64
        let mut space = AddrSpace::new();
        let prepared = app.prepare_default(&mut space, AppSize::Test);
        let r = run_task_parallel(&cfg, &rt, &mut space, prepared.root);
        if let Err(e) = (prepared.verify)() {
            panic!("overflowing back-off cap broke the run: {e}");
        }
        r
    };
    let a = go();
    assert!(
        a.stats.forced_steal_misses > 0,
        "the storm forced no misses; the saturated cap was never exercised"
    );
    assert_eq!(a.report.stale_reads, 0);
    let b = go();
    assert_eq!(fingerprint(&a), fingerprint(&b), "saturated back-off must stay deterministic");
}

/// The `duplicate_executions` counter is reserved for multiplicity-deque
/// duplicates: under the hostile and crash-storm fault plans on
/// exactly-once policies it must stay zero — crash respawns land in
/// `reexecutions`, never in `duplicate_executions`, so the two failure
/// modes stay separable in telemetry.
#[test]
fn fault_plans_never_inflate_duplicate_execution_counters() {
    let app = app_by_name("cilk5-nq").unwrap();
    let plans =
        [("hostile", FaultPlan::hostile(0x0BAD_5EED)), ("crash-storm", FaultPlan::crash_storm(3))];
    for (label, plan) in plans {
        for (kind, deque, proto) in [
            (RuntimeKind::Baseline, DequeKind::Locked, Protocol::Mesi),
            (RuntimeKind::Baseline, DequeKind::ChaseLev, Protocol::Mesi),
            (RuntimeKind::Dts, DequeKind::Locked, Protocol::GpuWb),
        ] {
            let cfg = sys(1, 7, proto).with_faults(plan.clone());
            let mut rt = RuntimeConfig::new(kind);
            rt.deque_kind = deque;
            let mut space = AddrSpace::new();
            let prepared = app.prepare_default(&mut space, AppSize::Test);
            let r = run_task_parallel(&cfg, &rt, &mut space, prepared.root);
            if let Err(e) = (prepared.verify)() {
                panic!("{label}/{kind:?}/{deque:?}: {e}");
            }
            assert_eq!(
                r.stats.duplicate_executions, 0,
                "{label}/{kind:?}/{deque:?}: fault-plan re-execution leaked into the \
                 multiplicity duplicate counter"
            );
            if label == "crash-storm" {
                assert!(
                    r.report.fault_counters.crashes > 0,
                    "{kind:?}/{deque:?}: the storm crashed nobody; the test is vacuous"
                );
            }
        }
    }
}

/// Steal accounting under the multiplicity deque policies: on every
/// software policy the victim-side grant counter stays within the
/// attempted steals, the recorded task events pass the policy's audit
/// (exactly-once for Chase-Lev, at-most-twice for fence-free and
/// idempotent), and the runtime's `duplicate_executions` counter agrees
/// with the duplicates the auditor reconstructs from the event stream —
/// both on the golden path and under a forced steal-miss storm.
#[test]
fn steal_accounting_bounds_hold_on_every_deque_policy() {
    let name = "cilk5-nq";
    assert!(kernel_is_duplicate_safe(name), "the kernel must tolerate at-most-twice");
    let app = app_by_name(name).unwrap();
    let plans = [("none", FaultPlan::none()), ("steal-miss-storm", FaultPlan::steal_miss_storm(7))];
    for (label, plan) in plans {
        for deque in
            [DequeKind::Locked, DequeKind::ChaseLev, DequeKind::FenceFree, DequeKind::Idempotent]
        {
            let cfg = sys(1, 7, Protocol::Mesi).with_faults(plan.clone());
            let mut rt = RuntimeConfig::new(RuntimeKind::Baseline);
            rt.deque_kind = deque;
            rt.record_task_events = true;
            let mut space = AddrSpace::new();
            let prepared = app.prepare_default(&mut space, AppSize::Test);
            let r = run_task_parallel(&cfg, &rt, &mut space, prepared.root);
            if let Err(e) = (prepared.verify)() {
                panic!("{label}/{deque:?}: {e}");
            }
            assert!(
                r.stats.steals <= r.stats.steal_attempts,
                "{label}/{deque:?}: {} grants for {} attempts",
                r.stats.steals,
                r.stats.steal_attempts
            );
            let mode = AuditMode::for_run(&rt, plan.crash_armed());
            let audit = audit_task_events_mode(&r.task_events, mode, name);
            assert!(audit.is_clean(), "{label}/{deque:?}: audit:\n{}", audit.render());
            assert_eq!(
                r.stats.duplicate_executions, audit.duplicates,
                "{label}/{deque:?}: runtime counter disagrees with the audited event stream"
            );
        }
    }
}

/// A deliberately deadlocked program — the root waits on a child that never
/// completes — is detected by the watchdog, and the panic message carries
/// crash-consistent per-core state — sequencer position, clocks, deque
/// depths — instead of a hang.
#[test]
fn deadlocked_program_trips_watchdog_with_per_core_state() {
    let cfg = SystemConfig::big_tiny(
        "deadlock",
        MeshConfig::with_topology(Topology::new(2, 2)),
        1,
        3,
        Protocol::GpuWb,
    )
    .with_watchdog(20_000);
    let mut space = AddrSpace::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_task_parallel(&cfg, &RuntimeConfig::new(RuntimeKind::Dts), &mut space, |cx| {
            cx.set_pending(1);
            cx.spawn(|cx| {
                // The child spins on a completion signal that can never
                // arrive, so the parent's wait() below never returns.
                while !cx.port().is_done() {
                    cx.port().wait_cycles(16, TimeCategory::Idle);
                }
            });
            cx.wait();
        });
    }));
    let payload = result.expect_err("the spin loop must not complete");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("watchdog panics carry a printable message");
    assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
    assert!(msg.contains("watchdog tripped on core"), "bundle header missing: {msg}");
    assert!(msg.contains("core   0"), "per-core state missing: {msg}");
    assert!(msg.contains("grants without progress"), "budget missing: {msg}");
    assert!(msg.contains("runtime state:"), "runtime diagnostics missing: {msg}");
    assert!(msg.contains("deque depth"), "deque depths missing: {msg}");
}

/// A panic inside a task body fails the whole run fast, and the original
/// message survives to the caller (not a cascade of poison panics).
#[test]
fn task_body_panic_fails_fast_with_original_message() {
    let cfg = sys(1, 3, Protocol::GpuWb);
    let mut space = AddrSpace::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_task_parallel(&cfg, &RuntimeConfig::new(RuntimeKind::Dts), &mut space, |_cx| {
            panic!("boom in task body");
        });
    }));
    let payload = result.expect_err("task panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .expect("panic payload is printable");
    assert!(msg.contains("boom in task body"), "original message lost: {msg}");
}

// ---------------------------------------------------------------------------
// ULI edge cases at the network level (satellite coverage beyond the mesh
// crate's unit tests).
// ---------------------------------------------------------------------------

/// A steal request NACKed because the victim's receiver is disabled can be
/// retried and succeeds once the victim re-enables — the NACK is advisory,
/// not sticky.
#[test]
fn uli_nack_on_disabled_receiver_then_retry_succeeds() {
    let mut u = UliNetwork::new(Topology::new(4, 4), 16);
    assert!(
        matches!(u.try_send_request(0, 5, 7, 0), UliOutcome::Nack { .. }),
        "disabled receiver must NACK"
    );
    u.set_enabled(5, true);
    assert_eq!(u.try_send_request(0, 5, 7, 100), UliOutcome::Sent, "retry after enable");
    assert!(u.take_request(5, 1_000).is_some());
}

/// Receivers hold at most one request in flight: a second thief is NACKed
/// until the first request is serviced, then gets through.
#[test]
fn uli_one_in_flight_per_receiver() {
    let mut u = UliNetwork::new(Topology::new(4, 4), 16);
    u.set_enabled(3, true);
    assert_eq!(u.try_send_request(0, 3, 1, 0), UliOutcome::Sent);
    assert!(matches!(u.try_send_request(1, 3, 2, 0), UliOutcome::Nack { .. }), "unit busy");
    assert!(u.take_request(3, 1_000).is_some(), "first request serviced");
    assert_eq!(u.try_send_request(1, 3, 2, 2_000), UliOutcome::Sent, "slot free again");
}

/// A response already on the wire survives the victim's death: the thief can
/// still poll it after the victim disables its receiver and retires.
#[test]
fn uli_response_outlives_victim_death() {
    let mut u = UliNetwork::new(Topology::new(4, 4), 16);
    u.set_enabled(8, true);
    assert_eq!(u.try_send_request(0, 8, 1, 0), UliOutcome::Sent);
    let req = u.take_request(8, 500).expect("request delivered");
    u.send_response(8, req.from, 1, 500);
    u.set_enabled(8, false); // victim finishes and tears down its receiver
    let resp = u.take_response(0, 5_000).expect("response still deliverable");
    assert_eq!((resp.from, resp.payload), (8, 1));
}
