//! Cross-crate integration tests: every application kernel on every runtime
//! variant, end to end through the full simulated machine, with functional
//! verification and system-level invariants.

use bigtiny_apps::{all_apps, AppSize, AppSpec};
use bigtiny_core::{run_task_parallel, RuntimeConfig, RuntimeKind, TaskRun};
use bigtiny_engine::{AddrSpace, Protocol, SystemConfig, TrafficClass};
use bigtiny_mesh::{MeshConfig, Topology};

fn small_sys(big: usize, tiny: usize, proto: Protocol) -> SystemConfig {
    SystemConfig::big_tiny(
        "itest",
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

/// Every kernel, on every runtime variant, is functionally correct and
/// DAG-consistent (zero stale reads) on a 16-core mixed machine.
#[test]
fn all_kernels_all_runtimes() {
    for app in all_apps() {
        for (kind, proto) in [
            (RuntimeKind::Baseline, Protocol::Mesi),
            (RuntimeKind::Hcc, Protocol::DeNovo),
            (RuntimeKind::Hcc, Protocol::GpuWt),
            (RuntimeKind::Hcc, Protocol::GpuWb),
            (RuntimeKind::Dts, Protocol::DeNovo),
            (RuntimeKind::Dts, Protocol::GpuWt),
            (RuntimeKind::Dts, Protocol::GpuWb),
        ] {
            let sys = small_sys(2, 14, proto);
            let r = run(&app, &sys, kind);
            assert_eq!(r.report.stale_reads, 0, "{} {kind:?}/{proto:?}", app.name);
            assert!(r.report.completion_cycles > 0, "{}", app.name);
        }
    }
}

/// Traffic invariants hold on full application runs: every L2 fetch gets
/// exactly one data response; DRAM responses never exceed requests; ULI
/// traffic exists only under DTS.
#[test]
fn system_invariants_on_full_runs() {
    for app in all_apps().into_iter().take(4) {
        for (kind, proto) in
            [(RuntimeKind::Hcc, Protocol::GpuWb), (RuntimeKind::Dts, Protocol::GpuWb)]
        {
            let sys = small_sys(1, 7, proto);
            let r = run(&app, &sys, kind);
            let t = &r.report.traffic;
            assert_eq!(
                t.messages(TrafficClass::CpuReq),
                t.messages(TrafficClass::DataResp),
                "{}: fetch req/resp conservation",
                app.name
            );
            assert!(
                t.messages(TrafficClass::DramReq) >= t.messages(TrafficClass::DramResp),
                "{}: DRAM write-backs have no response",
                app.name
            );
            assert_eq!(
                t.messages(TrafficClass::SyncReq),
                t.messages(TrafficClass::SyncResp),
                "{}: AMO req/resp conservation",
                app.name
            );
            match kind {
                RuntimeKind::Dts => {
                    assert!(r.report.uli.messages >= 2 * r.stats.steals, "{}", app.name)
                }
                _ => assert_eq!(r.report.uli.messages, 0, "{}", app.name),
            }
        }
    }
}

/// Full-application determinism: identical runs produce identical cycles,
/// traffic, and steal counts.
#[test]
fn applications_are_deterministic() {
    for name in ["cilk5-nq", "ligra-cc", "ligra-radii"] {
        let app = bigtiny_apps::app_by_name(name).unwrap();
        let sys = small_sys(1, 7, Protocol::GpuWb);
        let a = run(&app, &sys, RuntimeKind::Dts);
        let b = run(&app, &sys, RuntimeKind::Dts);
        assert_eq!(a.report.completion_cycles, b.report.completion_cycles, "{name}");
        assert_eq!(a.report.core_cycles, b.report.core_cycles, "{name}");
        assert_eq!(a.stats.steals, b.stats.steals, "{name}");
        assert_eq!(
            a.report.traffic.total_data_bytes(),
            b.report.traffic.total_data_bytes(),
            "{name}"
        );
    }
}

/// The 256-core machine runs end to end (scaled-down input).
#[test]
fn large_machine_smoke() {
    let app = bigtiny_apps::app_by_name("ligra-bfs").unwrap();
    let sys = SystemConfig::big_tiny_256(Protocol::GpuWb);
    let r = run(&app, &sys, RuntimeKind::Dts);
    assert_eq!(r.report.stale_reads, 0);
    // With a test-size input most of the 255 thieves come up empty, but the
    // machine must at least be trying to distribute work.
    assert!(r.stats.steal_attempts > 0, "work stealing active on the big machine");
}

/// A big out-of-order core beats a tiny in-order core on the same kernel.
#[test]
fn big_core_outperforms_tiny_core() {
    let app = bigtiny_apps::app_by_name("cilk5-mm").unwrap();
    let tiny = SystemConfig::tiny_only(1, Protocol::Mesi);
    let big = SystemConfig::o3(1);
    let rt = run(&app, &tiny, RuntimeKind::Baseline);
    let rb = run(&app, &big, RuntimeKind::Baseline);
    assert!(
        rb.report.completion_cycles * 2 < rt.report.completion_cycles,
        "big {} vs tiny {}",
        rb.report.completion_cycles,
        rt.report.completion_cycles
    );
}

/// DTS collapses coherence-operation counts relative to the HCC runtime
/// across the whole application suite (Section IV's structural claim).
#[test]
fn dts_cuts_coherence_ops_across_suite() {
    let mut total_hcc = 0u64;
    let mut total_dts = 0u64;
    for app in all_apps().into_iter().take(6) {
        let sys = small_sys(1, 7, Protocol::GpuWb);
        let tiny: Vec<usize> = (1..8).collect();
        let h = run(&app, &sys, RuntimeKind::Hcc);
        let d = run(&app, &sys, RuntimeKind::Dts);
        total_hcc += h.report.mem_stats_over(&tiny).invalidate_ops;
        total_dts += d.report.mem_stats_over(&tiny).invalidate_ops;
    }
    assert!(
        (total_dts as f64) < 0.5 * total_hcc as f64,
        "suite-wide invalidate ops: DTS {total_dts} vs HCC {total_hcc}"
    );
}

/// The work/span profile of each kernel is schedule-invariant: two very
/// different machines report identical logical work and span.
#[test]
fn workspan_schedule_invariance_across_apps() {
    for name in ["cilk5-cs", "ligra-bfs", "ligra-mis"] {
        let app = bigtiny_apps::app_by_name(name).unwrap();
        let a = run(&app, &small_sys(1, 3, Protocol::GpuWb), RuntimeKind::Dts);
        let b = run(&app, &small_sys(2, 10, Protocol::GpuWb), RuntimeKind::Hcc);
        assert_eq!(a.stats.workspan.work, b.stats.workspan.work, "{name} work");
        assert_eq!(a.stats.workspan.span, b.stats.workspan.span, "{name} span");
    }
}

/// In-process smoke of the `ablate_deque` bin's cell structure: one
/// duplicate-safe kernel through every deque policy plus the two
/// forced-duplicate cells, with the bin's gates — kernel verify, exact
/// cycle conservation, the per-policy task-event audit, and the
/// duplicate-execution counters (at least one duplicate with `DupTask`
/// armed, exactly zero under the exactly-once policies).
#[test]
fn deque_policy_ablation_cells_smoke() {
    use bigtiny_checker::{audit_task_events_mode, kernel_is_duplicate_safe, AuditMode};
    use bigtiny_core::{DequeKind, Mutation, MutationKind};
    use bigtiny_obs::CycleConservation;

    let name = "cilk5-cs";
    assert!(kernel_is_duplicate_safe(name), "the smoke kernel must tolerate at-most-twice");
    let app = bigtiny_apps::app_by_name(name).unwrap();
    let cells = [
        (DequeKind::Locked, false),
        (DequeKind::ChaseLev, false),
        (DequeKind::FenceFree, false),
        (DequeKind::Idempotent, false),
        (DequeKind::FenceFree, true),
        (DequeKind::Idempotent, true),
    ];
    for (deque, dup) in cells {
        let sys = small_sys(1, 7, Protocol::Mesi);
        let mut rt = RuntimeConfig::new(RuntimeKind::Baseline);
        rt.deque_kind = deque;
        rt.record_task_events = true;
        if dup {
            rt.mutation = Some(Mutation { kind: MutationKind::DupTask, core: 0, nth: 0 });
        }
        let mut space = AddrSpace::new();
        let prepared = app.prepare_default(&mut space, AppSize::Test);
        let r = run_task_parallel(&sys, &rt, &mut space, prepared.root);
        let ctx = format!("{name}/{deque:?}{}", if dup { "+dup" } else { "" });
        if let Err(e) = (prepared.verify)() {
            panic!("{ctx}: {e}");
        }
        assert_eq!(r.report.stale_reads, 0, "{ctx}");
        let cons = CycleConservation::from_report(&r.report);
        assert!(
            cons.holds(),
            "{ctx}: conservation breach: buckets {} != {}",
            cons.bucket_sum(),
            cons.total_core_cycles
        );
        let audit = audit_task_events_mode(&r.task_events, AuditMode::for_run(&rt, false), name);
        assert!(audit.is_clean(), "{ctx}: audit:\n{}", audit.render());
        let dups = r.stats.duplicate_executions;
        if dup {
            assert!(dups >= 1, "{ctx}: DupTask armed but no duplicate ran");
        }
        if !deque.multiplicity() {
            assert_eq!(dups, 0, "{ctx}: duplicates under an exactly-once policy");
        }
    }
}
