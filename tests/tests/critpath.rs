//! Tier-1 guarantees for the critical-path profiler.
//!
//! Two invariant families, both at Test scale:
//!
//! * **Cycle conservation** on the full 13-kernel x 7-setup matrix: the
//!   attribution buckets (compute / steal protocol / AMO / invalidate /
//!   flush / idle) must sum *exactly* to total core-cycles for every run —
//!   a check of the harness's one judge, which needs no profiling arming,
//!   so the sweep is cheap.
//! * **Work/span sanity** on armed runs: the replayed DAG must satisfy the
//!   textbook bounds T∞ ≤ Tp ≤ T1 and ⌈T1/P⌉ ≤ Tp and the task-event stream
//!   must pass the DAG well-formedness checker; the judge holds the
//!   attribution spans to tiling each core's timeline exactly.

use bigtiny_apps::{all_apps, app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_obs::{check_task_dag, replay_run, CycleLens, WhatIf};

/// Every kernel on every 64-core configuration: the six attribution
/// buckets account for every core-cycle (the judge's conservation check),
/// with nothing armed.
#[test]
fn cycle_conservation_holds_on_the_full_matrix() {
    let setups = Setup::big_tiny_matrix();
    for app in all_apps() {
        for setup in &setups {
            let r = run_app(setup, &app, AppSize::Test, 0);
            assert!(r.cycles > 0, "{} @ {}: empty run", r.app, r.setup);
        }
    }
}

/// Armed, fault-free runs satisfy the work/span laws on every
/// configuration. Fault plans are deliberately excluded: injected ULI
/// drops retry outside the task DAG's control, voiding the greedy bound.
#[test]
fn profiled_runs_satisfy_work_span_bounds() {
    let setups: Vec<Setup> = Setup::big_tiny_matrix()
        .into_iter()
        .map(|mut s| {
            s.sys.attr = true;
            s.rt.record_task_events = true;
            s
        })
        .collect();
    for name in ["cilk5-nq", "cilk5-cs", "ligra-bfs"] {
        let app = app_by_name(name).unwrap();
        for setup in &setups {
            let r = run_app(setup, &app, AppSize::Test, 0);
            let dag = check_task_dag(&r.run.task_events)
                .unwrap_or_else(|e| panic!("{name} @ {}: malformed DAG: {e}", r.setup));
            assert!(dag.tasks > 0 && dag.executed == dag.tasks, "{name} @ {}: {dag:?}", r.setup);

            let w = WhatIf::project(&r.run).unwrap_or_else(|e| panic!("{name} @ {}: {e}", r.setup));
            let (t1, tinf, tp, p) =
                (w.burdened.work, w.burdened.span, w.measured_tp, w.workers.max(1));
            assert!(tinf <= tp, "{name} @ {}: span {tinf} > measured {tp}", r.setup);
            assert!(tp <= t1, "{name} @ {}: measured {tp} > work {t1}", r.setup);
            assert!(t1.div_ceil(p) <= tp, "{name} @ {}: ceil({t1}/{p}) > measured {tp}", r.setup);
            // The greedy bound is a lower bound, so the measured run can
            // never beat it; and stripping overhead can only shrink the DAG.
            assert!(w.measured.speedup_bound >= 1.0, "{name} @ {}: {:?}", r.setup, w.measured);
            for proj in w.projections() {
                assert!(
                    proj.work <= t1 && proj.span <= tinf,
                    "{name} @ {}: lens {:?} grew the DAG",
                    r.setup,
                    proj.lens
                );
            }
        }
    }
}

/// The extracted chain is internally consistent: links are time-ordered,
/// begin on recorded cores, and the steal count matches the flags.
#[test]
fn critical_path_chain_is_well_formed() {
    let app = app_by_name("cilk5-nq").unwrap();
    let mut setup = Setup::bt_hcc(bigtiny_engine::Protocol::GpuWb, true);
    setup.sys.attr = true;
    setup.rt.record_task_events = true;
    let r = run_app(&setup, &app, AppSize::Test, 0);
    let cp = replay_run(&r.run, CycleLens::Burdened).expect("armed run profiles");
    assert!(!cp.chain.is_empty(), "empty chain on a profiled run");
    assert_eq!(cp.chain[0].task, 0, "chain must start at the root task");
    let cores = r.run.report.core_cycles.len();
    // The chain is a root-to-leaf slice of the spawn tree in pre-order:
    // every non-root link's spawning parent must appear earlier in it.
    let parent_of = |t: u32| -> u32 {
        r.run
            .task_events
            .iter()
            .find_map(|e| match e.kind {
                bigtiny_core::TaskEventKind::Spawn { parent: Some(p) } if e.task == t => Some(p),
                _ => None,
            })
            .unwrap_or_else(|| panic!("task {t} has no spawning parent in the event stream"))
    };
    for (i, link) in cp.chain.iter().enumerate() {
        assert!(link.core < cores, "link on unknown core: {link:?}");
        assert!(link.exec_begin <= link.exec_end, "inverted link: {link:?}");
        if i > 0 {
            let p = parent_of(link.task);
            assert!(
                cp.chain[..i].iter().any(|l| l.task == p),
                "link {link:?}: parent {p} not earlier in the chain"
            );
        }
    }
    assert_eq!(
        cp.chain_steals(),
        cp.chain.iter().filter(|l| l.stolen).count() as u64,
        "steal count disagrees with link flags"
    );
}
