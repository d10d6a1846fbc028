//! Behavioural tests of the three work-stealing runtime variants across the
//! four coherence protocols: functional correctness, DAG-consistency (zero
//! stale reads), the paper's Figure 3 no-op table, the Section IV-B/IV-C
//! optimization effects, and determinism.

use std::sync::Arc;

use bigtiny_core::{
    parallel_for, parallel_invoke, run_task_parallel, RuntimeConfig, RuntimeKind, TaskCx, TaskRun,
};
use bigtiny_engine::{AddrSpace, Protocol, ShVec, SystemConfig};
use bigtiny_mesh::{MeshConfig, Topology};

fn sys(big: usize, tiny: usize, proto: Protocol) -> SystemConfig {
    SystemConfig::big_tiny("test", MeshConfig::with_topology(Topology::new(4, 4)), big, tiny, proto)
}

fn fib(cx: &mut TaskCx<'_>, out: Arc<ShVec<u64>>, slot: usize, n: u64) {
    cx.port().advance(6);
    if n < 2 {
        out.write(cx.port(), slot, n);
        return;
    }
    let (a, b) = (Arc::clone(&out), Arc::clone(&out));
    let (sa, sb) = (2 * slot + 1, 2 * slot + 2);
    parallel_invoke(cx, move |cx| fib(cx, a, sa, n - 1), move |cx| fib(cx, b, sb, n - 2));
    let x = out.read(cx.port(), sa);
    let y = out.read(cx.port(), sb);
    out.write(cx.port(), slot, x + y);
}

fn run_fib(sys_cfg: &SystemConfig, rt: &RuntimeConfig, n: u64) -> (u64, TaskRun) {
    let mut space = AddrSpace::new();
    // Slot tree indexed like a binary heap needs 2^(n+1) slots for fib(n).
    let out = Arc::new(ShVec::new(&mut space, 1 << (n + 1), 0u64));
    let o = Arc::clone(&out);
    let run = run_task_parallel(sys_cfg, rt, &mut space, move |cx| fib(cx, o, 0, n));
    (out.host_read(0), run)
}

fn serial_fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        serial_fib(n - 1) + serial_fib(n - 2)
    }
}

/// Every (runtime, protocol) pairing the paper evaluates computes the right
/// answer with zero stale reads.
#[test]
fn fib_correct_on_all_configurations() {
    let cases = [
        (RuntimeKind::Baseline, Protocol::Mesi),
        (RuntimeKind::Hcc, Protocol::DeNovo),
        (RuntimeKind::Hcc, Protocol::GpuWt),
        (RuntimeKind::Hcc, Protocol::GpuWb),
        (RuntimeKind::Dts, Protocol::DeNovo),
        (RuntimeKind::Dts, Protocol::GpuWt),
        (RuntimeKind::Dts, Protocol::GpuWb),
    ];
    for (kind, proto) in cases {
        let s = sys(2, 6, proto);
        let cfg = RuntimeConfig::new(kind);
        let (result, run) = run_fib(&s, &cfg, 10);
        assert_eq!(result, serial_fib(10), "{kind:?}/{proto:?}");
        assert_eq!(run.report.stale_reads, 0, "{kind:?}/{proto:?} must be DAG-consistent");
        assert!(run.stats.tasks_executed >= 2 * serial_fib(10), "{kind:?}/{proto:?} task count");
    }
}

/// The work-stealing runtime actually steals, and DTS steals via the ULI
/// network instead of shared-memory deque access.
#[test]
fn steals_happen_and_dts_uses_uli() {
    let s = sys(1, 7, Protocol::GpuWb);

    let hcc = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Hcc), 11).1;
    assert!(hcc.stats.steals > 0, "HCC runtime must steal");
    assert_eq!(hcc.report.uli.messages, 0, "HCC never touches the ULI network");

    let dts = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Dts), 11).1;
    assert!(dts.stats.steals > 0, "DTS runtime must steal");
    assert!(dts.report.uli.messages >= 2 * dts.stats.steals, "each steal is a ULI round trip");
}

/// Figure 3 caption: cache_flush is a no-op on MESI/DeNovo/GPU-WT;
/// cache_invalidate is a no-op on MESI. Observed through the mem-stats.
#[test]
fn noop_table_observed_in_counters() {
    for (proto, expect_inv, expect_flush) in [
        (Protocol::DeNovo, true, false),
        (Protocol::GpuWt, true, false),
        (Protocol::GpuWb, true, true),
    ] {
        let s = sys(1, 7, proto);
        let run = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Hcc), 10).1;
        let tiny: Vec<usize> = (1..8).collect();
        let stats = run.report.mem_stats_over(&tiny);
        assert_eq!(stats.lines_invalidated > 0, expect_inv, "{proto:?} invalidations");
        assert_eq!(stats.lines_flushed > 0, expect_flush, "{proto:?} flushes");
    }
    // MESI: both no-ops.
    let s = sys(1, 7, Protocol::Mesi);
    let run = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Baseline), 10).1;
    let tiny: Vec<usize> = (1..8).collect();
    let stats = run.report.mem_stats_over(&tiny);
    assert_eq!(stats.lines_invalidated, 0);
    assert_eq!(stats.lines_flushed, 0);
}

/// Section IV / Table IV: DTS reduces invalidations (and flushes on GPU-WB)
/// dramatically relative to the HCC runtime on the same protocol.
#[test]
fn dts_reduces_invalidations_and_flushes() {
    // Steal-heavy fib: DTS still invalidates/flushes strictly less (the
    // paper's ligra-bf/bfsbv/tc regime, where reductions are modest).
    for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
        let s = sys(1, 7, proto);
        let tiny: Vec<usize> = (1..8).collect();
        let hcc = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Hcc), 13).1;
        let dts = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Dts), 13).1;
        let hcc_inv = hcc.report.mem_stats_over(&tiny).lines_invalidated;
        let dts_inv = dts.report.mem_stats_over(&tiny).lines_invalidated;
        assert!(
            dts_inv < hcc_inv,
            "{proto:?}: DTS invalidations {dts_inv} not below HCC {hcc_inv}"
        );
        if proto == Protocol::GpuWb {
            let hcc_fls = hcc.report.mem_stats_over(&tiny).lines_flushed;
            let dts_fls = dts.report.mem_stats_over(&tiny).lines_flushed;
            assert!(
                (dts_fls as f64) < 0.5 * hcc_fls as f64,
                "GPU-WB: DTS flushes {dts_fls} not well below HCC {hcc_fls}"
            );
        }
    }

    // Steal-light coarse parallel_for: the common case, with the paper's
    // >90%-class reductions (Table IV).
    let run_pf = |kind: RuntimeKind| -> TaskRun {
        let s = sys(1, 7, Protocol::GpuWb);
        let cfg = RuntimeConfig::new(kind);
        let mut space = AddrSpace::new();
        let data = Arc::new(ShVec::new(&mut space, 4096, 0u64));
        let d = Arc::clone(&data);
        run_task_parallel(&s, &cfg, &mut space, move |cx| {
            let d2 = Arc::clone(&d);
            parallel_for(cx, 0..4096, 64, move |cx, r| {
                for i in r {
                    let v = d2.read(cx.port(), i);
                    d2.write(cx.port(), i, v + 1);
                    cx.port().advance(8);
                }
            });
        })
    };
    // Counting *operations*: DTS structurally eliminates the per-deque-
    // access invalidate/flush pairs, so its op counts must collapse. (The
    // paper's Table IV line-count reductions emerge at full scale and are
    // printed by `eval_all`.)
    let tiny: Vec<usize> = (1..8).collect();
    let hcc = run_pf(RuntimeKind::Hcc);
    let dts = run_pf(RuntimeKind::Dts);
    let (hi, di) = (
        hcc.report.mem_stats_over(&tiny).invalidate_ops,
        dts.report.mem_stats_over(&tiny).invalidate_ops,
    );
    assert!(
        (di as f64) < 0.5 * hi as f64,
        "coarse parallel_for: DTS invalidate ops {di} vs HCC {hi} should drop by >50%"
    );
    let (hf, df) =
        (hcc.report.mem_stats_over(&tiny).flush_ops, dts.report.mem_stats_over(&tiny).flush_ops);
    assert!(
        (df as f64) < 0.5 * hf as f64,
        "coarse parallel_for: DTS flush ops {df} vs HCC {hf} should drop by >50%"
    );
}

/// The deliberately-broken runtime (coherence ops omitted) is caught by the
/// staleness checker — the failure mode the paper's protocol prevents.
#[test]
fn omitting_coherence_ops_is_detected() {
    let s = sys(1, 7, Protocol::GpuWb);
    let mut cfg = RuntimeConfig::new(RuntimeKind::Hcc);
    cfg.skip_coherence_ops = true;
    let (result, run) = run_fib(&s, &cfg, 10);
    // Functional result is still right (the simulator's functional layer is
    // sequentially consistent) but real hardware would have read stale data:
    assert_eq!(result, serial_fib(10));
    assert!(run.report.stale_reads > 0, "checker must flag the missing invalidate/flush");
}

/// Work/span profiling: work is stable across schedules, span <= work,
/// and parallelism is plausible for fib.
#[test]
fn workspan_profile_is_sane() {
    let s = sys(1, 7, Protocol::GpuWb);
    let a = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Dts), 11).1;
    let ws = a.stats.workspan;
    assert!(ws.work > 0 && ws.span > 0);
    assert!(ws.span <= ws.work);
    assert!(ws.parallelism() > 4.0, "fib(11) has ample logical parallelism: {}", ws.parallelism());
    assert!(ws.instructions_per_task() > 1.0);

    // Work is a property of the program, not the schedule: a different
    // machine/schedule must report the same work and span.
    let s2 = sys(2, 2, Protocol::GpuWb);
    let b = run_fib(&s2, &RuntimeConfig::new(RuntimeKind::Dts), 11).1;
    assert_eq!(b.stats.workspan.work, ws.work, "work is schedule-invariant");
    assert_eq!(b.stats.workspan.span, ws.span, "span is schedule-invariant");
}

/// Identical configuration => identical simulation, cycle for cycle.
#[test]
fn end_to_end_determinism() {
    for kind in [RuntimeKind::Baseline, RuntimeKind::Hcc, RuntimeKind::Dts] {
        let proto = if kind == RuntimeKind::Baseline { Protocol::Mesi } else { Protocol::GpuWb };
        let s = sys(1, 7, proto);
        let cfg = RuntimeConfig::new(kind);
        let a = run_fib(&s, &cfg, 10).1;
        let b = run_fib(&s, &cfg, 10).1;
        assert_eq!(a.report.completion_cycles, b.report.completion_cycles, "{kind:?}");
        assert_eq!(a.report.core_cycles, b.report.core_cycles, "{kind:?}");
        assert_eq!(a.stats.steals, b.stats.steals, "{kind:?}");
        assert_eq!(a.report.total_traffic_bytes(), b.report.total_traffic_bytes(), "{kind:?}");
    }
}

/// Different seeds change victim selection (and thus schedules) without
/// changing results.
#[test]
fn seeds_change_schedule_not_result() {
    let cfg = RuntimeConfig::new(RuntimeKind::Dts);
    let s1 = sys(1, 7, Protocol::GpuWb);
    let s2 = s1.clone().with_seed(999);
    let (r1, a) = run_fib(&s1, &cfg, 10);
    let (r2, b) = run_fib(&s2, &cfg, 10);
    assert_eq!(r1, r2);
    assert_ne!(
        (a.report.completion_cycles, a.stats.steals),
        (b.report.completion_cycles, b.stats.steals),
        "different seed should perturb the schedule"
    );
}

/// A parallel_for with per-element writes is DAG-consistent on every
/// combination and covers the range exactly once (no lost or repeated work
/// under stealing).
#[test]
fn parallel_for_exactly_once_under_stealing() {
    for (kind, proto) in [
        (RuntimeKind::Baseline, Protocol::Mesi),
        (RuntimeKind::Hcc, Protocol::DeNovo),
        (RuntimeKind::Dts, Protocol::GpuWt),
    ] {
        let s = sys(1, 7, proto);
        let cfg = RuntimeConfig::new(kind);
        let mut space = AddrSpace::new();
        let n = 500;
        let marks = Arc::new(ShVec::new(&mut space, n, 0u64));
        let m = Arc::clone(&marks);
        let run = run_task_parallel(&s, &cfg, &mut space, move |cx| {
            let m2 = Arc::clone(&m);
            parallel_for(cx, 0..n, 4, move |cx, r| {
                for i in r {
                    let v = m2.read(cx.port(), i);
                    m2.write(cx.port(), i, v + 1);
                }
            });
        });
        assert!(marks.snapshot().iter().all(|v| *v == 1), "{kind:?}/{proto:?}");
        assert_eq!(run.report.stale_reads, 0, "{kind:?}/{proto:?}");
        assert!(run.stats.steals > 0, "{kind:?}/{proto:?} must have load-balanced");
    }
}

/// Single-core execution degenerates gracefully (no stealing possible).
#[test]
fn single_core_runs_everything_inline() {
    let s = SystemConfig::o3(1);
    let cfg = RuntimeConfig::new(RuntimeKind::Baseline);
    let (result, run) = run_fib(&s, &cfg, 8);
    assert_eq!(result, serial_fib(8));
    assert_eq!(run.stats.steals, 0);
}

/// The ablation that disables the has_stolen_child optimization still runs
/// correctly, with more AMOs.
#[test]
fn dts_without_hsc_optimization_uses_more_amos() {
    let s = sys(1, 7, Protocol::GpuWb);
    let on = RuntimeConfig::new(RuntimeKind::Dts);
    let mut off = RuntimeConfig::new(RuntimeKind::Dts);
    off.dts_has_stolen_child_opt = false;

    let tiny: Vec<usize> = (0..8).collect();
    let (r_on, run_on) = run_fib(&s, &on, 10);
    let (r_off, run_off) = run_fib(&s, &off, 10);
    assert_eq!(r_on, r_off);
    let amos_on = run_on.report.mem_stats_over(&tiny).amos;
    let amos_off = run_off.report.mem_stats_over(&tiny).amos;
    assert!(amos_off > amos_on, "conservative DTS must issue more AMOs: {amos_off} vs {amos_on}");
}

/// All victim-selection policies produce correct results; nearest-first
/// keeps ULI steal traffic more local (fewer mean hops) than random.
#[test]
fn victim_policies_correct_and_nearest_is_local() {
    use bigtiny_core::VictimPolicy;
    let s = sys(1, 15, Protocol::GpuWb);
    let mut runs = Vec::new();
    for policy in [VictimPolicy::Random, VictimPolicy::RoundRobin, VictimPolicy::NearestFirst] {
        let mut cfg = RuntimeConfig::new(RuntimeKind::Dts);
        cfg.victim_policy = policy;
        let (result, run) = run_fib(&s, &cfg, 12);
        assert_eq!(result, serial_fib(12), "{policy:?}");
        assert_eq!(run.report.stale_reads, 0, "{policy:?}");
        runs.push((policy, run));
    }
    let hops = |p: bigtiny_core::VictimPolicy| {
        runs.iter().find(|(q, _)| *q == p).unwrap().1.report.uli.mean_hops
    };
    assert!(
        hops(VictimPolicy::NearestFirst) < hops(VictimPolicy::Random),
        "nearest-first mean hops {} vs random {}",
        hops(VictimPolicy::NearestFirst),
        hops(VictimPolicy::Random)
    );
}

mod misuse {
    use super::*;

    fn run_root(f: impl FnOnce(&mut TaskCx<'_>) + Send + 'static) {
        let s = sys(1, 3, Protocol::GpuWb);
        let cfg = RuntimeConfig::new(RuntimeKind::Dts);
        let mut space = AddrSpace::new();
        run_task_parallel(&s, &cfg, &mut space, f);
    }

    /// spawn() without set_pending is a programming error, caught eagerly.
    #[test]
    #[should_panic(expected = "without a set_pending")]
    fn spawn_without_budget_panics() {
        run_root(|cx| {
            cx.spawn(|_| {});
        });
    }

    /// Announcing more children than are spawned would deadlock the wait;
    /// caught at the wait() call.
    #[test]
    #[should_panic(expected = "never spawned")]
    fn underspawned_budget_panics_at_wait() {
        run_root(|cx| {
            cx.set_pending(3);
            cx.spawn(|_| {});
            cx.wait();
        });
    }

    /// Spawning more children than announced is caught at the extra spawn.
    #[test]
    #[should_panic(expected = "without a set_pending")]
    fn overspawned_budget_panics() {
        run_root(|cx| {
            cx.set_pending(1);
            cx.spawn(|_| {});
            cx.spawn(|_| {});
        });
    }

    /// set_pending with children still outstanding is rejected.
    #[test]
    #[should_panic(expected = "children still outstanding")]
    fn set_pending_twice_without_spawning_panics() {
        run_root(|cx| {
            cx.set_pending(1);
            cx.set_pending(1);
        });
    }

    /// Panics inside task bodies propagate out of the simulation with the
    /// original message.
    #[test]
    #[should_panic(expected = "task body exploded")]
    fn task_panic_propagates() {
        run_root(|cx| {
            cx.set_pending(1);
            cx.spawn(|_| panic!("task body exploded"));
            cx.wait();
        });
    }
}

/// The Chase-Lev lock-free deque variant of the Baseline runtime is
/// functionally equivalent to the lock-based one, and eliminates most
/// deque-lock atomics.
#[test]
fn chase_lev_baseline_correct_and_cheaper_on_atomics() {
    use bigtiny_core::DequeKind;
    let s = sys(1, 7, Protocol::Mesi);
    let locked = RuntimeConfig::new(RuntimeKind::Baseline);
    let mut cl = RuntimeConfig::new(RuntimeKind::Baseline);
    cl.deque_kind = DequeKind::ChaseLev;

    let (ra, a) = run_fib(&s, &locked, 12);
    let (rb, b) = run_fib(&s, &cl, 12);
    assert_eq!(ra, rb);
    assert_eq!(ra, serial_fib(12));
    let all: Vec<usize> = (0..8).collect();
    let amos_locked = a.report.mem_stats_over(&all).amos;
    let amos_cl = b.report.mem_stats_over(&all).amos;
    assert!(
        amos_cl < amos_locked,
        "Chase-Lev must issue fewer atomics: {amos_cl} vs {amos_locked}"
    );
}

/// A full deque degenerates `spawn` to immediate depth-first execution on
/// every access discipline: with 1-3 slots nearly every spawn of a 256-leaf
/// `parallel_for` overflows, and the run still covers the range exactly
/// once, DAG-consistently, in exactly the 511 tasks of the split tree.
#[test]
fn full_deque_runs_spawns_inline_on_every_discipline() {
    use bigtiny_core::DequeKind;
    for (kind, proto, deque_kind) in [
        (RuntimeKind::Baseline, Protocol::Mesi, DequeKind::Locked),
        (RuntimeKind::Baseline, Protocol::Mesi, DequeKind::ChaseLev),
        (RuntimeKind::Hcc, Protocol::GpuWb, DequeKind::Locked),
        (RuntimeKind::Dts, Protocol::GpuWb, DequeKind::Locked),
    ] {
        for capacity in 1..=3 {
            let what = format!("{kind:?}/{proto:?}/{deque_kind:?}/capacity {capacity}");
            let s = sys(1, 7, proto);
            let mut cfg = RuntimeConfig::new(kind);
            cfg.deque_kind = deque_kind;
            cfg.deque_capacity = capacity;
            let mut space = AddrSpace::new();
            let n = 256;
            let marks = Arc::new(ShVec::new(&mut space, n, 0u64));
            let m = Arc::clone(&marks);
            let run = run_task_parallel(&s, &cfg, &mut space, move |cx| {
                let m2 = Arc::clone(&m);
                parallel_for(cx, 0..n, 1, move |cx, r| {
                    for i in r {
                        let v = m2.read(cx.port(), i);
                        m2.write(cx.port(), i, v + 1);
                    }
                });
            });
            assert!(marks.snapshot().iter().all(|v| *v == 1), "{what}");
            assert_eq!(run.report.stale_reads, 0, "{what}");
            assert_eq!(run.stats.tasks_executed, 511, "{what}");
        }
    }
}

/// Steal telemetry is collected on every run (it is pure host-side
/// bookkeeping), is consistent with the coarse runtime counters, and DTS
/// runs populate the ULI round-trip histogram.
#[test]
fn steal_telemetry_matches_counters() {
    use bigtiny_core::TaskEventKind;
    let s = sys(1, 7, Protocol::GpuWb);
    for kind in [RuntimeKind::Baseline, RuntimeKind::Hcc, RuntimeKind::Dts] {
        let run = run_fib(&s, &RuntimeConfig::new(kind), 12).1;
        let tel = &run.telemetry;
        assert_eq!(tel.per_victim.len(), 8, "one victim slot per core");
        assert_eq!(
            tel.total_attempts(),
            run.stats.steal_attempts,
            "{kind:?}: per-victim attempts must sum to the coarse counter"
        );
        assert_eq!(
            tel.total_hits(),
            run.stats.steals,
            "{kind:?}: per-victim hits must sum to the coarse counter"
        );
        // Without faults every attempt resolves at most once; the only
        // unresolved ones are DTS steals abandoned because the program
        // completed while the thief awaited its response (at most one per
        // worker).
        let resolved = tel.total_hits() + tel.total_misses();
        assert!(resolved <= tel.total_attempts(), "{kind:?}");
        assert!(tel.total_attempts() - resolved <= 8, "{kind:?}");
        assert!(tel.joins > 0, "{kind:?}: fib joins many times");
        // A worker never steals from itself.
        for (v, c) in tel.per_victim.iter().enumerate() {
            assert!(c.hits <= c.attempts, "victim {v}");
        }
        if kind == RuntimeKind::Dts {
            assert!(tel.uli_rtt.count() > 0, "DTS steals round-trip over ULI");
            assert!(tel.uli_rtt.mean() > 0.0);
            assert!(tel.hsc_elisions > 0, "fib elides on never-stolen parents");
        } else {
            assert_eq!(tel.uli_rtt.count(), 0, "{kind:?} never uses ULI");
        }
        // Task events are off by default.
        assert!(run.task_events.is_empty());
    }

    // With recording on, lifecycle events are present, balanced, and sorted.
    let mut cfg = RuntimeConfig::new(RuntimeKind::Dts);
    cfg.record_task_events = true;
    let (val, run) = run_fib(&s, &cfg, 12);
    assert_eq!(val, serial_fib(12));
    let evs = &run.task_events;
    assert!(!evs.is_empty());
    let count = |k: fn(&TaskEventKind) -> bool| evs.iter().filter(|e| k(&e.kind)).count();
    let begins = count(|k| matches!(k, TaskEventKind::ExecBegin));
    let ends = count(|k| matches!(k, TaskEventKind::ExecEnd));
    let spawns = count(|k| matches!(k, TaskEventKind::Spawn { .. }));
    assert_eq!(begins, ends, "every started task finishes");
    assert_eq!(spawns as u64, run.stats.spawns + 1, "spawn events cover children plus the root");
    assert_eq!(
        count(|k| matches!(k, TaskEventKind::Stolen { .. })) as u64,
        run.stats.steals,
        "one Stolen event per successful steal"
    );
    assert!(evs.windows(2).all(|w| (w[0].cycle, w[0].core) <= (w[1].cycle, w[1].core)));
    // Recording events must not change simulated results.
    let base = run_fib(&s, &RuntimeConfig::new(RuntimeKind::Dts), 12).1;
    assert_eq!(base.report.completion_cycles, run.report.completion_cycles);
    assert_eq!(base.report.seq_op_hash, run.report.seq_op_hash);
}
