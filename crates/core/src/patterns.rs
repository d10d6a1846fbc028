//! High-level parallel patterns on top of `spawn`/`wait`, mirroring the
//! paper's Figure 2: `parallel_invoke` for divide-and-conquer and
//! `parallel_for` for parallel loops.

use std::ops::Range;
use std::sync::Arc;

use crate::runtime::TaskCx;

/// Runs two closures as parallel tasks and waits for both
/// (`parallel_invoke` in Figure 2(b)). `Clone` is inherited from
/// [`TaskCx::spawn`]'s crash-recovery factory requirement.
pub fn parallel_invoke<A, B>(cx: &mut TaskCx<'_>, a: A, b: B)
where
    A: FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static,
    B: FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static,
{
    cx.set_pending(2);
    cx.spawn(a);
    cx.spawn(b);
    cx.wait();
}

/// Runs three closures as parallel tasks and waits for all of them.
pub fn parallel_invoke3<A, B, C>(cx: &mut TaskCx<'_>, a: A, b: B, c: C)
where
    A: FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static,
    B: FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static,
    C: FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static,
{
    cx.set_pending(3);
    cx.spawn(a);
    cx.spawn(b);
    cx.spawn(c);
    cx.wait();
}

/// A parallel loop over `range` (`parallel_for` in Figure 2(c)).
///
/// The range is split recursively in halves until sub-ranges have at most
/// `grain` elements; each leaf invokes `body` with its sub-range. `grain` is
/// the paper's task-granularity knob (Section V-D / Figure 4).
///
/// # Panics
///
/// Panics if `grain` is zero.
pub fn parallel_for<F>(cx: &mut TaskCx<'_>, range: Range<usize>, grain: usize, body: F)
where
    F: Fn(&mut TaskCx<'_>, Range<usize>) + Send + Sync + 'static,
{
    assert!(grain > 0, "grain must be positive");
    if range.is_empty() {
        return;
    }
    split(cx, range, grain, &Arc::new(body));
}

fn split<F>(cx: &mut TaskCx<'_>, range: Range<usize>, grain: usize, body: &Arc<F>)
where
    F: Fn(&mut TaskCx<'_>, Range<usize>) + Send + Sync + 'static,
{
    if range.len() <= grain {
        body(cx, range);
        return;
    }
    // Both halves are spawned as child tasks, TBB-style: each task performs
    // exactly one set_pending/spawn*/wait episode, so the reference count
    // is always set before any child of the batch becomes stealable.
    let mid = range.start + range.len() / 2;
    let left = range.start..mid;
    let right = mid..range.end;
    let (lbody, rbody) = (Arc::clone(body), Arc::clone(body));
    cx.set_pending(2);
    cx.spawn(move |cx| split(cx, left, grain, &lbody));
    cx.spawn(move |cx| split(cx, right, grain, &rbody));
    cx.wait();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_task_parallel, RuntimeConfig, RuntimeKind};
    use bigtiny_engine::{AddrSpace, Protocol, ShScalar, ShVec, SystemConfig};

    fn small_sys(tiny: Protocol) -> SystemConfig {
        SystemConfig::big_tiny(
            "t8",
            bigtiny_mesh::MeshConfig::with_topology(bigtiny_mesh::Topology::new(3, 3)),
            1,
            7,
            tiny,
        )
    }

    #[test]
    fn parallel_for_covers_every_index_exactly_once() {
        for kind in [RuntimeKind::Baseline, RuntimeKind::Hcc, RuntimeKind::Dts] {
            let proto =
                if kind == RuntimeKind::Baseline { Protocol::Mesi } else { Protocol::GpuWb };
            let sys = small_sys(proto);
            let cfg = RuntimeConfig::new(kind);
            let mut space = AddrSpace::new();
            let n = 200;
            let marks = Arc::new(ShVec::new(&mut space, n, 0u64));
            let m = Arc::clone(&marks);
            let run = run_task_parallel(&sys, &cfg, &mut space, move |cx| {
                let m2 = Arc::clone(&m);
                parallel_for(cx, 0..n, 8, move |cx, r| {
                    for i in r {
                        let old = m2.read(cx.port(), i);
                        m2.write(cx.port(), i, old + 1);
                    }
                });
            });
            assert!(marks.snapshot().iter().all(|v| *v == 1), "{kind:?}: every index once");
            assert_eq!(run.report.stale_reads, 0, "{kind:?}: DAG-consistent");
            assert!(run.stats.tasks_executed > 10, "{kind:?}: split into tasks");
        }
    }

    #[test]
    fn parallel_invoke_runs_both_branches() {
        let sys = small_sys(Protocol::DeNovo);
        let cfg = RuntimeConfig::new(RuntimeKind::Hcc);
        let mut space = AddrSpace::new();
        let out = Arc::new(ShVec::new(&mut space, 2, 0u64));
        let o = Arc::clone(&out);
        run_task_parallel(&sys, &cfg, &mut space, move |cx| {
            let (a, b) = (Arc::clone(&o), Arc::clone(&o));
            parallel_invoke(
                cx,
                move |cx| a.write(cx.port(), 0, 11),
                move |cx| b.write(cx.port(), 1, 22),
            );
        });
        assert_eq!(out.snapshot(), vec![11, 22]);
    }

    #[test]
    fn nested_parallel_for() {
        let sys = small_sys(Protocol::GpuWt);
        let cfg = RuntimeConfig::new(RuntimeKind::Hcc);
        let mut space = AddrSpace::new();
        let n = 8;
        let grid = Arc::new(ShVec::new(&mut space, n * n, 0u64));
        let g = Arc::clone(&grid);
        let run = run_task_parallel(&sys, &cfg, &mut space, move |cx| {
            let g1 = Arc::clone(&g);
            parallel_for(cx, 0..n, 1, move |cx, rows| {
                for r in rows {
                    let g2 = Arc::clone(&g1);
                    parallel_for(cx, 0..n, 2, move |cx, cols| {
                        for c in cols {
                            g2.write(cx.port(), r * n + c, (r * n + c) as u64);
                        }
                    });
                }
            });
        });
        let want: Vec<u64> = (0..(n * n) as u64).collect();
        assert_eq!(grid.snapshot(), want);
        assert_eq!(run.report.stale_reads, 0);
    }

    #[test]
    fn grain_controls_task_count() {
        let sys = small_sys(Protocol::GpuWb);
        let cfg = RuntimeConfig::new(RuntimeKind::Dts);
        let mut counts = Vec::new();
        for grain in [1usize, 16, 64] {
            let mut space = AddrSpace::new();
            let cell = Arc::new(ShScalar::new(&mut space, 0u64));
            let c = Arc::clone(&cell);
            let run = run_task_parallel(&sys, &cfg, &mut space, move |cx| {
                parallel_for(cx, 0..64, grain, move |cx, r| {
                    for _ in r {
                        c.amo(cx.port(), |v| *v += 1);
                    }
                });
            });
            assert_eq!(cell.host_read(), 64);
            counts.push(run.stats.tasks_executed);
        }
        assert!(
            counts[0] > counts[1] && counts[1] > counts[2],
            "finer grain => more tasks: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "grain must be positive")]
    fn zero_grain_panics() {
        let sys = small_sys(Protocol::Mesi);
        let cfg = RuntimeConfig::new(RuntimeKind::Baseline);
        let mut space = AddrSpace::new();
        run_task_parallel(&sys, &cfg, &mut space, move |cx| {
            parallel_for(cx, 0..10, 0, |_, _| {});
        });
    }
}
