//! Critical-path profiler: cycle-accurate work/span analysis over the
//! task DAG, replayed from recorded task-lifecycle events and the
//! engine's per-task attribution spans.
//!
//! The runtime's online profiler measures work and span in *user
//! instructions* ([`bigtiny_core::WorkSpan`]). This module recomputes
//! both in *cycles*, weighting every DAG node with the cycles the machine
//! actually charged while that task ran — so the span it reports is the
//! **burdened** critical path: compute plus the steal-protocol ULI
//! traffic, steal-response waits, coherence stalls, and idle back-off
//! that lay on it. Re-running the replay under a different [`CycleLens`]
//! strips chosen overhead categories from every node, which is what the
//! what-if projector in [`crate::attribution`] is built on.
//!
//! # Replay semantics
//!
//! The replay mirrors the online profiler's recursion exactly, swapping
//! instruction tallies for attributed cycles:
//!
//! * every cycle a core charged while task `t` owned the core (per
//!   [`AttrSpan`]) accrues to `path(t)` — including waits, which is the
//!   burden;
//! * `Spawn { parent }` snapshots `spawn_path(child) = path(parent)`;
//! * at the child's `ExecEnd`, `span(child) = max(path, candidate)` folds
//!   into `candidate(parent) = max(candidate, spawn_path + span(child))`;
//! * at `Join`, `path = max(path, candidate)`.
//!
//! The root's final span is the program span T∞; the sum of all
//! task-attributed cycles is the work T1. Because the harness attributes
//! core 0's whole timeline (through `set_done`) to the root, the
//! fault-free measured completion time Tp obeys `⌈T1/P⌉ ≤ Tp ≤ T1` and
//! `T∞ ≤ Tp` exactly, not approximately — `tests/tests/critpath.rs` pins
//! those bounds across the kernel matrix.

use std::rc::Rc;

use bigtiny_core::{TaskEvent, TaskEventKind, TaskLedger, TaskRun};
use bigtiny_engine::{AttrSpan, TimeBreakdown, TimeCategory};

/// Which time categories a replay counts when weighting DAG nodes.
///
/// Each lens answers one what-if question: how long would the critical
/// path (and the total work) be if the machine never charged the stripped
/// categories? The projections are optimistic bounds — removing an
/// overhead in reality also reshuffles scheduling — but they bracket
/// where the cycles on the path went.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CycleLens {
    /// Every category — the burdened profile, what actually happened.
    Burdened,
    /// Strips the steal protocol and its consequences: ULI
    /// send/receive/handler cycles, steal-response waits, and idle
    /// back-off.
    ZeroSteal,
    /// Strips coherence overhead: atomics, self-invalidations, flushes.
    ZeroCoherence,
    /// Compute + load + store only — every overhead category stripped.
    WorkOnly,
}

impl CycleLens {
    /// Label used in reports and metrics documents.
    pub fn label(self) -> &'static str {
        match self {
            CycleLens::Burdened => "burdened",
            CycleLens::ZeroSteal => "zero_steal",
            CycleLens::ZeroCoherence => "zero_coherence",
            CycleLens::WorkOnly => "work_only",
        }
    }

    /// Cycles of `b` this lens counts.
    pub fn weigh(self, b: &TimeBreakdown) -> u64 {
        use TimeCategory::*;
        match self {
            CycleLens::Burdened => b.total(),
            CycleLens::ZeroSteal => b.total() - b.get(Uli) - b.get(UliWait) - b.get(Idle),
            CycleLens::ZeroCoherence => {
                b.total() - b.get(Atomic) - b.get(Invalidate) - b.get(Flush)
            }
            CycleLens::WorkOnly => b.get(Compute) + b.get(Load) + b.get(Store),
        }
    }
}

/// One task on the critical-path chain, root first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChainLink {
    /// Task id.
    pub task: u32,
    /// Cycle the task body started executing.
    pub exec_begin: u64,
    /// Cycle the task body returned.
    pub exec_end: u64,
    /// Core the task executed on.
    pub core: usize,
    /// Whether a thief claimed this task from another core's deque.
    pub stolen: bool,
}

/// The result of one critical-path replay.
#[derive(Clone, Debug)]
pub struct CritPath {
    /// The lens the replay weighed cycles under.
    pub lens: CycleLens,
    /// T1: total lens-weighted cycles attributed to tasks.
    pub work: u64,
    /// T∞: the root task's final span — the longest weighted
    /// spawn-to-join chain through the DAG.
    pub span: u64,
    /// Tasks seen in the event stream.
    pub tasks: u64,
    /// Steal claims seen in the event stream.
    pub steals: u64,
    /// Category breakdown of the cycles on the winning chain (always full
    /// categories, whatever the lens counted).
    pub span_breakdown: TimeBreakdown,
    /// The tasks the critical path runs through, in path order starting at
    /// the root. A task's chain interleaves its own serial cycles with the
    /// complete chains of the children it joined on the path, so parents
    /// precede (and their execution windows contain) the children they
    /// descend into.
    pub chain: Vec<ChainLink>,
}

impl CritPath {
    /// Logical parallelism T1/T∞.
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            0.0
        } else {
            self.work as f64 / self.span as f64
        }
    }

    /// Steal claims among the chain's tasks — how many times the critical
    /// path crossed cores.
    pub fn chain_steals(&self) -> u64 {
        self.chain.iter().filter(|l| l.stolen).count() as u64
    }
}

/// Structural counts from a well-formed task-event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DagCheck {
    /// Tasks spawned (including the root).
    pub tasks: u64,
    /// Tasks whose body ran to completion.
    pub executed: u64,
    /// Steal claims.
    pub steals: u64,
    /// Completed `wait()` joins.
    pub joins: u64,
    /// Crash-recovery re-spawns of tasks lost on dead cores.
    pub respawns: u64,
    /// Orphan tasks discarded from dead cores' deques.
    pub discards: u64,
    /// Multiplicity-deque duplicate re-executions (owner and thief both
    /// claimed a slot, or a seeded `DupTask` mutation fired).
    pub duplicates: u64,
}

/// Checks that a recorded task-event stream describes a well-formed
/// spawn/join DAG — [`TaskLedger`] states the rules and finds the first
/// event that breaks one — in which, additionally, every task that began
/// executing also ended, or is covered.
///
/// That is what keeps crash-recovery streams well-formed: a task that
/// began but never ended is accepted when a `Respawn` covers it or an
/// ancestor (its core fail-stopped mid-execution and a replacement re-runs
/// the subtree), and `Discarded` orphans are terminal without ever
/// executing. A multiplicity `Duplicate { of }` enters a parentless
/// non-root task that re-executes `of`'s body; unlike a `Respawn` it does
/// not cover the original — the original also runs to completion.
pub fn check_task_dag(events: &[TaskEvent]) -> Result<DagCheck, String> {
    let l = well_formed(events)?;
    Ok(DagCheck {
        tasks: l.tasks,
        executed: l.executed,
        steals: l.steals,
        joins: l.joins,
        respawns: l.respawns,
        discards: l.discards,
        duplicates: l.duplicates,
    })
}

/// The [`TaskLedger`] of a well-formed stream (see [`check_task_dag`]):
/// the fold stops at the first structural fault, and a task lost
/// mid-execution must be covered by a `Respawn`.
pub(crate) fn well_formed(events: &[TaskEvent]) -> Result<TaskLedger, String> {
    let ledger = TaskLedger::fold(events).map_err(|fault| fault.to_string())?;
    let lost = ledger.lives().iter().zip(0u32..).find(|(life, id)| {
        life.exec_begin.is_some() && life.exec_end.is_none() && !ledger.covered(*id)
    });
    match lost {
        Some((_, id)) => Err(format!("task {id} began executing but never ended")),
        None => Ok(ledger),
    }
}

/// Whether `run` carries everything a replay needs: recorded task events
/// (`RuntimeConfig::record_task_events`) *and* attribution spans
/// (`SystemConfig::attr`).
pub fn profiled(run: &TaskRun) -> bool {
    !run.task_events.is_empty() && run.report.attr_spans.iter().any(|s| !s.is_empty())
}

/// The children a task's path descends through, newest first — a
/// persistent list so snapshotting a parent's structure at every spawn is
/// one `Rc` clone instead of a vector copy.
type Via = Option<Rc<ViaNode>>;

struct ViaNode {
    task: u32,
    prev: Via,
}

/// `via` in path order (oldest absorbed child first).
fn via_forward(via: &Via) -> Vec<u32> {
    let mut out = Vec::new();
    let mut cur = via;
    while let Some(n) = cur {
        out.push(n.task);
        cur = &n.prev;
    }
    out.reverse();
    out
}

/// A weighted path through the DAG: its lens-weighted cycles, where those
/// cycles went by category, and the children whose chains it descends
/// through.
#[derive(Clone, Default)]
struct Stretch {
    cycles: u64,
    breakdown: TimeBreakdown,
    via: Via,
}

/// Per-task span state, mirroring the online profiler's `TaskProfile` with
/// cycles for instructions, plus the path *structure* that the online
/// profiler never needs. The lifecycle half — parent, execution window,
/// stolen — is the [`TaskLedger`]'s.
#[derive(Clone, Default)]
struct TaskNode {
    /// This task's longest serial chain so far.
    path: Stretch,
    /// Best completed-child chain folded in so far: the parent's path as
    /// snapshotted at the winning child's spawn, then that child's span.
    candidate: Stretch,
    /// Parent's `path` at the moment this task was spawned.
    at_spawn: Stretch,
    /// Total lens-weighted cycles attributed to this task (its work).
    accrued: u64,
    /// Fixed at ExecEnd: the task's final span.
    final_span: Option<Stretch>,
}

impl TaskNode {
    fn span(&self) -> &Stretch {
        // Ties go to the serial path, like the online profiler's
        // `path.max(candidate)`.
        if self.candidate.cycles > self.path.cycles {
            &self.candidate
        } else {
            &self.path
        }
    }
}

fn node(nodes: &mut Vec<TaskNode>, id: u32) -> &mut TaskNode {
    let id = id as usize;
    if nodes.len() <= id {
        nodes.resize(id + 1, TaskNode::default());
    }
    &mut nodes[id]
}

/// Replays the task DAG over `events` and `attr_spans` (per core, as in
/// [`bigtiny_engine::RunReport::attr_spans`]), weighting cycles under
/// `lens`. Fails if the event stream is not a well-formed DAG.
///
/// An empty event stream replays to an all-zero profile; attribution
/// spans for cores, tasks, or intervals the events never mention still
/// accrue work (the trailing `set_done` cycles on core 0 are the main
/// case — they belong to the root and keep `Tp ≤ T1` exact).
pub fn replay(
    events: &[TaskEvent],
    attr_spans: &[Vec<AttrSpan>],
    lens: CycleLens,
) -> Result<CritPath, String> {
    replay_ledger(&well_formed(events)?, events, attr_spans, lens)
}

/// [`replay`] given the stream's already-validated ledger, so that several
/// lenses share one validation.
pub(crate) fn replay_ledger(
    ledger: &TaskLedger,
    events: &[TaskEvent],
    attr_spans: &[Vec<AttrSpan>],
    lens: CycleLens,
) -> Result<CritPath, String> {
    let lives = ledger.lives();
    let mut nodes: Vec<TaskNode> = vec![TaskNode::default(); lives.len()];
    let mut cursors: Vec<usize> = vec![0; attr_spans.len()];

    // Consume the spans of `core` that closed at or before `cycle`,
    // accruing each interval to its owning task. Task-lifecycle recording
    // marks a span boundary at every event, so spans never straddle one.
    let consume = |nodes: &mut Vec<TaskNode>, cursors: &mut [usize], core: usize, cycle: u64| {
        let spans = &attr_spans[core];
        let cur = &mut cursors[core];
        while *cur < spans.len() && spans[*cur].end <= cycle {
            let s = &spans[*cur];
            *cur += 1;
            if let Some(t) = s.task {
                let w = lens.weigh(&s.breakdown);
                let n = node(nodes, t);
                n.path.cycles += w;
                n.path.breakdown += s.breakdown;
                n.accrued += w;
            }
        }
    };

    for e in events {
        if e.core < attr_spans.len() {
            consume(&mut nodes, &mut cursors, e.core, e.cycle);
        }
        let parent = lives[e.task as usize].parent;
        match e.kind {
            // A task enters the DAG under its ledger parent (a crash
            // replacement: under the dead original's), snapshotting that
            // parent's path. The root has nothing to snapshot.
            TaskEventKind::Spawn { .. } | TaskEventKind::Respawn { .. } => {
                if let Some(p) = parent {
                    nodes[e.task as usize].at_spawn = nodes[p as usize].path.clone();
                }
            }
            TaskEventKind::ExecEnd => {
                let n = &mut nodes[e.task as usize];
                let span = n.span().clone();
                let at_spawn = n.at_spawn.clone();
                n.final_span = Some(span.clone());
                if let Some(parent) = parent {
                    let pn = &mut nodes[parent as usize];
                    if at_spawn.cycles + span.cycles > pn.candidate.cycles {
                        let mut breakdown = at_spawn.breakdown;
                        breakdown += span.breakdown;
                        pn.candidate = Stretch {
                            cycles: at_spawn.cycles + span.cycles,
                            breakdown,
                            via: Some(Rc::new(ViaNode { task: e.task, prev: at_spawn.via })),
                        };
                    }
                }
            }
            TaskEventKind::Join => {
                let n = &mut nodes[e.task as usize];
                if n.candidate.cycles > n.path.cycles {
                    n.path = n.candidate.clone();
                }
            }
            // A multiplicity duplicate is parentless: its cycles count as
            // work (the duplicate execution is real burden) but it folds no
            // span into any parent — the original carries the join chain.
            // An orphan discarded from a dead core's deque never ran.
            TaskEventKind::Duplicate { .. }
            | TaskEventKind::Discarded
            | TaskEventKind::ExecBegin
            | TaskEventKind::Stolen { .. } => {}
        }
    }

    // Drain every core's remaining spans: cycles after the last event
    // (scheduler wind-down, the root's set_done tail) still count as work.
    for core in 0..attr_spans.len() {
        consume(&mut nodes, &mut cursors, core, u64::MAX);
    }

    let work: u64 = nodes.iter().map(|n| n.accrued).sum();
    // The root's span: frozen at its ExecEnd, before the wind-down tail
    // accrued (normally), else wherever its path stands.
    let root = ledger.root().map(|root| {
        let rn = &nodes[root as usize];
        (root, rn.final_span.clone().unwrap_or_else(|| rn.span().clone()))
    });
    // Pre-order expansion: each task on the path, then the chains of the
    // children its path descends through, in path order.
    let mut chain = Vec::new();
    let mut stack: Vec<(u32, Via)> = root.iter().map(|(t, s)| (*t, s.via.clone())).collect();
    while let Some((t, via)) = stack.pop() {
        let life = &lives[t as usize];
        let (begin, core) = life.exec_begin.unwrap_or((0, 0));
        chain.push(ChainLink {
            task: t,
            exec_begin: begin,
            exec_end: life.exec_end.unwrap_or(begin),
            core,
            stolen: life.stolen,
        });
        if chain.len() > nodes.len() {
            return Err("critical-path chain longer than the task count".into());
        }
        for c in via_forward(&via).into_iter().rev() {
            let child = &nodes[c as usize].final_span;
            stack.push((c, child.as_ref().and_then(|s| s.via.clone())));
        }
    }
    let span = root.map(|(_, s)| s).unwrap_or_default();

    Ok(CritPath {
        lens,
        work,
        span: span.cycles,
        tasks: ledger.tasks,
        steals: ledger.steals,
        span_breakdown: span.breakdown,
        chain,
    })
}

/// [`replay`] over a finished run.
pub fn replay_run(run: &TaskRun, lens: CycleLens) -> Result<CritPath, String> {
    replay(&run.task_events, &run.report.attr_spans, lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::small_run_profiled;
    use bigtiny_core::RuntimeKind;

    fn event(cycle: u64, core: usize, task: u32, kind: TaskEventKind) -> TaskEvent {
        TaskEvent { cycle, core, task, kind }
    }

    fn span(task: Option<u32>, start: u64, end: u64, cat: TimeCategory) -> AttrSpan {
        let mut breakdown = TimeBreakdown::new();
        breakdown.add(cat, end - start);
        AttrSpan { task, start, end, breakdown }
    }

    fn mixed_span(
        task: Option<u32>,
        start: u64,
        end: u64,
        cats: &[(TimeCategory, u64)],
    ) -> AttrSpan {
        let mut breakdown = TimeBreakdown::new();
        for &(c, n) in cats {
            breakdown.add(c, n);
        }
        assert_eq!(breakdown.total(), end - start, "fixture span must tile its interval");
        AttrSpan { task, start, end, breakdown }
    }

    /// A two-core fixture, built by hand so every number below is checked
    /// against the replay exactly:
    ///
    /// * task 0 (root) executes on core 0, spawns task 1 (stolen to
    ///   core 1) and task 2 (inlined on core 0), waits, and finishes;
    /// * task 1 carries 10 cycles of ULI-wait burden, task 2 is pure
    ///   compute; the root idles 40 cycles waiting for the join.
    fn fixture() -> (Vec<TaskEvent>, Vec<Vec<AttrSpan>>) {
        use TaskEventKind::*;
        use TimeCategory::*;
        let events = vec![
            event(0, 0, 0, Spawn { parent: None }),
            event(10, 0, 0, ExecBegin),
            event(20, 0, 1, Spawn { parent: Some(0) }),
            event(25, 0, 2, Spawn { parent: Some(0) }),
            event(30, 0, 2, ExecBegin),
            event(30, 1, 1, Stolen { from: 0 }),
            event(30, 1, 1, ExecBegin),
            event(50, 0, 2, ExecEnd),
            event(85, 1, 1, ExecEnd),
            event(90, 0, 0, Join),
            event(100, 0, 0, ExecEnd),
        ];
        let core0 = vec![
            span(None, 0, 10, Idle),
            span(Some(0), 10, 20, Compute),
            span(Some(0), 20, 25, Compute),
            span(Some(0), 25, 30, Compute),
            span(Some(2), 30, 50, Compute),
            span(Some(0), 50, 90, Idle),
            span(Some(0), 90, 100, Compute),
        ];
        let core1 = vec![
            span(None, 0, 30, Idle),
            mixed_span(Some(1), 30, 85, &[(Compute, 45), (UliWait, 10)]),
            span(None, 85, 88, Idle),
        ];
        (events, vec![core0, core1])
    }

    #[test]
    fn hand_built_dag_replays_to_exact_work_and_span() {
        let (events, spans) = fixture();
        let cp = replay(&events, &spans, CycleLens::Burdened).unwrap();
        // T1: every task-attributed cycle. Root 70 (20 pre-spawn + 40 idle
        // + 10 tail), task 1 55, task 2 20.
        assert_eq!(cp.work, 145);
        // T∞: root path 10 to the spawn of task 1, task 1's 55 burdened
        // cycles, 10 serial cycles after the join. The idle wait (20 + 40
        // = 60 by the join) loses to the candidate chain (10 + 55 = 65).
        assert_eq!(cp.span, 75);
        assert_eq!(cp.tasks, 3);
        assert_eq!(cp.steals, 1);
        assert!(cp.parallelism() > 1.9 && cp.parallelism() < 2.0, "{}", cp.parallelism());
        // The chain runs root -> stolen task 1.
        let tasks: Vec<u32> = cp.chain.iter().map(|l| l.task).collect();
        assert_eq!(tasks, vec![0, 1]);
        assert_eq!(cp.chain_steals(), 1);
        assert_eq!(cp.chain[1].core, 1);
        assert_eq!(cp.chain[1].exec_begin, 30);
        assert_eq!(cp.chain[1].exec_end, 85);
        // The burden on the path is visible by category.
        assert_eq!(cp.span_breakdown.get(TimeCategory::Compute), 65);
        assert_eq!(cp.span_breakdown.get(TimeCategory::UliWait), 10);
        assert_eq!(cp.span_breakdown.total(), cp.span);
    }

    #[test]
    fn lenses_strip_overhead_categories_from_the_path() {
        let (events, spans) = fixture();
        // Zero-steal: task 1's 10 ULI-wait cycles and the root's idle wait
        // vanish; the chain through task 1 still wins (10 + 45 = 55 over a
        // 20-cycle serial path), and 10 tail cycles follow the join.
        let zs = replay(&events, &spans, CycleLens::ZeroSteal).unwrap();
        assert_eq!(zs.span, 65);
        assert_eq!(zs.work, 95);
        // No atomics/invalidates/flushes in the fixture: zero-coherence
        // equals burdened, work-only equals zero-steal.
        let zc = replay(&events, &spans, CycleLens::ZeroCoherence).unwrap();
        assert_eq!((zc.work, zc.span), (145, 75));
        let wo = replay(&events, &spans, CycleLens::WorkOnly).unwrap();
        assert_eq!((wo.work, wo.span), (95, 65));
    }

    #[test]
    fn empty_event_stream_replays_to_zero() {
        let cp = replay(&[], &[], CycleLens::Burdened).unwrap();
        assert_eq!((cp.work, cp.span, cp.tasks), (0, 0, 0));
        assert!(cp.chain.is_empty());
    }

    #[test]
    fn checker_rejects_malformed_streams() {
        use TaskEventKind::*;
        let root = event(0, 0, 0, Spawn { parent: None });
        let err = |events: &[TaskEvent]| check_task_dag(events).unwrap_err();
        assert!(err(&[event(5, 0, 1, ExecBegin)]).contains("without a Spawn"));
        assert!(err(&[root, event(1, 0, 0, Spawn { parent: None })]).contains("spawned twice"));
        assert!(err(&[root, event(2, 0, 1, Spawn { parent: Some(3) })]).contains("never spawned"));
        assert!(err(&[root, event(2, 0, 1, Spawn { parent: Some(1) })]).contains("its own parent"));
        assert!(err(&[root, event(5, 0, 0, ExecBegin), event(3, 0, 0, ExecEnd)])
            .contains("back in time"));
        assert!(err(&[root, event(1, 0, 0, ExecEnd)]).contains("without beginning"));
        assert!(err(&[root, event(1, 0, 0, ExecBegin)]).contains("never ended"));
        assert!(err(&[root, event(1, 0, 1, Spawn { parent: None })]).contains("root"));
        let (events, _) = fixture();
        let check = check_task_dag(&events).unwrap();
        assert_eq!(
            check,
            DagCheck {
                tasks: 3,
                executed: 3,
                steals: 1,
                joins: 1,
                respawns: 0,
                discards: 0,
                duplicates: 0
            }
        );
    }

    /// A real profiled run obeys the work/span laws: `T∞ ≤ Tp ≤ T1` (the
    /// root-attribution policy makes both exact) and replay work matches
    /// the attributed cycles summed straight off the spans.
    #[test]
    fn real_run_satisfies_workspan_bounds() {
        for kind in [RuntimeKind::Dts, RuntimeKind::Hcc] {
            let run = small_run_profiled(kind, 10);
            assert!(profiled(&run));
            let cp = replay_run(&run, CycleLens::Burdened).unwrap();
            let p = run.report.core_cycles.len() as u64;
            let tp = run.report.completion_cycles;
            assert!(cp.span <= tp, "{kind:?}: span {} > Tp {tp}", cp.span);
            assert!(tp <= cp.work, "{kind:?}: Tp {tp} > work {}", cp.work);
            assert!(cp.work.div_ceil(p) <= tp, "{kind:?}: work/P > Tp");
            let attributed: u64 = run
                .report
                .attr_spans
                .iter()
                .flatten()
                .filter(|s| s.task.is_some())
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(cp.work, attributed, "{kind:?}: replay must conserve attributed cycles");
            assert!(cp.chain.len() >= 2, "{kind:?}: fib's critical path crosses tasks");
        }
    }
}
