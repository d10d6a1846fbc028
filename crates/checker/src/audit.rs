//! Exactly-once / at-least-once execution audit over the task-event
//! stream.
//!
//! The DRF passes in this crate need the per-op memory stream, which is
//! incompatible with fault injection (`run_system` rejects armed checkers
//! under an active [`bigtiny_engine::FaultPlan`] because faults perturb
//! the schedule the oracle replays). Crash runs are instead audited at the
//! *task* level, from the lifecycle events a
//! [`bigtiny_core::RuntimeConfig::record_task_events`] run records:
//!
//! * **Crash-free runs are exactly-once**: every spawned task executes to
//!   completion exactly once; any respawn or discard is a violation.
//! * **Crash runs are at-least-once with accounting**: a task may stop
//!   mid-execution only if a [`TaskEventKind::Respawn`] covers it or an
//!   ancestor (the replacement re-runs the subtree); a task may be
//!   [`TaskEventKind::Discarded`] only if it never began executing; a
//!   subtree that re-executes is flagged as a *duplicated effect* unless
//!   the kernel is on the idempotence whitelist
//!   ([`IDEMPOTENT_KERNELS`]) — i.e. its side effects are written so that
//!   running a subtree twice lands the same final state.
//! * **Multiplicity-deque runs are at-most-twice**
//!   ([`AuditMode::Multiplicity`]): the fence-free and idempotent deque
//!   policies may double-claim a slot, re-executing the claimed task as a
//!   fresh [`TaskEventKind::Duplicate`] record. The audit verifies the
//!   multiplicity contract instead of flagging it: each original may be
//!   duplicated at most once ([`AuditViolationKind::OverDuplicated`]
//!   otherwise), the duplicated original must itself run to completion,
//!   and any duplicate on a kernel outside the *duplicate-safe* whitelist
//!   ([`DUPLICATE_SAFE_KERNELS`], strictly stronger than respawn
//!   idempotence) is a [`AuditViolationKind::NonIdempotentReexec`].
//!   Outside this mode a `Duplicate` event is an
//!   [`AuditViolationKind::UnexpectedDuplicate`].
//!
//! The audit is deterministic (one linear pass, no hash-order iteration),
//! so [`AuditReport::verdict_hash`] is a stable fingerprint of the
//! verdict: the chaos fuzzer and the golden-trace determinism pins compare
//! it across runs and backends.
//!
//! What the events *mean* for a task — its parent, its execution window,
//! whether a respawn covers it — is [`TaskLedger`]'s to say; this module
//! decides what a lifecycle violates.
//!
//! [`TaskEventKind::Respawn`]: bigtiny_core::TaskEventKind::Respawn
//! [`TaskEventKind::Discarded`]: bigtiny_core::TaskEventKind::Discarded
//! [`TaskEventKind::Duplicate`]: bigtiny_core::TaskEventKind::Duplicate

use bigtiny_core::{RuntimeConfig, RuntimeKind, TaskEvent, TaskFault, TaskLedger};
use bigtiny_engine::hash;

/// Kernels whose side effects are idempotent under subtree re-execution:
/// every shared write is a pure function of the task's identity (slot
/// writes, CAS-claimed flags), never a read-modify-write accumulation.
/// Re-executing any subtree of these kernels lands the same final state,
/// so duplicated effects are not violations for them.
///
/// This list is a *claim* audited by the crash-matrix acceptance tests:
/// every kernel here must produce correct output under the crash-storm
/// plan on every setup.
pub const IDEMPOTENT_KERNELS: [&str; 13] = [
    "cilk5-cs",
    "cilk5-lu",
    "cilk5-mm",
    "cilk5-mt",
    "cilk5-nq",
    "ligra-bc",
    "ligra-bf",
    "ligra-bfs",
    "ligra-bfsbv",
    "ligra-cc",
    "ligra-mis",
    "ligra-radii",
    "ligra-tc",
];

/// Whether `kernel` declares its side effects idempotent under subtree
/// re-execution.
pub fn kernel_is_idempotent(kernel: &str) -> bool {
    IDEMPOTENT_KERNELS.contains(&kernel)
}

/// Kernels whose side effects survive *duplicate* execution — the same
/// task body running twice to completion, concurrently or back-to-back,
/// as the multiplicity deques allow. This is strictly stronger than
/// crash-respawn idempotence: a respawn replays a subtree whose first
/// attempt was cut short, while a duplicate re-applies a task that
/// already fully ran. Members either only ever write pure functions of
/// task identity (slot stores, CAS-claimed flags, monotone AMO min/max)
/// or switch their accumulations to idempotent slot writes when
/// `TaskCx::reexec_possible` reports a multiplicity policy (nqueens'
/// solution counter, BC's sigma, TC's triangle count). `cilk5-lu` and
/// `cilk5-mm` are respawn-idempotent but update their matrices in place
/// with unguarded read-modify-writes, which double-apply under
/// duplication — they are on [`IDEMPOTENT_KERNELS`] but not here.
///
/// Like the respawn whitelist, this is a *claim*: the `model_check`
/// duplicate-injection cells re-verify it on every sweep.
pub const DUPLICATE_SAFE_KERNELS: [&str; 11] = [
    "cilk5-cs",
    "cilk5-mt",
    "cilk5-nq",
    "ligra-bc",
    "ligra-bf",
    "ligra-bfs",
    "ligra-bfsbv",
    "ligra-cc",
    "ligra-mis",
    "ligra-radii",
    "ligra-tc",
];

/// Whether `kernel` declares its side effects safe under full duplicate
/// execution (the multiplicity deques' at-most-twice contract).
pub fn kernel_is_duplicate_safe(kernel: &str) -> bool {
    DUPLICATE_SAFE_KERNELS.contains(&kernel)
}

/// Which execution contract [`audit_task_events_mode`] verifies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditMode {
    /// Crash-free, exactly-once policy: every spawned task completes once;
    /// respawns, discards, and duplicates are all violations.
    ExactlyOnce,
    /// Crash-armed, at-least-once: respawn/discard accounting is expected,
    /// duplicates are not (the locked and Chase-Lev deques never double-
    /// claim).
    AtLeastOnce,
    /// A multiplicity deque policy (fence-free or idempotent) is active:
    /// at-most-twice execution is the invariant. `crash_armed` layers the
    /// at-least-once respawn/discard accounting on top when a crash plan
    /// is also armed.
    Multiplicity {
        /// Whether respawns/discards are additionally expected.
        crash_armed: bool,
    },
}

impl AuditMode {
    /// The contract a run under `rt` is audited against. A multiplicity
    /// deque policy is only in force under the `Baseline` runtime (HCC and
    /// DTS always schedule through the locked protocol); `crash_armed`
    /// says whether the fault plan can fail-stop cores.
    pub fn for_run(rt: &RuntimeConfig, crash_armed: bool) -> Self {
        let multiplicity = rt.kind == RuntimeKind::Baseline && rt.deque_kind.multiplicity();
        Self::select(multiplicity, crash_armed)
    }

    fn select(multiplicity: bool, crash_armed: bool) -> Self {
        match (multiplicity, crash_armed) {
            (true, crash_armed) => AuditMode::Multiplicity { crash_armed },
            (false, true) => AuditMode::AtLeastOnce,
            (false, false) => AuditMode::ExactlyOnce,
        }
    }

    /// Whether respawn/discard recovery events are expected.
    pub fn crash_armed(self) -> bool {
        matches!(self, AuditMode::AtLeastOnce | AuditMode::Multiplicity { crash_armed: true })
    }

    /// Whether audited duplicate executions are expected.
    pub fn multiplicity(self) -> bool {
        matches!(self, AuditMode::Multiplicity { .. })
    }
}

/// What the audit found wrong with one task's lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuditViolationKind {
    /// Spawned (or respawned), never executed, never discarded: the task
    /// was lost — dropped from a deque or mailbox without recovery.
    Lost,
    /// Began executing but never finished, and no respawn covers it or an
    /// ancestor: the crash consumed the task without a replacement.
    Unrecovered,
    /// Discarded after it began executing: recovery threw away a task
    /// whose partial effects are already visible.
    DiscardedMidExec,
    /// Executed to completion more than once (two `ExecEnd`s for one id) —
    /// forbidden even under at-least-once, which duplicates *subtrees*
    /// under fresh ids, never one record.
    DoubleExec,
    /// A respawn or discard appeared in a run whose fault plan has no
    /// crash dimension armed.
    UnexpectedRecovery,
    /// Subtree re-execution happened but the kernel is not on the
    /// idempotence whitelist: its duplicated side effects are unaudited.
    NonIdempotentReexec,
    /// A multiplicity duplicate appeared in a run whose deque policy never
    /// double-claims (exactly-once / at-least-once modes).
    UnexpectedDuplicate,
    /// One original was duplicated more than once: the at-most-twice
    /// contract of the multiplicity deques is broken.
    OverDuplicated,
    /// The event stream itself is malformed (respawn of an unknown task,
    /// events for a task never spawned).
    MalformedStream,
}

impl AuditViolationKind {
    /// Stable label used in reports and the verdict hash.
    pub fn label(self) -> &'static str {
        match self {
            AuditViolationKind::Lost => "lost",
            AuditViolationKind::Unrecovered => "unrecovered",
            AuditViolationKind::DiscardedMidExec => "discarded-mid-exec",
            AuditViolationKind::DoubleExec => "double-exec",
            AuditViolationKind::UnexpectedRecovery => "unexpected-recovery",
            AuditViolationKind::NonIdempotentReexec => "non-idempotent-reexec",
            AuditViolationKind::UnexpectedDuplicate => "unexpected-duplicate",
            AuditViolationKind::OverDuplicated => "over-duplicated",
            AuditViolationKind::MalformedStream => "malformed-stream",
        }
    }
}

/// One audit finding.
#[derive(Clone, Debug)]
pub struct AuditViolation {
    /// What rule was broken.
    pub kind: AuditViolationKind,
    /// Task the finding concerns.
    pub task: u32,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] task {}: {}", self.kind.label(), self.task, self.detail)
    }
}

/// The result of auditing one run's task-event stream.
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Whether the run's fault plan had a crash dimension armed (sets the
    /// exactly-once vs at-least-once expectation).
    pub crash_armed: bool,
    /// Tasks spawned (including respawn replacements).
    pub tasks: u64,
    /// Tasks that executed to completion.
    pub completed: u64,
    /// Respawn replacements seen.
    pub respawns: u64,
    /// Orphans discarded without executing.
    pub discards: u64,
    /// Tasks that died mid-execution and are covered by a respawn.
    pub recovered: u64,
    /// Multiplicity duplicates seen (fresh records re-executing a
    /// double-claimed original).
    pub duplicates: u64,
    /// Findings, in task-id order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// No violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of findings of one kind.
    pub fn count(&self, kind: AuditViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// FNV-1a fingerprint of the verdict: folds the lifecycle counts and
    /// every finding's kind and task. Deterministic runs produce identical
    /// hashes; any audit-visible divergence changes it.
    pub fn verdict_hash(&self) -> u64 {
        let mut h = hash::FNV_OFFSET;
        for n in [
            self.crash_armed as u64,
            self.tasks,
            self.completed,
            self.respawns,
            self.discards,
            self.recovered,
            self.duplicates,
        ] {
            h = hash::fnv1a_continue(h, &n.to_le_bytes());
        }
        for v in &self.violations {
            h = hash::fnv1a_continue(h, v.kind.label().as_bytes());
            h = hash::fnv1a_continue(h, &(v.task as u64).to_le_bytes());
        }
        h
    }

    /// Renders a short human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} tasks, {} completed, {} respawns, {} discards, {} recovered, {} duplicates\n",
            if self.is_clean() { "clean" } else { "VIOLATIONS" },
            self.tasks,
            self.completed,
            self.respawns,
            self.discards,
            self.recovered,
            self.duplicates,
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }
}

/// Audits a task-event stream for exactly-once (crash-free) or accounted
/// at-least-once (crash-armed) execution.
///
/// [`audit_task_events_mode`] for a run that scheduled through an
/// exactly-once deque policy (see [`AuditMode::for_run`] for the rest):
/// `crash_armed` selects [`AuditMode::AtLeastOnce`] vs
/// [`AuditMode::ExactlyOnce`].
pub fn audit_task_events(events: &[TaskEvent], crash_armed: bool, kernel: &str) -> AuditReport {
    audit_task_events_mode(events, AuditMode::select(false, crash_armed), kernel)
}

/// Audits a task-event stream under `mode` (see [`AuditMode`]).
///
/// `kernel` selects the idempotence expectation for re-executed subtrees
/// and duplicates; pass the registry name (e.g. `cilk5-nq`) or any other
/// label — unknown names are simply not whitelisted.
pub fn audit_task_events_mode(events: &[TaskEvent], mode: AuditMode, kernel: &str) -> AuditReport {
    let mut violations = Vec::new();
    let mut flag = |kind: AuditViolationKind, task: u32, detail: String| {
        violations.push(AuditViolation { kind, task, detail });
    };

    // The lifecycle is the ledger's; a stream it faults is still folded to
    // the end, every fault a finding against the event's task.
    let mut ledger = TaskLedger::default();
    for e in events {
        if let Some(fault) = ledger.push(e) {
            let kind = match fault {
                TaskFault::EndedTwice(_) => AuditViolationKind::DoubleExec,
                TaskFault::DiscardedMidExec(_) => AuditViolationKind::DiscardedMidExec,
                TaskFault::Malformed(_) => AuditViolationKind::MalformedStream,
            };
            flag(kind, e.task, fault.to_string());
        }
    }
    let (respawns, discards, duplicates) = (ledger.respawns, ledger.discards, ledger.duplicates);

    if !mode.crash_armed() && (respawns > 0 || discards > 0) {
        flag(
            AuditViolationKind::UnexpectedRecovery,
            0,
            format!("{respawns} respawns and {discards} discards in a crash-free run"),
        );
    }

    let mut recovered = 0;
    for (life, id) in ledger.lives().iter().zip(0u32..) {
        if life.is_duplicate && !mode.multiplicity() {
            flag(
                AuditViolationKind::UnexpectedDuplicate,
                id,
                "a duplicate under an exactly-once deque policy".into(),
            );
        }
        if life.duplicates >= 2 {
            flag(
                AuditViolationKind::OverDuplicated,
                id,
                "original duplicated more than once (at-most-twice broken)".into(),
            );
        }
        if !life.spawned {
            continue;
        }
        // A task that stopped mid-execution, or never started, is accounted
        // for iff a respawn covers it or one of its ancestors (the
        // replacement re-runs the whole subtree, recreating descendants
        // under fresh ids).
        let began = life.exec_begin.is_some();
        if began && life.exec_end.is_none() {
            if ledger.covered(id) {
                recovered += 1;
            } else {
                flag(
                    AuditViolationKind::Unrecovered,
                    id,
                    "died mid-execution with no covering respawn".into(),
                );
            }
        }
        if !began && !life.discarded && !ledger.covered(id) {
            flag(AuditViolationKind::Lost, id, "spawned but never executed nor discarded".into());
        }
    }

    if respawns > 0 && !kernel_is_idempotent(kernel) {
        flag(
            AuditViolationKind::NonIdempotentReexec,
            0,
            format!(
                "{respawns} subtree re-executions but kernel {kernel:?} is not respawn-idempotent"
            ),
        );
    }
    // Duplicates are held to the stricter whitelist: re-running an
    // already-completed task double-applies accumulations that a
    // cut-short respawn replay would not.
    if duplicates > 0 && !kernel_is_duplicate_safe(kernel) {
        flag(
            AuditViolationKind::NonIdempotentReexec,
            0,
            format!(
                "{duplicates} duplicate executions but kernel {kernel:?} is not duplicate-safe"
            ),
        );
    }

    violations.sort_by_key(|v| (v.task, v.kind.label()));
    AuditReport {
        crash_armed: mode.crash_armed(),
        tasks: ledger.tasks,
        completed: ledger.executed,
        respawns,
        discards,
        recovered,
        duplicates,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_core::TaskEventKind;

    fn ev(cycle: u64, core: usize, task: u32, kind: TaskEventKind) -> TaskEvent {
        TaskEvent { cycle, core, task, kind }
    }

    /// A clean crash-free stream: root spawns one child, both complete.
    fn clean_stream() -> Vec<TaskEvent> {
        use TaskEventKind::*;
        vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(8, 1, 1, ExecEnd),
            ev(9, 0, 0, Join),
            ev(10, 0, 0, ExecEnd),
        ]
    }

    #[test]
    fn clean_stream_is_exactly_once() {
        let r = audit_task_events(&clean_stream(), false, "cilk5-nq");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!((r.tasks, r.completed, r.respawns, r.discards), (2, 2, 0, 0));
    }

    #[test]
    fn recovery_in_a_crash_free_run_is_flagged() {
        use TaskEventKind::*;
        let mut events = clean_stream();
        events.push(ev(11, 2, 2, Respawn { of: 1 }));
        events.push(ev(12, 2, 2, ExecBegin));
        events.push(ev(13, 2, 2, ExecEnd));
        let r = audit_task_events(&events, false, "cilk5-nq");
        assert_eq!(r.count(AuditViolationKind::UnexpectedRecovery), 1, "{}", r.render());
    }

    #[test]
    fn crash_with_covering_respawn_is_accounted() {
        use TaskEventKind::*;
        // Task 1 dies mid-execution; its child 2 sat in the dead deque and
        // is discarded; task 3 respawns task 1 and completes the subtree.
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(5, 1, 2, Spawn { parent: Some(1) }),
            // core 1 crashes here
            ev(9, 2, 2, Discarded),
            ev(10, 2, 3, Respawn { of: 1 }),
            ev(11, 2, 3, ExecBegin),
            ev(12, 2, 4, Spawn { parent: Some(3) }),
            ev(13, 2, 4, ExecBegin),
            ev(14, 2, 4, ExecEnd),
            ev(15, 2, 3, ExecEnd),
            ev(16, 0, 0, Join),
            ev(17, 0, 0, ExecEnd),
        ];
        let r = audit_task_events(&events, true, "cilk5-nq");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!((r.tasks, r.respawns, r.discards, r.recovered), (5, 1, 1, 1));
    }

    #[test]
    fn uncovered_death_and_lost_tasks_are_violations() {
        use TaskEventKind::*;
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, ExecBegin),
            // core 1 crashes; nobody respawns task 1
            ev(9, 0, 2, Spawn { parent: Some(0) }),
            // task 2 is never executed nor discarded
            ev(17, 0, 0, ExecEnd),
        ];
        let r = audit_task_events(&events, true, "cilk5-nq");
        assert_eq!(r.count(AuditViolationKind::Unrecovered), 1, "{}", r.render());
        assert_eq!(r.count(AuditViolationKind::Lost), 1, "{}", r.render());
    }

    #[test]
    fn descendants_of_a_respawned_task_are_covered() {
        use TaskEventKind::*;
        // Task 2 (child of dead task 1) also began and never ended — the
        // ancestor's respawn covers it.
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, ExecBegin),
            ev(4, 1, 2, Spawn { parent: Some(1) }),
            ev(5, 1, 2, ExecBegin),
            // core 1 crashes with both 1 and 2 on its stack
            ev(10, 2, 3, Respawn { of: 1 }),
            ev(11, 2, 3, ExecBegin),
            ev(15, 2, 3, ExecEnd),
            ev(17, 0, 0, ExecEnd),
        ];
        let r = audit_task_events(&events, true, "cilk5-nq");
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.recovered, 2);
    }

    #[test]
    fn discard_mid_exec_and_double_exec_are_violations() {
        use TaskEventKind::*;
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, ExecBegin),
            ev(4, 2, 1, Discarded),
            ev(5, 0, 0, ExecEnd),
            ev(6, 0, 0, ExecEnd),
        ];
        let r = audit_task_events(&events, true, "cilk5-nq");
        assert_eq!(r.count(AuditViolationKind::DiscardedMidExec), 1, "{}", r.render());
        assert_eq!(r.count(AuditViolationKind::DoubleExec), 1, "{}", r.render());
    }

    #[test]
    fn reexecution_outside_the_whitelist_is_flagged() {
        use TaskEventKind::*;
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, ExecBegin),
            ev(10, 2, 2, Respawn { of: 1 }),
            ev(11, 2, 2, ExecBegin),
            ev(12, 2, 2, ExecEnd),
            ev(17, 0, 0, ExecEnd),
        ];
        let r = audit_task_events(&events, true, "my-accumulating-kernel");
        assert_eq!(r.count(AuditViolationKind::NonIdempotentReexec), 1, "{}", r.render());
        let r = audit_task_events(&events, true, "ligra-tc");
        assert!(r.is_clean(), "{}", r.render());
    }

    /// A multiplicity stream: owner and thief both claim task 1; the
    /// duplicate runs under a fresh id 2 with no parent.
    fn duplicate_stream() -> Vec<TaskEvent> {
        use TaskEventKind::*;
        vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(5, 0, 2, Duplicate { of: 1 }),
            ev(6, 0, 2, ExecBegin),
            ev(7, 0, 2, ExecEnd),
            ev(8, 1, 1, ExecEnd),
            ev(9, 0, 0, Join),
            ev(10, 0, 0, ExecEnd),
        ]
    }

    #[test]
    fn multiplicity_mode_accepts_an_at_most_twice_duplicate() {
        let r = audit_task_events_mode(
            &duplicate_stream(),
            AuditMode::Multiplicity { crash_armed: false },
            "ligra-cc",
        );
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!((r.tasks, r.completed, r.duplicates), (3, 3, 1));
    }

    #[test]
    fn duplicate_outside_multiplicity_mode_is_flagged() {
        let r = audit_task_events(&duplicate_stream(), false, "cilk5-nq");
        assert_eq!(r.count(AuditViolationKind::UnexpectedDuplicate), 1, "{}", r.render());
        let r = audit_task_events(&duplicate_stream(), true, "cilk5-nq");
        assert_eq!(r.count(AuditViolationKind::UnexpectedDuplicate), 1, "{}", r.render());
    }

    #[test]
    fn duplicating_one_original_twice_breaks_at_most_twice() {
        use TaskEventKind::*;
        let mut events = duplicate_stream();
        events.push(ev(11, 0, 3, Duplicate { of: 1 }));
        events.push(ev(12, 0, 3, ExecBegin));
        events.push(ev(13, 0, 3, ExecEnd));
        let r = audit_task_events_mode(
            &events,
            AuditMode::Multiplicity { crash_armed: false },
            "cilk5-nq",
        );
        assert_eq!(r.count(AuditViolationKind::OverDuplicated), 1, "{}", r.render());
    }

    #[test]
    fn duplicate_on_a_non_whitelisted_kernel_is_flagged() {
        let r = audit_task_events_mode(
            &duplicate_stream(),
            AuditMode::Multiplicity { crash_armed: false },
            "my-accumulating-kernel",
        );
        assert_eq!(r.count(AuditViolationKind::NonIdempotentReexec), 1, "{}", r.render());
    }

    #[test]
    fn respawn_idempotent_but_not_duplicate_safe_is_flagged_on_duplicates() {
        // LU tolerates a cut-short subtree respawn (the crash matrix
        // proves it) but its in-place panel updates double-apply if an
        // already-completed task runs again: the duplicate whitelist is
        // strictly stronger than the respawn one.
        assert!(kernel_is_idempotent("cilk5-lu") && !kernel_is_duplicate_safe("cilk5-lu"));
        let r = audit_task_events_mode(
            &duplicate_stream(),
            AuditMode::Multiplicity { crash_armed: false },
            "cilk5-lu",
        );
        assert_eq!(r.count(AuditViolationKind::NonIdempotentReexec), 1, "{}", r.render());
    }

    #[test]
    fn duplicated_original_must_still_complete() {
        use TaskEventKind::*;
        // The duplicate ran, but the original's claimant never finished it:
        // the rc decrement is lost, so this must not audit clean.
        let events = vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(5, 0, 2, Duplicate { of: 1 }),
            ev(6, 0, 2, ExecBegin),
            ev(7, 0, 2, ExecEnd),
            ev(10, 0, 0, ExecEnd),
        ];
        let r = audit_task_events_mode(
            &events,
            AuditMode::Multiplicity { crash_armed: false },
            "cilk5-nq",
        );
        assert_eq!(r.count(AuditViolationKind::Unrecovered), 1, "{}", r.render());
    }

    /// The three streams on which the audit used to panic (an unknown
    /// parent indexed out of bounds), hang (a self-parent looped the
    /// coverage walk) and disagree with the DAG check (a second `ExecBegin`
    /// audited clean): each is a `MalformedStream` finding against the
    /// offending event's task. The audit runs on its own thread so that a
    /// walk that loops again fails this test instead of wedging the suite;
    /// `tests/tests/ledger_pins.rs` holds the other shapes the two
    /// validators now answer alike.
    #[test]
    fn structurally_broken_streams_are_findings_not_panics_or_hangs() {
        use TaskEventKind::*;
        // Task 1 began and never ended, so the coverage walk starts at it.
        let walked = |parent| {
            vec![
                ev(0, 0, 0, Spawn { parent: None }),
                ev(1, 0, 0, ExecBegin),
                ev(2, 0, 1, Spawn { parent: Some(parent) }),
                ev(3, 1, 1, ExecBegin),
                ev(9, 0, 0, ExecEnd),
            ]
        };
        let mut begun_twice = clean_stream();
        begun_twice.push(ev(11, 1, 1, ExecBegin));
        let cases = [
            ("unknown parent", walked(7)),
            ("self-parent", walked(1)),
            ("second ExecBegin", begun_twice),
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        let jobs = cases.clone();
        std::thread::spawn(move || {
            for (_, events) in jobs {
                if tx.send(audit_task_events(&events, true, "cilk5-nq")).is_err() {
                    return;
                }
            }
        });
        for (what, _) in cases {
            let r = rx
                .recv_timeout(std::time::Duration::from_secs(3))
                .unwrap_or_else(|_| panic!("{what}: the audit did not return"));
            let malformed: Vec<u32> = r
                .violations
                .iter()
                .filter(|v| v.kind == AuditViolationKind::MalformedStream)
                .map(|v| v.task)
                .collect();
            assert_eq!(malformed, [1], "{what}:\n{}", r.render());
        }
    }

    #[test]
    fn whitelist_is_pinned_to_the_kernel_registry_names() {
        // The whitelist is sorted and duplicate-free so membership checks
        // and the acceptance matrix agree on one canonical spelling.
        let mut sorted = IDEMPOTENT_KERNELS;
        sorted.sort_unstable();
        assert_eq!(sorted, IDEMPOTENT_KERNELS);
        assert!(kernel_is_idempotent("cilk5-nq"));
        assert!(!kernel_is_idempotent("nqueens"));
        let mut sorted = DUPLICATE_SAFE_KERNELS;
        sorted.sort_unstable();
        assert_eq!(sorted, DUPLICATE_SAFE_KERNELS);
        // Duplicate-safety implies respawn-idempotence, never the reverse.
        for k in DUPLICATE_SAFE_KERNELS {
            assert!(kernel_is_idempotent(k), "{k} duplicate-safe but not respawn-idempotent");
        }
    }

    /// The one place that decides which contract a run is held to: a
    /// multiplicity deque only counts under the Baseline runtime (HCC/DTS
    /// ignore `deque_kind`), and the crash dimension layers on either.
    #[test]
    fn for_run_selects_the_contract_from_runtime_deque_and_crash_arming() {
        use bigtiny_core::DequeKind;
        let rt = |kind, deque| {
            let mut rt = RuntimeConfig::new(kind);
            rt.deque_kind = deque;
            rt
        };
        for deque in [DequeKind::Locked, DequeKind::ChaseLev] {
            let rt = rt(RuntimeKind::Baseline, deque);
            assert_eq!(AuditMode::for_run(&rt, false), AuditMode::ExactlyOnce);
            assert_eq!(AuditMode::for_run(&rt, true), AuditMode::AtLeastOnce);
        }
        for deque in [DequeKind::FenceFree, DequeKind::Idempotent] {
            for crash_armed in [false, true] {
                assert_eq!(
                    AuditMode::for_run(&rt(RuntimeKind::Baseline, deque), crash_armed),
                    AuditMode::Multiplicity { crash_armed }
                );
            }
            for kind in [RuntimeKind::Hcc, RuntimeKind::Dts] {
                assert_eq!(AuditMode::for_run(&rt(kind, deque), false), AuditMode::ExactlyOnce);
            }
        }
    }

    #[test]
    fn verdict_hash_is_stable_and_sensitive() {
        let a = audit_task_events(&clean_stream(), false, "cilk5-nq");
        let b = audit_task_events(&clean_stream(), false, "cilk5-nq");
        assert_eq!(a.verdict_hash(), b.verdict_hash());
        let mut broken = clean_stream();
        broken.truncate(broken.len() - 1); // drop the root's ExecEnd
        let c = audit_task_events(&broken, false, "cilk5-nq");
        assert_ne!(a.verdict_hash(), c.verdict_hash());
    }
}
