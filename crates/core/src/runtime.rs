//! The work-stealing runtime: the paper's core contribution.
//!
//! One scheduler — `spawn`, `wait`, one scheduling `step`, `execute` —
//! that runs as any of Figure 3's three variants:
//!
//! * [`crate::RuntimeKind::Baseline`] — Figure 3(a): per-deque locks only,
//!   for hardware-based cache coherence.
//! * [`crate::RuntimeKind::Hcc`] — Figure 3(b): a `cache_invalidate` after
//!   every deque lock acquire and a `cache_flush` before every release;
//!   `rc` read with an AMO; an unconditional invalidate when leaving
//!   `wait`; stolen tasks bracketed by invalidate/flush.
//! * [`crate::RuntimeKind::Dts`] — Figure 3(c): direct task stealing over
//!   user-level interrupts. Deques become private (no locks, no
//!   invalidate/flush on local access — just `uli_disable`/`uli_enable`);
//!   the victim steals on behalf of the thief inside the ULI handler; the
//!   `has_stolen_child` flag elides AMOs, flushes, and invalidates entirely
//!   when no child of a task was ever stolen.
//!
//! The variants differ in three places only — how a deque access is
//! bracketed, how a steal travels, how a join is counted — and each is
//! decided once per run and applied in one place: see `shared.rs` (the
//! three axes, the one deque-access helper, the ULI steal handler),
//! `steal.rs` (victim selection, the two transports, the hit and miss
//! tails), `join.rs` (the `rc` / `has_stolen_child` protocol) and
//! `recovery.rs` (below).
//!
//! # Fail-stop crashes and self-healing recovery
//!
//! When the armed fault plan includes a crash dimension
//! (`FaultPlan::crash_armed()`), crash-eligible tiny cores can fail-stop
//! mid-run. A crash is polled only at scheduler safe points (top of a
//! scheduling step, spawn entry) where no simulated or host lock is held;
//! it marks the core's ULI unit dead in sequenced order and unwinds the
//! worker to `run_task_parallel`, which either retires the core's
//! sequencer token (permanent crash) or parks it in a sequenced dormant
//! loop until its scheduled revival. Survivors observe the death through
//! a `Dead` steal reply or a periodic sequenced `dead_mask` scan, race a
//! sequenced claim word (first grant wins, so recovery is deterministic),
//! and the winner then: discards the dead core's deque (every entry
//! descends from a task frozen on its execution stack), rescues unclaimed
//! mailbox tasks (they belong to live families), and re-spawns the bottom
//! task of the frozen stack from its recorded body factory — the
//! replacement inherits the original's parent and join obligation, so no
//! join counter is left short. Recovery gives at-least-once execution:
//! subtrees can run twice, which is why re-execution-tolerant
//! applications gate their side effects on [`TaskCx::reexec_possible`]
//! (idempotent slot writes instead of read-modify-write accumulation) —
//! the same gate fires under the multiplicity deque policies, whose
//! double claims re-run a completed task as an audited duplicate.

mod join;
mod recovery;
mod shared;
mod steal;

use std::sync::Arc;

use bigtiny_coherence::Addr;
use bigtiny_engine::{
    run_system, AddrSpace, CorePort, FlightKind, RunReport, SystemConfig, Worker, WATCHDOG_MSG,
};

use self::shared::{Join, Role, RtShared, Transport};
use crate::config::{MutationKind, RuntimeConfig, RuntimeStats};
use crate::task::{field, RespawnFn, TaskBody, TaskId, TaskRecord};
use crate::telemetry::{StealTelemetry, TaskEvent, TaskEventKind};

/// The result of one simulated task-parallel run.
#[derive(Clone, Debug)]
pub struct TaskRun {
    /// Engine-level measurements (cycles, caches, traffic, ULI).
    pub report: RunReport,
    /// Runtime-level measurements (tasks, steals, work/span).
    pub stats: RuntimeStats,
    /// Scheduler telemetry: per-victim steal outcomes, ULI round-trip
    /// latency histogram, `has_stolen_child` elisions, joins.
    pub telemetry: StealTelemetry,
    /// Task lifecycle events in `(cycle, core)` order; empty unless
    /// [`RuntimeConfig::record_task_events`] was set.
    pub task_events: Vec<TaskEvent>,
}

/// The per-worker execution context handed to every task body.
///
/// `TaskCx` is both the scheduler state of one worker and the TBB-like API
/// surface of the paper's Section III-A: [`TaskCx::spawn`] and
/// [`TaskCx::wait`], with [`crate::parallel_for`] and
/// [`crate::parallel_invoke`] layered on top.
pub struct TaskCx<'a> {
    port: &'a mut CorePort,
    rt: Arc<RtShared>,
    wid: usize,
    stack_top: u64,
    inst_mark: u64,
    current: Option<TaskId>,
    backoff: u64,
    victim_cursor: usize,
    /// Consecutive failed ULI steal attempts (hardened DTS only); reaching
    /// the give-up threshold triggers one shared-memory fallback steal,
    /// after which the count restarts.
    uli_fail_streak: u64,
    /// Whether the fault plan can fail-stop cores (cached from the port).
    /// Every crash/recovery hook below no-ops when false.
    crash_armed: bool,
    /// Scheduling-step counter driving the periodic sequenced dead-core
    /// scan (every 64th step).
    tick: u64,
    /// Cores this worker currently believes dead (from `Dead` replies or
    /// `dead_mask` scans); a core leaving the set on a later scan is how
    /// revival is observed. A growable bitset, so discovery works for
    /// every core of a >64-core system.
    known_dead: bigtiny_mesh::CoreSet,
    /// Cores whose recovery claim this worker already raced (win or lose),
    /// so each death costs at most one claim AMO per worker.
    claim_tried: bigtiny_mesh::CoreSet,
    /// Number of currently-quarantined victims (fast path: victim
    /// selection is untouched while zero).
    quarantined_count: usize,
    /// Per-victim quarantine state.
    health: Vec<VictimHealth>,
}

/// One victim's quarantine state, local to a thief.
#[derive(Clone, Copy, Default)]
struct VictimHealth {
    quarantined: bool,
    /// Local cycle at which the thief will probe the victim again.
    reprobe_at: u64,
    /// Current re-probe backoff, doubled on every failed probe.
    backoff: u64,
}

impl std::fmt::Debug for TaskCx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCx").field("worker", &self.wid).field("current", &self.current).finish()
    }
}

impl<'a> TaskCx<'a> {
    fn new(port: &'a mut CorePort, rt: Arc<RtShared>, wid: usize) -> Self {
        let stack_top = rt.stack_bases[wid];
        let backoff = rt.cfg.steal_backoff_cycles;
        let crash_armed = port.crash_armed();
        let health = vec![VictimHealth::default(); rt.deques.len()];
        TaskCx {
            port,
            rt,
            wid,
            stack_top,
            inst_mark: 0,
            current: None,
            backoff,
            victim_cursor: 0,
            uli_fail_streak: 0,
            crash_armed,
            tick: 0,
            known_dead: bigtiny_mesh::CoreSet::new(),
            claim_tried: bigtiny_mesh::CoreSet::new(),
            quarantined_count: 0,
            health,
        }
    }

    /// Whether a multiplicity deque policy is in force.
    fn multiplicity(&self) -> bool {
        self.rt.disc.policy.multiplicity()
    }

    /// True when a task body may execute more than once: a fail-stop
    /// crash plan is armed (recovery re-runs the subtree a dead core was
    /// executing, at-least-once) or a multiplicity deque policy is active
    /// (a double-claimed task re-runs as an audited duplicate,
    /// at-most-twice). Re-execution-tolerant applications gate their side
    /// effects on this (idempotent slot writes instead of
    /// read-modify-write accumulation).
    pub fn reexec_possible(&self) -> bool {
        self.crash_armed || self.multiplicity()
    }

    /// Total number of workers.
    pub fn num_workers(&self) -> usize {
        self.rt.deques.len()
    }

    /// Access to the simulated core, for application data accesses.
    pub fn port(&mut self) -> &mut CorePort {
        self.port
    }

    // ------------------------------------------------------------------
    // Profiling
    // ------------------------------------------------------------------

    /// Attributes instructions executed since the last mark to the current
    /// task's serial work and path.
    fn tally_user(&mut self) {
        let now = self.port.instructions();
        let handler = std::mem::take(&mut *self.rt.handler_insts[self.wid].write());
        let delta = (now - self.inst_mark).saturating_sub(handler);
        self.inst_mark = now;
        if delta == 0 {
            return;
        }
        if let Some(cur) = self.current {
            let mut tasks = self.rt.tasks.write();
            let prof = &mut tasks[cur.0 as usize].profile;
            prof.serial_work += delta;
            prof.path += delta;
        }
    }

    /// Resets the mark so runtime-internal instructions are not attributed
    /// to user work.
    fn remark(&mut self) {
        self.inst_mark = self.port.instructions();
        *self.rt.handler_insts[self.wid].write() = 0;
    }

    // ------------------------------------------------------------------
    // Per-worker shorthands for the shared helpers
    // ------------------------------------------------------------------

    fn cache_invalidate(&mut self) {
        self.rt.cache_invalidate(self.port, self.wid);
    }

    fn cache_flush(&mut self) {
        self.rt.cache_flush(self.port, self.wid);
    }

    fn record_event(&mut self, task: u32, kind: TaskEventKind) {
        self.rt.record_event(self.port, self.wid, task, kind);
    }

    /// Pushes `t` on this worker's own deque; `false` if it is full.
    fn push_own(&mut self, t: TaskId) -> bool {
        self.rt.deque_op(self.port, self.wid, self.wid, Role::Owner, |dq, port, policy| {
            dq.push(port, policy, t)
        })
    }

    // ------------------------------------------------------------------
    // Task records and their fields
    // ------------------------------------------------------------------

    /// Carves one task record from this worker's simulated stack, like the
    /// stack-allocated task objects of the paper's Figure 2.
    fn alloc_stack_slot(&mut self) -> Addr {
        let base = self.rt.stack_bases[self.wid];
        assert!(
            self.stack_top + field::SIZE <= base + self.rt.stack_bytes,
            "simulated task stack overflow on worker {}",
            self.wid
        );
        let addr = Addr(self.stack_top);
        self.stack_top += field::SIZE;
        addr
    }

    /// Constructs a task record at `addr` and announces it with `event` —
    /// the one constructor behind a spawn, a crash respawn and a
    /// multiplicity duplicate.
    fn new_task(
        &mut self,
        body: Box<dyn TaskBody>,
        respawn: Option<RespawnFn>,
        parent: Option<TaskId>,
        addr: Addr,
        event: TaskEventKind,
    ) -> TaskId {
        let id = {
            let mut tasks = self.rt.tasks.write();
            let id = TaskId(tasks.len() as u32);
            let mut rec = TaskRecord::new(body, parent, addr);
            rec.respawn = respawn;
            if let TaskEventKind::Duplicate { of } = event {
                rec.duplicate_of = Some(of);
            }
            if let Some(p) = parent {
                rec.profile.spawn_path = tasks[p.0 as usize].profile.path;
            }
            tasks.push(rec);
            id
        };
        // Constructing the task object: descriptor + parent pointer stores.
        self.port.store_words(addr.offset(field::DESC), 2, || ());
        self.port.store_words(addr.offset(field::PARENT), 1, || ());
        self.record_event(id.0, event);
        id
    }

    /// A fresh copy of `orig`'s body from the factory `spawn` recorded
    /// (it records one whenever [`TaskCx::reexec_possible`]).
    fn rebuild_body(&self, orig: TaskId) -> (Box<dyn TaskBody>, RespawnFn) {
        let factory = self.rt.tasks.read()[orig.0 as usize]
            .respawn
            .clone()
            .expect("re-executed task lacks a body factory");
        let body = (*factory.lock().unwrap_or_else(|e| e.into_inner()))();
        (body, factory)
    }

    // ------------------------------------------------------------------
    // spawn — Figure 3, top half
    // ------------------------------------------------------------------

    /// Spawns `body` as a child of the current task (`task::spawn`).
    ///
    /// The number of children must have been announced with
    /// [`TaskCx::set_pending`] first, mirroring the paper's Figure 2.
    ///
    /// Bodies must be `Clone` so that, when a crash plan is armed, a
    /// factory can re-create the body if the core executing the task
    /// fail-stops (the clone is only taken in that mode).
    ///
    /// # Panics
    ///
    /// Panics if called outside a task body or without a `set_pending`
    /// budget.
    pub fn spawn(&mut self, body: impl FnOnce(&mut TaskCx<'_>) + Clone + Send + 'static) {
        self.maybe_crash();
        self.tally_user();
        let parent = self.current.expect("spawn() must be called from within a task");
        {
            let mut tasks = self.rt.tasks.write();
            let rec = &mut tasks[parent.0 as usize];
            assert!(rec.pending_budget > 0, "spawn() without a set_pending() budget");
            rec.pending_budget -= 1;
        }
        // Multiplicity policies also need the factory: a double-claimed
        // task's duplicate re-runs a fresh copy of the body.
        let respawn: Option<RespawnFn> = if self.reexec_possible() {
            let b = body.clone();
            let f: Box<dyn FnMut() -> Box<dyn TaskBody> + Send> =
                Box::new(move || Box::new(b.clone()));
            Some(Arc::new(std::sync::Mutex::new(f)))
        } else {
            None
        };
        let addr = self.alloc_stack_slot();
        let spawned = TaskEventKind::Spawn { parent: Some(parent.0) };
        let child = self.new_task(Box::new(body), respawn, Some(parent), addr, spawned);
        self.rt.counters.write().spawns += 1;
        // A few instructions of call overhead.
        self.port.advance(6);

        if !self.push_own(child) {
            // Deque full: degenerate to immediate execution (depth-first),
            // which preserves semantics.
            self.execute_task(child);
            self.complete_task(child);
        }
        self.remark();
    }

    // ------------------------------------------------------------------
    // wait — Figure 3, bottom half
    // ------------------------------------------------------------------

    /// Waits until every child spawned by the current task has completed
    /// (`task::wait`), scheduling other tasks meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if called outside a task body.
    pub fn wait(&mut self) {
        self.tally_user();
        let p = self.current.expect("wait() must be called from within a task");
        {
            let budget = self.rt.tasks.read()[p.0 as usize].pending_budget;
            assert_eq!(budget, 0, "wait() with {budget} announced children never spawned");
        }
        let join = self.rt.disc.join;
        // Plain reads are the benign `RcWaitLoop` race: safe under
        // hardware coherence (Figure 3(a)), and under DTS while no child
        // was stolen — the value can only be an older, larger count, which
        // the next iteration corrects (Figure 3(c) lines 37-40).
        let mut rc = match join {
            Join::Amo => self.read_rc_amo(p),
            Join::Plain | Join::StolenChild => self.read_rc_plain_racy(p),
        };
        while rc > 0 {
            self.step();
            rc = match join {
                Join::Plain => self.read_rc_plain_racy(p),
                Join::StolenChild if !self.read_hsc(p) => self.read_rc_plain_racy(p),
                Join::Amo | Join::StolenChild => self.read_rc_amo(p),
            };
        }
        // Figure 3(b) line 40: children may have been stolen and produced
        // data elsewhere. Figure 3(c) lines 43-44: only if one was.
        match join {
            Join::Plain => {}
            Join::StolenChild if !self.read_hsc(p) => self.note_hsc_elision(p),
            Join::Amo | Join::StolenChild => self.cache_invalidate(),
        }
        // Merge completed children into the parent's critical path.
        {
            let mut tasks = self.rt.tasks.write();
            let prof = &mut tasks[p.0 as usize].profile;
            prof.path = prof.path.max(prof.candidate);
        }
        self.rt.tel.write().joins += 1;
        self.record_event(p.0, TaskEventKind::Join);
        self.remark();
    }

    // ------------------------------------------------------------------
    // The scheduling step — the loop body of Figure 3's `wait`
    // ------------------------------------------------------------------

    /// One scheduling step: run a task from the own deque, else try to
    /// steal one.
    fn step(&mut self) {
        self.hardened_tick();
        let uli = self.rt.disc.transport == Transport::Uli;
        if uli && self.rt.disc.hardened {
            // A response to a steal request this worker timed out on can
            // arrive arbitrarily late; its task is already queued in our
            // mailbox and would be lost if never claimed. Drain before
            // anything else.
            if let Some(m) = self.port.uli_poll_response() {
                return self.uli_response(m);
            }
        }
        // Local pop (lines 11-13).
        let (local, duplicate) =
            self.rt.deque_op(self.port, self.wid, self.wid, Role::Owner, |dq, port, policy| {
                dq.pop(port, policy)
            });
        if let Some(t) = local {
            return self.run_local(t, duplicate);
        }
        let vid = self.choose_victim();
        self.rt.counters.write().steal_attempts += 1;
        self.port.flight_note(FlightKind::StealAttempt { victim: vid });
        self.rt.tel.write().per_victim[vid].attempts += 1;
        if self.port.fault_steal_miss() {
            // The fault plan forces this attempt to miss before any deque
            // or ULI traffic.
            self.rt.counters.write().forced_steal_misses += 1;
            return if uli { self.uli_missed(vid) } else { self.steal_missed(vid) };
        }
        if uli {
            self.steal_uli(vid);
        } else {
            self.steal_shared(vid);
        }
    }

    /// Runs a task taken from the own deque. `duplicate`: a thief also won
    /// this slot (multiplicity policies) and runs the primary copy.
    fn run_local(&mut self, t: TaskId, duplicate: bool) {
        if duplicate {
            return self.execute_duplicate(t);
        }
        self.execute_task(t);
        self.complete_task(t);
        if self.multiplicity() && self.rt.mutation_hits(MutationKind::DupTask, self.wid) {
            self.execute_duplicate(t);
        }
    }

    /// Re-executes `orig` as an audited multiplicity duplicate: a fresh
    /// parentless record built from the original's body factory. The
    /// duplicate holds no join obligation — the claimant of the *original*
    /// decrements the parent's rc — and only the at-most-twice contract
    /// (checker `Multiplicity` audit) makes the re-execution legal.
    fn execute_duplicate(&mut self, orig: TaskId) {
        let (body, factory) = self.rebuild_body(orig);
        let addr = self.alloc_stack_slot();
        let event = TaskEventKind::Duplicate { of: orig.0 };
        let id = self.new_task(body, Some(factory), None, addr, event);
        self.rt.counters.write().duplicate_executions += 1;
        self.execute_task(id);
    }

    /// The outer scheduling loop for workers that do not run the program's
    /// main thread: keep executing and stealing until the program finishes.
    fn schedule_loop(&mut self) {
        while !self.port.is_done() {
            self.step();
        }
    }

    // ------------------------------------------------------------------
    // Task execution and completion
    // ------------------------------------------------------------------

    fn execute_task(&mut self, t: TaskId) {
        // Task execution is real forward progress: let the liveness
        // watchdog know (free when no watchdog is armed).
        self.port.mark_progress();
        // Attribute everything from dispatch to the post-body profile fold
        // to this task (save/restore nests across inlined child execution).
        let saved_attr = self.port.attr_switch(Some(t.0));
        // Dispatch: read the task descriptor and call through it.
        let desc = self.rt.tasks.read()[t.0 as usize].desc_addr();
        self.port.load_words(desc, 2, || ());
        self.port.advance(4);

        let body = self.rt.tasks.write()[t.0 as usize]
            .body
            .take()
            .expect("task executed twice")
            .into_inner();
        self.rt.counters.write().tasks_executed += 1;

        let saved_current = self.current.replace(t);
        let saved_stack = self.stack_top;
        if self.crash_armed {
            // Crash bookkeeping: an unwind skips the pop below, freezing
            // this worker's execution stack for recovery to read.
            self.rt.exec_stacks[self.wid].write().push(t.0);
        }
        self.record_event(t.0, TaskEventKind::ExecBegin);
        self.remark();
        body.run(self);
        self.tally_user();
        self.record_event(t.0, TaskEventKind::ExecEnd);
        if self.crash_armed {
            let popped = self.rt.exec_stacks[self.wid].write().pop();
            debug_assert_eq!(popped, Some(t.0));
        }
        self.stack_top = saved_stack;
        self.current = saved_current;
        self.port.attr_switch(saved_attr);

        // Fold this task's completed span into its parent's candidate path,
        // and count its serial work.
        let (span, serial, parent, spawn_path, is_dup) = {
            let tasks = self.rt.tasks.read();
            let rec = &tasks[t.0 as usize];
            (
                rec.profile.span(),
                rec.profile.serial_work,
                rec.parent,
                rec.profile.spawn_path,
                rec.duplicate_of.is_some(),
            )
        };
        {
            let mut counters = self.rt.counters.write();
            counters.workspan.work += serial;
            counters.workspan.tasks += 1;
        }
        match parent {
            Some(p) => {
                let mut tasks = self.rt.tasks.write();
                let pp = &mut tasks[p.0 as usize].profile;
                pp.candidate = pp.candidate.max(spawn_path + span);
            }
            None if is_dup => {
                // A multiplicity duplicate is parentless but is *not* the
                // root; it must not overwrite the program span.
            }
            None => {
                // Root task: its span is the program span.
                self.rt.counters.write().workspan.span = span;
            }
        }
        self.remark();
    }
}

/// Runs `root` as the root task of a task-parallel program on the simulated
/// system `sys` with runtime `cfg`, using `space` for the runtime's
/// simulated allocations (pass the same space used for application data).
///
/// Core 0 executes the root task (and schedules work while waiting inside
/// it); every other core runs the scheduling loop until the root completes.
///
/// # Panics
///
/// Re-raises panics from task bodies; panics on internal invariant
/// violations (reference-count underflow, double execution).
pub fn run_task_parallel(
    sys: &SystemConfig,
    cfg: &RuntimeConfig,
    space: &mut AddrSpace,
    root: impl FnOnce(&mut TaskCx<'_>) + Send + 'static,
) -> TaskRun {
    let n = sys.num_cores();
    assert!(n >= 1);
    let rt = Arc::new(RtShared::new(cfg.clone(), space, n, sys.topology(), &sys.faults));
    let uli = rt.disc.transport == Transport::Uli;

    let mut root = Some(root);
    let workers: Vec<Worker> = (0..n)
        .map(|wid| {
            let rt = Arc::clone(&rt);
            let root = if wid == 0 { root.take() } else { None };
            let worker: Worker = Box::new(move |port: &mut CorePort| {
                if wid == 0 {
                    // Attribute core 0's whole timeline — first cycle
                    // through `set_done` — to the root task (id 0). With
                    // nothing charged after `set_done`, core 0's final
                    // clock equals the completion time exactly, which is
                    // what makes the profiler's measured-Tp bounds
                    // (`ceil(T1/P) <= Tp <= T1`) exact rather than
                    // approximate. No-op unless `sys.attr` is armed.
                    port.attr_switch(Some(0));
                }
                if uli {
                    let h = Arc::clone(&rt);
                    port.set_uli_handler(Box::new(move |p, msg| {
                        h.handle_steal_request(p, wid, msg.from)
                    }));
                    port.uli_enable();
                }
                let mut cx = TaskCx::new(port, rt, wid);
                match root {
                    // Core 0 runs the root task. No respawn factory: core 0
                    // is never crash-eligible.
                    Some(root) => {
                        let addr = cx.alloc_stack_slot();
                        let spawned = TaskEventKind::Spawn { parent: None };
                        let root_id = cx.new_task(Box::new(root), None, None, addr, spawned);
                        cx.remark();
                        cx.execute_task(root_id);
                    }
                    None => {
                        // A worker that ends the run fail-stopped must not
                        // touch its (dead) ULI unit again.
                        if !cx.schedule_until_done() {
                            return;
                        }
                    }
                }
                if uli {
                    cx.port.uli_disable();
                }
                if wid == 0 {
                    cx.port.set_done();
                }
            });
            worker
        })
        .collect();

    // If the engine's liveness watchdog aborts the run, enrich its
    // diagnostic bundle with the runtime-level picture (deque depths and
    // unclaimed mailbox entries) before re-raising: by far the most common
    // cause of a hung run is work parked where no live worker looks.
    let report =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_system(sys, workers))) {
            Ok(report) => report,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&'static str>().copied());
                match msg {
                    Some(m) if m.contains(WATCHDOG_MSG) => {
                        std::panic::panic_any(format!("{m}{}", rt.describe_state()))
                    }
                    _ => std::panic::resume_unwind(payload),
                }
            }
        };
    let stats = *rt.counters.read();
    let telemetry = rt.tel.read().clone();
    let task_events = match &rt.task_events {
        Some(bufs) => {
            // Concatenate the per-worker buffers (each in its worker's
            // deterministic program order) and stable-sort by (cycle,
            // core): ties keep per-core order, so the merged stream is
            // deterministic too.
            let mut evs: Vec<TaskEvent> =
                bufs.iter().flat_map(|b| b.read().iter().copied().collect::<Vec<_>>()).collect();
            evs.sort_by_key(|e| (e.cycle, e.core));
            evs
        }
        None => Vec::new(),
    };
    TaskRun { report, stats, telemetry, task_events }
}
