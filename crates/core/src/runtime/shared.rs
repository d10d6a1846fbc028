//! State shared by every worker of one run, and the one place a deque is
//! touched.
//!
//! Figure 3's three runtimes differ in exactly three places; [`Discipline`]
//! names them, [`Discipline::new`] is the only code that maps a
//! [`RuntimeKind`] onto them, and [`RtShared::deque_op`] is the only code
//! that applies the first one. Everything else in the runtime is written
//! once, against the axes:
//!
//! | variant | policy | [`Bracket`] | [`Transport`] | [`Join`] |
//! |---|---|---|---|---|
//! | Figure 3(a), `Locked` | `Locked` | `Lock` | `Shared` | `Plain` |
//! | Figure 3(a), `ChaseLev` | `ChaseLev` | `None` | `Shared` | `Plain` |
//! | Figure 3(a), `FenceFree` | `FenceFree` | `None` | `Shared` | `Plain` |
//! | Figure 3(a), `Idempotent` | `Idempotent` | `None` | `Shared` | `Plain` |
//! | Figure 3(b) | `Locked` | `LockCoherent` | `Shared` | `Amo` |
//! | Figure 3(c) | `Locked` | `None` (private, owner masks ULIs) | `Uli` | `StolenChild` |
//! | hardened 3(c) (fault plan armed) | `Locked` | `LockCoherent` + ULI mask | `Uli`, falling back to `Shared` | `Amo` |

use std::collections::VecDeque;
use std::sync::Arc;

use bigtiny_coherence::Addr;
use bigtiny_engine::sync::RwLock;
use bigtiny_engine::{AddrSpace, CorePort, FlightKind, SyncNote};

use crate::config::{DequeKind, MutationKind, RuntimeConfig, RuntimeKind, RuntimeStats};
use crate::deque::SimDeque;
use crate::task::{TaskId, TaskRecord};
use crate::telemetry::{StealTelemetry, TaskEvent, TaskEventKind};

/// What surrounds one deque access — Figure 3's first axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Bracket {
    /// Nothing: the policy's own atomics synchronise (lock-free policies),
    /// or no other core can reach the deque (Figure 3(c)'s private deque).
    None,
    /// Figure 3(a): `lock … unlock`.
    Lock,
    /// Figure 3(b): `lock; cache_invalidate; …; cache_flush; unlock`.
    LockCoherent,
}

/// How a steal travels — Figure 3's second axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Transport {
    /// The thief reaches into the victim's deque through shared memory.
    Shared,
    /// Figure 3(c): the thief sends a ULI and the victim's handler hands a
    /// task over through the thief's mailbox. Owners mask ULIs around
    /// their own deque accesses.
    Uli,
}

/// How a join is counted — Figure 3's third axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Join {
    /// Figure 3(a): plain `rc` spin (hardware coherence), AMO decrements.
    Plain,
    /// Figure 3(b): AMO reads and decrements, invalidate when leaving
    /// `wait`.
    Amo,
    /// Figure 3(c): `has_stolen_child` elides the AMOs and the invalidate
    /// for tasks whose children all ran locally.
    StolenChild,
}

/// Who touches the deque.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Role {
    /// The deque's own worker, outside its ULI handler.
    Owner,
    /// Another worker stealing through shared memory, or the DTS victim's
    /// ULI handler stealing on a thief's behalf (ULIs are already masked
    /// inside a handler).
    Thief,
    /// The crash-recovery winner draining a dead core's deque.
    Recoverer,
}

/// The three decisions that distinguish Figure 3's runtimes, resolved once
/// per run from the configuration and whether a fault plan is armed.
#[derive(Clone, Copy, Debug)]
pub(super) struct Discipline {
    /// Deque policy in force: the configured one under `Baseline`; the
    /// HCC/DTS protocols always use the lock-based deque's primitives.
    pub(super) policy: DequeKind,
    pub(super) bracket: Bracket,
    pub(super) transport: Transport,
    pub(super) join: Join,
    /// The runtime, not the hardware, keeps caches coherent: stolen tasks
    /// run between a `cache_invalidate` and a `cache_flush`.
    pub(super) software_coherent: bool,
    /// A fault plan is armed. DTS then runs its hardened protocol: the
    /// deque is no longer private (fallback thieves reach it through
    /// shared memory), so every access is bracketed like Figure 3(b), and
    /// `has_stolen_child` is off because fallback steals bypass the
    /// handler that maintains it.
    pub(super) hardened: bool,
}

impl Discipline {
    fn new(cfg: &RuntimeConfig, hardened: bool) -> Self {
        let (policy, bracket, transport, join) = match cfg.kind {
            RuntimeKind::Baseline => {
                let policy = cfg.deque_kind;
                let bracket = if policy.takes_lock() { Bracket::Lock } else { Bracket::None };
                (policy, bracket, Transport::Shared, Join::Plain)
            }
            RuntimeKind::Hcc => {
                (DequeKind::Locked, Bracket::LockCoherent, Transport::Shared, Join::Amo)
            }
            RuntimeKind::Dts if hardened || !cfg.dts_has_stolen_child_opt => {
                let bracket = if hardened { Bracket::LockCoherent } else { Bracket::None };
                (DequeKind::Locked, bracket, Transport::Uli, Join::Amo)
            }
            RuntimeKind::Dts => {
                (DequeKind::Locked, Bracket::None, Transport::Uli, Join::StolenChild)
            }
        };
        Discipline {
            policy,
            bracket,
            transport,
            join,
            software_coherent: cfg.kind != RuntimeKind::Baseline,
            hardened,
        }
    }
}

/// Functional state shared by all workers.
pub(super) struct RtShared {
    pub(super) cfg: RuntimeConfig,
    pub(super) disc: Discipline,
    pub(super) deques: Vec<SimDeque>,
    pub(super) tasks: RwLock<Vec<TaskRecord>>,
    pub(super) mailboxes: Vec<Mailbox>,
    pub(super) counters: Arc<RwLock<RuntimeStats>>,
    pub(super) stack_bases: Vec<u64>,
    pub(super) stack_bytes: u64,
    /// Instructions consumed by the ULI handler on each worker since that
    /// worker's last profiling mark; excluded from user-work attribution so
    /// the work/span profile stays schedule-invariant.
    pub(super) handler_insts: Vec<RwLock<u64>>,
    /// Per-worker victim preference order (nearest mesh neighbours first),
    /// used by `VictimPolicy::NearestFirst` and `RoundRobin`.
    pub(super) victim_order: Vec<Vec<usize>>,
    /// Per-worker occurrence counters for the armed [`crate::Mutation`]
    /// (bumped only while a mutation targets that worker's coherence ops,
    /// so the un-mutated hot path never touches them).
    mut_counters: Vec<RwLock<u64>>,
    /// Steal telemetry (always collected — pure host-side counters).
    pub(super) tel: RwLock<StealTelemetry>,
    /// Per-worker task-event buffers; `None` unless
    /// [`RuntimeConfig::record_task_events`]. Per-worker so each buffer's
    /// order is that worker's deterministic program order — a single
    /// shared vector would interleave by host scheduling.
    pub(super) task_events: Option<Vec<RwLock<Vec<TaskEvent>>>>,
    // Crash-recovery state: allocated/used only when the fault plan can
    // fail-stop cores, so crash support adds nothing — not even simulated
    // address-space layout changes — to other runs.
    /// Host-side per-worker stacks of currently-executing task ids. A
    /// crash unwind skips the pops, freezing the snapshot recovery reads.
    pub(super) exec_stacks: Vec<RwLock<Vec<u32>>>,
    /// Per-core recovery claim words (simulated address + host state); the
    /// first worker to win the sequenced AMO on a dead core's claim owns
    /// its recovery.
    pub(super) claims: Vec<Claim>,
    /// Dedicated arena for respawned task records. Separate from worker
    /// stacks: the winner's `stack_top` is save/restored by frame exit, so
    /// carving respawn records from it would alias live allocations.
    pub(super) respawn_base: u64,
    pub(super) respawn_bytes: u64,
    pub(super) respawn_cursor_addr: Addr,
    pub(super) respawn_cursor: RwLock<u64>,
}

/// One core's recovery claim.
pub(super) struct Claim {
    pub(super) addr: Addr,
    pub(super) owner: RwLock<Option<usize>>,
    /// Set by the claim winner once recovery finished; a revivable core
    /// stays dormant until then so its fresh work cannot be mistaken for
    /// pre-crash orphans.
    pub(super) done: RwLock<bool>,
}

/// A thief's steal mailbox. Functionally a queue rather than a single word:
/// under fault injection a thief can time out on a steal request whose
/// victim nevertheless services it later, so a second victim's task may be
/// delivered while the first still sits unclaimed. ULI responses and mailbox
/// pushes happen in the same (token-ordered) handler executions, so queue
/// order always matches response order.
pub(super) struct Mailbox {
    pub(super) addr: Addr,
    pub(super) value: RwLock<VecDeque<u64>>,
    /// Set (inside the same sequenced AMO that drains the queue) when
    /// crash recovery reclaims this mailbox: a victim handler whose push
    /// sequences after the seal keeps its task instead of stranding it.
    /// Cleared if the owner revives.
    pub(super) sealed: RwLock<bool>,
}

impl RtShared {
    pub(super) fn new(
        cfg: RuntimeConfig,
        space: &mut AddrSpace,
        workers: usize,
        topology: bigtiny_mesh::Topology,
        faults: &bigtiny_engine::FaultPlan,
    ) -> Self {
        let disc = Discipline::new(&cfg, faults.is_active());
        let deques = (0..workers).map(|_| SimDeque::new(space, cfg.deque_capacity)).collect();
        let mailboxes = (0..workers)
            .map(|_| Mailbox {
                addr: space.reserve_lines(64),
                value: RwLock::new(VecDeque::new()),
                sealed: RwLock::new(false),
            })
            .collect();
        // Crash-only allocations come last and only when armed, so the
        // simulated address layout of every other run is untouched.
        let (claims, respawn_cursor_addr, respawn_base, respawn_bytes) = if faults.crash_armed() {
            let claims = (0..workers)
                .map(|_| Claim {
                    addr: space.reserve_lines(64),
                    owner: RwLock::new(None),
                    done: RwLock::new(false),
                })
                .collect();
            let cursor = space.reserve_lines(64);
            let bytes = 1u64 << 18;
            let base = space.reserve_lines(bytes).0;
            (claims, cursor, base, bytes)
        } else {
            (Vec::new(), Addr(0), 0, 0)
        };
        let stack_bytes = 1 << 20;
        let stack_bases = (0..workers).map(|_| space.reserve_lines(stack_bytes).0).collect();
        let victim_order = (0..workers)
            .map(|w| {
                let me = topology.core_tile(w);
                let mut order: Vec<usize> = (0..workers).filter(|v| *v != w).collect();
                order.sort_by_key(|v| (me.hops_to(topology.core_tile(*v)), *v));
                order
            })
            .collect();
        let task_events =
            cfg.record_task_events.then(|| (0..workers).map(|_| RwLock::new(Vec::new())).collect());
        let counters = cfg
            .live_stats
            .clone()
            .unwrap_or_else(|| Arc::new(RwLock::new(RuntimeStats::default())));
        RtShared {
            cfg,
            disc,
            deques,
            tasks: RwLock::new(Vec::new()),
            mailboxes,
            counters,
            stack_bases,
            stack_bytes,
            handler_insts: (0..workers).map(|_| RwLock::new(0)).collect(),
            victim_order,
            mut_counters: (0..workers).map(|_| RwLock::new(0)).collect(),
            tel: RwLock::new(StealTelemetry::new(workers)),
            task_events,
            exec_stacks: (0..workers).map(|_| RwLock::new(Vec::new())).collect(),
            claims,
            respawn_base,
            respawn_bytes,
            respawn_cursor_addr,
            respawn_cursor: RwLock::new(0),
        }
    }

    /// True exactly when this call is the armed mutation's target (the
    /// `nth` occurrence of `kind` on worker `wid`, in program order).
    pub(super) fn mutation_hits(&self, kind: MutationKind, wid: usize) -> bool {
        let Some(m) = self.cfg.mutation else { return false };
        if m.kind != kind || m.core != wid {
            return false;
        }
        let mut c = self.mut_counters[wid].write();
        let n = *c;
        *c += 1;
        n == m.nth
    }

    /// Figure 3's `cache_invalidate`, with the ablation and mutation hooks.
    /// All runtime-issued invalidates route through here so both the
    /// `skip_coherence_ops` ablation and a seeded [`MutationKind::DropInvalidate`]
    /// cover every site, including the victim-side steal handler.
    pub(super) fn cache_invalidate(&self, port: &mut CorePort, wid: usize) {
        if self.cfg.skip_coherence_ops || self.mutation_hits(MutationKind::DropInvalidate, wid) {
            return;
        }
        port.invalidate_cache();
    }

    /// Figure 3's `cache_flush`; see [`RtShared::cache_invalidate`].
    pub(super) fn cache_flush(&self, port: &mut CorePort, wid: usize) {
        if self.cfg.skip_coherence_ops || self.mutation_hits(MutationKind::DropFlush, wid) {
            return;
        }
        port.flush_cache();
    }

    /// The one place a deque is touched: worker `wid`, acting as `role`,
    /// runs `op` on deque `d` inside whatever this run's [`Discipline`]
    /// puts around an access — the owner's ULI mask, the deque lock, the
    /// invalidate/flush pair. `op` gets the policy to dispatch on.
    pub(super) fn deque_op<R>(
        &self,
        port: &mut CorePort,
        wid: usize,
        d: usize,
        role: Role,
        op: impl FnOnce(&SimDeque, &mut CorePort, DequeKind) -> R,
    ) -> R {
        let dq = &self.deques[d];
        let mask_uli = role == Role::Owner && self.disc.transport == Transport::Uli;
        let bracket = match (role, self.disc.bracket) {
            // The dead owner may have died between a push and its flush,
            // so a recoverer always drains a lock-based deque coherently
            // (both cache operations are latency-only no-ops on MESI).
            (Role::Recoverer, Bracket::Lock) => Bracket::LockCoherent,
            (_, b) => b,
        };
        if mask_uli {
            port.uli_disable();
        }
        if bracket != Bracket::None {
            dq.lock(port);
        }
        if bracket == Bracket::LockCoherent {
            self.cache_invalidate(port, wid);
        }
        let r = op(dq, port, self.disc.policy);
        if bracket == Bracket::LockCoherent {
            self.cache_flush(port, wid);
        }
        if bracket != Bracket::None {
            dq.unlock(port);
        }
        if mask_uli {
            port.uli_enable();
        }
        r
    }

    /// Records one task lifecycle event when event recording is on. Also
    /// closes/reopens the port's open attribution span (a no-op unless
    /// attribution is armed) so every recorded event cycle is a span
    /// boundary — the critical-path replay can then walk spans and events
    /// in lockstep without ever splitting a span. Host-side only: no
    /// sequenced operations, no cycle charges (see `crate::telemetry`).
    pub(super) fn record_event(
        &self,
        port: &mut CorePort,
        wid: usize,
        task: u32,
        kind: TaskEventKind,
    ) {
        port.attr_mark();
        // Mirror the lifecycle event onto the core's always-on flight
        // recorder (same zero-overhead discipline; the ring is port-local).
        port.flight_note(match kind {
            TaskEventKind::Spawn { .. } => FlightKind::TaskSpawn { task },
            TaskEventKind::ExecBegin => FlightKind::TaskBegin { task },
            TaskEventKind::ExecEnd => FlightKind::TaskEnd { task },
            TaskEventKind::Stolen { .. } => FlightKind::TaskStolen { task },
            TaskEventKind::Join => FlightKind::TaskJoin { task },
            TaskEventKind::Respawn { .. } => FlightKind::TaskRespawn { task },
            TaskEventKind::Discarded => FlightKind::TaskDiscarded { task },
            TaskEventKind::Duplicate { .. } => FlightKind::TaskDuplicate { task },
        });
        if let Some(bufs) = &self.task_events {
            bufs[wid].write().push(TaskEvent { cycle: port.now(), core: wid, task, kind });
        }
    }

    pub(super) fn parent_of(&self, t: TaskId) -> Option<TaskId> {
        self.tasks.read()[t.0 as usize].parent
    }

    /// Host side of every `rc` decrement. Always checked: an underflow
    /// would wrap and leave the parent's `wait` spinning forever.
    pub(super) fn dec_rc(&self, t: TaskId) {
        let mut tasks = self.tasks.write();
        let rc = &mut tasks[t.0 as usize].rc;
        *rc = rc.checked_sub(1).expect("reference count underflow");
    }

    pub(super) fn rc_addr(&self, t: TaskId) -> Addr {
        self.tasks.read()[t.0 as usize].rc_addr()
    }

    pub(super) fn hsc_addr(&self, t: TaskId) -> Addr {
        self.tasks.read()[t.0 as usize].hsc_addr()
    }

    /// The DTS victim-side steal handler (Figure 3(c) lines 47-53), invoked
    /// by the engine when a ULI arrives at this worker.
    pub(super) fn handle_steal_request(&self, port: &mut CorePort, wid: usize, thief: usize) {
        let insts_at_entry = port.instructions();
        // Handler prologue: a handful of instructions to read the message.
        port.advance(4);
        let from_tail = self.cfg.dts_steal_from_tail;
        let task = self.deque_op(port, wid, wid, Role::Thief, |dq, port, policy| {
            if from_tail {
                dq.pop_tail(port)
            } else {
                dq.steal(port, policy)
            }
        });
        if let Some(t) = task {
            // Mark the parent before exposing the task (line 50):
            // has_stolen_child is a plain store, since the parent lives on
            // this very core.
            if let Some(p) = self.parent_of(t) {
                let addr = self.hsc_addr(p);
                port.store_words(addr, 1, || {
                    self.tasks.write()[p.0 as usize].has_stolen_child = true;
                });
                port.annotate_sync(SyncNote::HscSet { task: p.0 });
            }
            // write_stolen_task (line 51): the task pointer goes through the
            // thief's mailbox in shared memory. The seal check shares the
            // push's sequenced critical section: it either lands before
            // recovery's drain-and-seal (and is rescued) or bounces here.
            let mb = &self.mailboxes[thief];
            let mut bounced = false;
            port.store_words(mb.addr, 1, || {
                if *mb.sealed.read() {
                    bounced = true;
                } else {
                    mb.value.write().push_back(t.to_payload());
                }
            });
            if bounced {
                // The thief fail-stopped and its mailbox was already
                // reclaimed: keep the task (one slot is free — we just
                // popped it) and answer "empty".
                let kept =
                    self.deque_op(port, wid, wid, Role::Thief, |dq, port, p| dq.push(port, p, t));
                assert!(kept, "bounced steal no longer fits its own deque");
                port.uli_send_response(thief, 0);
            } else {
                // cache_flush (line 52): make the task and everything this
                // worker produced visible to the thief.
                self.cache_flush(port, wid);
                self.counters.write().steals += 1;
                port.uli_send_response(thief, 1);
            }
        } else {
            port.uli_send_response(thief, 0);
        }
        *self.handler_insts[wid].write() += port.instructions() - insts_at_entry;
    }

    /// The runtime-level picture appended to a watchdog diagnostic: deque
    /// depths, unclaimed mailbox entries and the steal/recovery counters.
    pub(super) fn describe_state(&self) -> String {
        let mut out = String::from("\nruntime state:\n");
        for (w, dq) in self.deques.iter().enumerate() {
            let mb = self.mailboxes[w].value.read().len();
            out.push_str(&format!(
                "  worker {w}: deque depth {}{}, {mb} unclaimed mailbox task(s)\n",
                dq.host_len(),
                if dq.host_locked() { " (locked)" } else { "" },
            ));
        }
        let c = self.counters.read();
        out.push_str(&format!(
            "  tasks: {} spawned, {} executed; steals: {} ok / {} attempts, \
             {} nacks, {} timeouts, {} fallback\n",
            c.spawns,
            c.tasks_executed,
            c.steals,
            c.steal_attempts,
            c.steal_nacks,
            c.uli_timeouts,
            c.fallback_steals,
        ));
        if !self.claims.is_empty() {
            out.push_str(&format!(
                "  recovery: {} orphans discarded, {} mailbox rescues, \
                 {} re-executions, {} quarantines, {} revivals\n",
                c.orphans_reclaimed, c.mailbox_rescues, c.reexecutions, c.quarantines, c.revivals,
            ));
        }
        out
    }
}
