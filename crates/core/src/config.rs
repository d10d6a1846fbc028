//! What a run is configured with and what it counts: the Figure 3 variant
//! ([`RuntimeKind`]), the deque policy ([`DequeKind`]), the remaining
//! ablation knobs ([`RuntimeConfig`]), seeded checker bugs ([`Mutation`])
//! and the counters a run maintains ([`RuntimeStats`]).

use std::sync::Arc;

use bigtiny_engine::sync::RwLock;

use crate::task::WorkSpan;

/// Which of the paper's three runtime implementations to use.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuntimeKind {
    /// Figure 3(a): for hardware-based cache coherence.
    Baseline,
    /// Figure 3(b): for heterogeneous cache coherence.
    Hcc,
    /// Figure 3(c): direct task stealing via user-level interrupts.
    Dts,
}

impl RuntimeKind {
    /// Short label used in configuration names (`base`, `hcc`, `dts`).
    pub fn label(self) -> &'static str {
        match self {
            RuntimeKind::Baseline => "base",
            RuntimeKind::Hcc => "hcc",
            RuntimeKind::Dts => "dts",
        }
    }
}

/// Which deque policy the Baseline (hardware-coherence) runtime uses. The
/// paper's pseudocode uses per-deque locks; Chase-Lev is the classic
/// lock-free alternative it cites; the two multiplicity policies trade
/// exactly-once execution for an owner fast path with *no* atomics at all
/// (Castañeda & Piña's fence-free work stealing with multiplicity, and
/// idempotent work stealing à la Michael et al.).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DequeKind {
    /// Lock-protected deque (Figure 3(a)).
    Locked,
    /// Chase-Lev lock-free deque (owner pops race thieves with a CAS only
    /// on the last element). Only meaningful under hardware coherence.
    ChaseLev,
    /// Fence-free LIFO owner pop with multiplicity: the owner's claim is a
    /// plain `tail` store — no AMO even on the last element. A thief's CAS
    /// landing in the owner's pop window double-claims that last task; the
    /// owner then re-executes it as an audited duplicate (at-most-twice,
    /// verified by the checker's `Multiplicity` audit mode). Requires an
    /// idempotent kernel. Only meaningful under hardware coherence.
    FenceFree,
    /// Idempotent work stealing: the owner takes FIFO from the *same* end
    /// thieves steal from, publishing its `head` advance with a plain racy
    /// store instead of a CAS. A stale owner view double-claims stolen
    /// slots (re-executed as audited duplicates); duplicates are more
    /// frequent than under [`DequeKind::FenceFree`] because owner and
    /// thieves contend on every slot, not just the last. Requires an
    /// idempotent kernel. Only meaningful under hardware coherence.
    Idempotent,
}

impl DequeKind {
    /// Whether this policy may execute a task more than once (at most
    /// twice): relaxes the checker expectation from exactly-once to the
    /// `Multiplicity` audit mode and requires an idempotent kernel.
    pub fn multiplicity(self) -> bool {
        matches!(self, DequeKind::FenceFree | DequeKind::Idempotent)
    }

    /// Whether accesses another core can race must hold the deque lock
    /// (the lock-free policies synchronise through their own atomics).
    pub(crate) fn takes_lock(self) -> bool {
        self == DequeKind::Locked
    }

    /// Stable label used in setup names and metrics documents.
    pub fn label(self) -> &'static str {
        match self {
            DequeKind::Locked => "locked",
            DequeKind::ChaseLev => "chase-lev",
            DequeKind::FenceFree => "fence-free",
            DequeKind::Idempotent => "idempotent",
        }
    }
}

/// How a thief picks its victim.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VictimPolicy {
    /// Uniformly random among the other workers (the paper's
    /// `choose_victim`; the classic work-stealing choice).
    Random,
    /// Cycle through the other workers in id order.
    RoundRobin,
    /// Prefer mesh-nearest victims, walking outward on failures — an
    /// extension exploiting big.TINY's physical locality (steal latency and
    /// ULI hops grow with distance).
    NearestFirst,
}

/// A seeded sync-discipline bug, for exercising the DRF conformance
/// checker (`bigtiny-checker`). The mutation drops or corrupts exactly one
/// protocol-relevant operation; the functional result of the run is still
/// correct (host state is updated under the engine's global token), but on
/// real hardware the mutated schedule could observe stale data — which is
/// precisely what the checker must flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mutation {
    /// What to break.
    pub kind: MutationKind,
    /// Worker (core id) whose operation is mutated.
    pub core: usize,
    /// Which occurrence on that core to hit (0 = first), counted per
    /// mutation kind in program order. Ignored by the `HscStuck*` kinds,
    /// which corrupt every `has_stolen_child` read on the core.
    pub nth: u64,
}

/// The kinds of seeded sync-discipline bugs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Skip one `cache_flush` (Figure 3's release-side writeback).
    DropFlush,
    /// Skip one `cache_invalidate` (Figure 3's acquire-side self-invalidate).
    DropInvalidate,
    /// Every `has_stolen_child` read returns `false`: the DTS runtime elides
    /// AMOs and invalidates even for joins whose children *were* stolen.
    /// This is the dangerous direction of a stuck-at fault on the flag.
    HscStuckFalse,
    /// Every `has_stolen_child` read returns `true`: the elision never
    /// fires. Slower, but conservative — the checker must stay clean.
    HscStuckTrue,
    /// Force one task to execute twice: after the `nth` clean local pop on
    /// the target core, the popped task is re-executed as an audited
    /// duplicate. Only meaningful under a multiplicity deque policy
    /// ([`DequeKind::multiplicity`]); unlike the coherence mutations this
    /// does not seed a *bug* — it seeds the duplicate the policy's
    /// at-most-twice contract permits, so the DPOR sweep can prove the
    /// checker battery and kernel verify stay clean with duplicates
    /// present under every schedule.
    DupTask,
}

/// Runtime configuration.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Which Figure 3 variant to run.
    pub kind: RuntimeKind,
    /// Capacity of each worker's deque.
    pub deque_capacity: usize,
    /// Idle back-off after a failed steal, in cycles.
    pub steal_backoff_cycles: u64,
    /// Maximum back-off as a multiple of `steal_backoff_cycles` (the
    /// exponential back-off cap).
    pub steal_backoff_max_factor: u64,
    /// Victim-selection policy.
    pub victim_policy: VictimPolicy,
    /// Deque implementation for the Baseline runtime.
    pub deque_kind: DequeKind,
    /// Ablation: make the DTS victim hand out the *newest* task (deque tail)
    /// instead of the oldest (head). The paper's pseudocode pops the tail in
    /// the handler; classic work stealing takes the head. Default: head.
    pub dts_steal_from_tail: bool,
    /// Ablation: disable the `has_stolen_child` optimization in DTS
    /// (Section IV-C), falling back to conservative AMOs + invalidate.
    pub dts_has_stolen_child_opt: bool,
    /// Deliberately omit all `cache_invalidate`/`cache_flush` operations.
    /// This produces a runtime that is *incorrect on real hardware*; it
    /// exists to demonstrate that the staleness checker catches the bugs the
    /// paper's protocol prevents. Never enable outside tests/ablations.
    pub skip_coherence_ops: bool,
    /// Seeded sync-discipline bug for checker tests (see [`Mutation`]).
    /// `None` (the default) adds no code to any hot path.
    pub mutation: Option<Mutation>,
    /// Record per-task lifecycle events ([`crate::TaskEvent`]) for trace export.
    /// Host-side only: recording reads clocks the simulation already
    /// computed and never charges a cycle, so it cannot perturb simulated
    /// results; `false` (the default) allocates no buffers at all.
    pub record_task_events: bool,
    /// Externally shared [`RuntimeStats`]: when set, the runtime counts
    /// into this handle instead of a private one, so a heartbeat sink can
    /// read live spawn/steal/recovery counters mid-run. Host-side only and
    /// out-of-band (reads race worker updates); the final
    /// [`crate::TaskRun::stats`] is unaffected. `None` (the default) changes
    /// nothing.
    pub live_stats: Option<Arc<RwLock<RuntimeStats>>>,
}

impl RuntimeConfig {
    /// The configuration used for a given runtime kind with paper defaults.
    pub fn new(kind: RuntimeKind) -> Self {
        RuntimeConfig {
            kind,
            deque_capacity: 1 << 14,
            steal_backoff_cycles: 24,
            steal_backoff_max_factor: 32,
            victim_policy: VictimPolicy::Random,
            deque_kind: DequeKind::Locked,
            dts_steal_from_tail: false,
            dts_has_stolen_child_opt: true,
            skip_coherence_ops: false,
            mutation: None,
            record_task_events: false,
            live_stats: None,
        }
    }
}

/// Counters maintained by the runtime during a run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RuntimeStats {
    /// Tasks spawned.
    pub spawns: u64,
    /// Tasks executed (spawned tasks + the root).
    pub tasks_executed: u64,
    /// Steal attempts (lock-and-look or ULI request sent).
    pub steal_attempts: u64,
    /// Successful steals.
    pub steals: u64,
    /// ULI steal requests that were NACKed (DTS only).
    pub steal_nacks: u64,
    /// ULI steal responses that never arrived within the hardened-mode
    /// timeout (only possible under an armed fault plan).
    pub uli_timeouts: u64,
    /// Steals performed through the shared-memory fallback path after the
    /// DTS runtime gave up on ULI for a round (hardened mode only).
    pub fallback_steals: u64,
    /// Steal attempts that the fault plan forced to miss before any deque
    /// or ULI traffic.
    pub forced_steal_misses: u64,
    /// Crash recovery: unstarted tasks discarded from fail-stopped cores'
    /// deques (their subtrees are recreated by re-execution).
    pub orphans_reclaimed: u64,
    /// Crash recovery: stolen tasks rescued from fail-stopped thieves'
    /// mailboxes and requeued on the recovering core.
    pub mailbox_rescues: u64,
    /// Crash recovery: tasks re-spawned because their executor fail-stopped
    /// mid-body (at-least-once re-executions).
    pub reexecutions: u64,
    /// Crash recovery: join counters repaired by a re-spawned task
    /// inheriting the dead original's pending decrement.
    pub joins_repaired: u64,
    /// Crash recovery: victim-quarantine events (a worker removing a dead
    /// core from its victim set, or doubling an existing quarantine's
    /// re-probe backoff).
    pub quarantines: u64,
    /// Crash recovery: cores that came back from a fail-stop and rejoined
    /// scheduling.
    pub revivals: u64,
    /// Multiplicity policies: tasks re-executed as duplicates after a
    /// double claim (owner and thief both won the slot), plus any seeded
    /// by [`MutationKind::DupTask`]. Always 0 for exactly-once policies.
    pub duplicate_executions: u64,
    /// Work/span profile of the task graph.
    pub workspan: WorkSpan,
}
