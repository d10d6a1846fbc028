//! Deterministic min-time token sequencing of simulated cores.
//!
//! Each simulated core keeps a real call stack, so arbitrarily nested task
//! execution just works: a stackful fiber on the fiber backend (every core
//! multiplexed on the one host thread that calls `run_system`), or an OS
//! thread of its own on the portable thread backend. Either way **at most one
//! core executes at a time**: before any operation that touches shared
//! simulated state, a core enters the sequencer with its local clock and is
//! granted the token only when it holds the globally minimum
//! `(time, core_id)`. This makes the whole simulation a single logical
//! thread of execution in simulated-time order — bit-for-bit deterministic
//! and free of data races by construction. The backends share every line
//! of grant selection and bookkeeping; how a blocked core hands the CPU to
//! its successor is the [`Host`](crate::host::Host)'s business.
//!
//! **The token is the lock.** The sequencer owns the sequenced state `S`
//! behind the same mutex as its own bookkeeping, and [`Sequencer::enter`]
//! returns a [`Section`] guard that *is* that mutex held: it derefs to
//! `&mut S`, and dropping it (normally or on unwind) ends the sequenced
//! section. A pick happens only when `running == 0` and no picked core is
//! unresumed, so between a grant and the grantee's next `enter` nothing
//! else can be granted — there is no separate "release the token" step.
//! A fast re-grant costs one lock round trip, a hand-off two (the
//! grantor's and the re-lock of the resumed grantee).
//!
//! **Parked polls.** A core busy-waiting on sequenced state (a DTS thief
//! waiting for its steal response) does not take one grant per poll. It
//! parks with a [`PollPlan`] ([`Sequencer::park_poll`]), and whoever runs
//! the pick loop (`Sequencer::dispatch`) serves its negative polls *in
//! place*: same `(time, core)` keys, same order, same bookkeeping, no
//! hand-off. The core is woken for the first poll that needs it and replays
//! the served polls' local effects. The grant stream cannot tell the
//! difference — selection is still the one global minimum under the one
//! lock — and neither can `fast_grants`: a served poll counts as a fast
//! re-grant exactly when the poller's own `enter` would have taken one.
//!
//! The sequencer doubles as the attachment point of the liveness
//! [`watchdog`](crate::watchdog): every grant is counted, and if too many
//! grants pass without a progress mark (or a core's port counts too many
//! idle charges since its last grant, `Sequencer::trip_spinner`) the
//! sequencer is poisoned with [`PoisonReason::Watchdog`]. Both rules count
//! in simulated order, so a trip is as deterministic as the grant stream.
//! Every core then unwinds with the private
//! [`Poisoned`] payload, raised by `resume_unwind` so the panic hook stays
//! quiet: a cascade carries no news, and `run_system` tells it from the
//! panic that caused the failure by its type.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};

use crate::flight::{Heartbeat, HeartbeatSnap, LiveCounters};
use crate::host::Host;
use crate::sync::Mutex;
use crate::watchdog::{PoisonReason, SeqCoreDiag};

/// What a core unwinds with when the run is poisoned, whoever poisoned it:
/// the core that trips the watchdog and every core that then observes the
/// poison. Private, so no worker panic can carry it.
pub(crate) struct Poisoned;

/// Unwinds the calling core out of a poisoned run with [`Poisoned`],
/// bypassing the panic hook.
#[cold]
pub(crate) fn unwind_poisoned() -> ! {
    std::panic::resume_unwind(Box::new(Poisoned))
}

#[derive(Debug, Default, Clone, Copy)]
struct CoreState {
    grants: u64,
    last_time: u64,
    retired: bool,
}

/// One recorded grant where ≥ 2 waiters shared the minimum time — a point
/// where the schedule could legally have gone more than one way. Recorded
/// only under [`SchedulePolicy::Scripted`]; the schedule-space explorer
/// enumerates alternatives by replaying a prefix of `chosen` indices with
/// the last one flipped.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChoicePoint {
    /// The tied minimum time.
    pub time: u64,
    /// The tied cores, in ascending core-id order.
    pub candidates: Vec<usize>,
    /// Index into `candidates` that was granted (what the script chose,
    /// clamped to the candidate range; 0 when the script was exhausted).
    pub chosen: u32,
}

/// Scripted tie-break replay state (present only under
/// [`SchedulePolicy::Scripted`]).
#[derive(Debug)]
struct ScriptState {
    /// The choice sequence being replayed.
    script: Vec<u32>,
    /// Next script entry to consume.
    pos: usize,
    /// Every tie encountered, in grant order.
    choices: Vec<ChoicePoint>,
}

/// [`WaitTree`]'s in-band "this core is not waiting" key. No core's key
/// reaches it: [`Sequencer::enter`] rejects a time past
/// [`WaitTree::max_time`] before touching the tree.
const NOT_WAITING: u64 = u64::MAX;

/// One poll of a busy-wait loop the sequencer can serve in place (see
/// [`PollPlan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PollOp {
    /// Has a ULI response arrived?
    Response,
    /// Has a ULI request arrived? (Every poll of a plan with
    /// [`PollPlan::requests`] asks this too; this one asks nothing else.)
    Requests,
    /// Has the program signalled completion?
    Done,
}

/// Cycles a polling core burns after a round's last poll, before the next
/// round.
pub const POLL_SPIN_CYCLES: u64 = 8;

impl PollOp {
    /// Local cycles the polling core charges after this poll.
    pub const fn cycles(self) -> u64 {
        match self {
            PollOp::Response | PollOp::Done => 1,
            PollOp::Requests => 0,
        }
    }

    /// Cycles from this poll, negative, to the one after it.
    fn gap(self) -> u64 {
        self.cycles() + if self == PollOp::Done { POLL_SPIN_CYCLES } else { 0 }
    }
}

/// The busy-wait loop of a parked core: rounds of `Response`, `Requests`
/// (only with [`PollPlan::requests`]) and `Done` polls, each followed by
/// its [`PollOp::cycles`], with [`POLL_SPIN_CYCLES`] more between rounds.
#[derive(Clone, Copy, Debug)]
pub struct PollPlan {
    /// Whether the core takes ULI requests while it waits (a handler is
    /// installed and the core is not inside it): the round then has a
    /// `Requests` poll, and every poll also delivers an arrived request.
    pub requests: bool,
    /// The core gives up when a round's polls end at or after this cycle.
    pub deadline: Option<u64>,
}

impl PollPlan {
    /// The poll after `op`.
    pub fn next(&self, op: PollOp) -> PollOp {
        match op {
            PollOp::Response if self.requests => PollOp::Requests,
            PollOp::Response | PollOp::Requests => PollOp::Done,
            PollOp::Done => PollOp::Response,
        }
    }

    /// Whether the loop ends after a negative `op` granted at `time`: the
    /// round is over and the deadline has passed.
    fn ends_after(&self, op: PollOp, time: u64) -> bool {
        op == PollOp::Done && self.deadline.is_some_and(|d| time + op.cycles() >= d)
    }
}

/// What parked polls ask of the sequenced state.
pub trait PollState {
    /// Whether `core`'s poll `op` granted at cycle `time` would observe
    /// something — what it asks for or, with `requests`, an arrived ULI
    /// request. Must be free of side effects, and so must a poll for which
    /// it answers `false`.
    fn poll_ready(&self, core: usize, time: u64, op: PollOp, requests: bool) -> bool;
}

/// The state of sequencers that sequence nothing: no poll ever observes
/// anything.
impl PollState for () {
    fn poll_ready(&self, _: usize, _: u64, _: PollOp, _: bool) -> bool {
        false
    }
}

/// A parked core's place in its [`PollPlan`].
#[derive(Clone, Copy, Debug)]
struct Parked {
    plan: PollPlan,
    /// The next poll, to be granted at `time`.
    op: PollOp,
    time: u64,
    /// Polls served in place since the core parked.
    served: u64,
}

/// The grant a parked core wakes up to ([`Sequencer::park_poll`]).
#[derive(Debug)]
pub struct PollWake<'a, S> {
    /// The sequenced section of the poll the core was woken for.
    pub section: Section<'a, S>,
    /// That poll, and the cycle it was granted at.
    pub op: PollOp,
    /// See `op`.
    pub time: u64,
    /// Polls served in place before it, whose local effects the core must
    /// now replay.
    pub served: u64,
}

/// The cores blocked in `enter`, and the runner: a fixed, array-backed
/// winner (tournament) tree. Setting a key replays one leaf-to-root path
/// (`log2(cores)` levels of one compare and one select each), the minimum
/// is the root, and nothing allocates after construction.
#[derive(Debug)]
struct WaitTree {
    /// The implicit tree: node 1 is the root, node `i` has children `2i`
    /// and `2i + 1`, and node `node.len() / 2 + c` is core `c`'s leaf. A
    /// leaf holds `c`'s key `time << bits | c` while `c` waits at `time`
    /// (or runs on the token it was granted at `time`), [`NOT_WAITING`]
    /// otherwise; an internal node holds the minimum of its children. Keys
    /// order by time, then core id — the lowest-core-id rule of
    /// [`SchedulePolicy::MinCore`] — and a padding leaf (there to make the
    /// leaf count a power of two) never holds anything but `NOT_WAITING`.
    node: Vec<u64>,
    /// The low bits of a key that hold the core: log2 of the leaf count.
    bits: u32,
}

impl WaitTree {
    fn new(num_cores: usize) -> Self {
        let leaves = num_cores.next_power_of_two().max(2);
        WaitTree { node: vec![NOT_WAITING; 2 * leaves], bits: leaves.trailing_zeros() }
    }

    /// The latest time a key can hold: every key of a later one would reach
    /// [`NOT_WAITING`].
    fn max_time(&self) -> u64 {
        (NOT_WAITING >> self.bits) - 1
    }

    fn key(&self, core: usize, time: u64) -> u64 {
        debug_assert!(time <= self.max_time(), "cycle {time} does not fit a key");
        time << self.bits | core as u64
    }

    /// `(time, core)` of a key other than [`NOT_WAITING`].
    fn unkey(&self, key: u64) -> (u64, usize) {
        (key >> self.bits, (key & ((1 << self.bits) - 1)) as usize)
    }

    /// Sets `core`'s key to `time` and replays its path to the root.
    fn set(&mut self, core: usize, time: u64) {
        self.replay(core, self.key(core, time));
    }

    /// Sets `core`'s leaf to [`NOT_WAITING`] and replays its path.
    fn clear(&mut self, core: usize) {
        self.replay(core, NOT_WAITING);
    }

    fn replay(&mut self, core: usize, mut key: u64) {
        let mut i = self.node.len() / 2 + core;
        self.node[i] = key;
        while i > 1 {
            // Which of two waiters is earlier is a coin flip, and the next
            // level up needs the answer: select, never branch.
            let sibling = self.node[i ^ 1];
            key = std::hint::select_unpredictable(sibling < key, sibling, key);
            i /= 2;
            self.node[i] = key;
        }
    }

    /// The time `core`'s leaf holds, if any.
    fn waiting_at(&self, core: usize) -> Option<u64> {
        let key = self.node[self.node.len() / 2 + core];
        (key != NOT_WAITING).then(|| self.unkey(key).0)
    }

    /// Whether `core`'s key, at `time`, is the minimum.
    fn leads(&self, core: usize, time: u64) -> bool {
        self.node[1] == self.key(core, time)
    }

    /// The minimum `(time, core)`.
    fn first(&self) -> Option<(u64, usize)> {
        (self.node[1] != NOT_WAITING).then(|| self.unkey(self.node[1]))
    }

    /// Whether every other leaf holds a later time than `core`'s: one
    /// sibling per level of its path, nothing allocated.
    fn alone(&self, core: usize) -> bool {
        let leaf = self.node.len() / 2 + core;
        let time = self.node[leaf] >> self.bits;
        (0..self.bits).all(|level| self.node[(leaf >> level) ^ 1] >> self.bits > time)
    }

    /// The cores whose leaf holds the minimum time of a nonempty set, in
    /// ascending core order: a descent into only the subtrees whose minimum
    /// is that time.
    fn tied(&self) -> Vec<usize> {
        let (leaves, time) = (self.node.len() / 2, self.node[1] >> self.bits);
        let (mut out, mut next) = (Vec::new(), vec![1]);
        while let Some(i) = next.pop() {
            if self.node[i] >> self.bits != time {
                continue;
            }
            match i.checked_sub(leaves) {
                Some(core) => out.push(core),
                None => next.extend([2 * i + 1, 2 * i]),
            }
        }
        out
    }
}

#[derive(Debug)]
struct Inner<S> {
    /// The sequenced state, reachable only through a [`Section`].
    state: S,
    /// Cores blocked in `enter` or parked in `park_poll`.
    waiting: WaitTree,
    /// The plan position of each core parked in `park_poll`.
    parked: Vec<Option<Parked>>,
    /// Polls served in place over the run.
    in_place_grants: u64,
    /// Cores currently executing user code (not waiting, not retired).
    running: usize,
    /// The core granted the token and resumed, until its next `enter`,
    /// `park_poll` or `retire`. Its leaf keeps its grant key meanwhile —
    /// still the minimum, since nothing else is picked while it runs — so
    /// its next entry replays the tree once, whichever way that grant goes.
    /// Every diagnostic masks it: it is not waiting.
    runner: Option<usize>,
    /// Core picked for the token but not yet resumed: set by `pick_next`,
    /// cleared by the picked core when it wakes up in `enter`. From then on
    /// `running > 0` is what keeps a second pick from happening.
    current: Option<usize>,
    poisoned: bool,
    reason: Option<PoisonReason>,
    cores: Vec<CoreState>,
    /// Order-sensitive FNV-1a fold of every `(time, core)` grant: the
    /// fingerprint of the sequenced-op stream. Golden-trace tests pin this
    /// to prove engine optimizations never reorder or change a single
    /// simulated operation.
    op_hash: u64,
    /// Scripted tie-break state. `None` under [`SchedulePolicy::MinCore`]:
    /// the default policy takes the plain minimum-waiter path, records
    /// nothing, and costs nothing.
    script: Option<ScriptState>,
}

use crate::config::SchedulePolicy;

use crate::hash::{fold_u64, FNV_OFFSET};

/// Folds one `(time, core)` grant into the op-stream hash.
#[inline]
fn fold_grant(h: u64, time: u64, core: usize) -> u64 {
    fold_u64(fold_u64(h, time), core as u64)
}

/// The token scheduler, owning the sequenced state `S`. See the module
/// docs.
#[derive(Debug)]
pub struct Sequencer<S> {
    inner: Mutex<Inner<S>>,
    /// The waiting set's [`WaitTree::max_time`], readable before the lock.
    max_time: u64,
    /// The armed watchdog's grant budget: the most grants allowed between
    /// progress marks. `None` leaves the watchdog off.
    budget: Option<u64>,
    /// Grants since the last progress mark (watchdog budget counter).
    since_progress: AtomicU64,
    /// Total grants over the run. Written only under the sequencer lock (a
    /// plain load + store, no locked read-modify-write); atomic so the
    /// ports' grant stamps can read it without the lock.
    total_grants: AtomicU64,
    /// Grants taken through the inline fast re-grant path (no waiting-set
    /// churn, no hand-off), written like `total_grants` — including polls
    /// served in place where the poller's own `enter` would have taken it.
    /// Diagnostic for the perf harness: the fraction of sequenced ops whose
    /// grantee was the sole runner and ahead of every waiter.
    fast_grants: AtomicU64,
    /// Lock-free mirror of `Inner::poisoned`, so cores spinning in purely
    /// local operations (which never take the sequencer lock) can still
    /// observe the poison and unwind.
    poison_flag: AtomicBool,
    /// How a core gets the CPU: one OS thread per core, or every core a
    /// fiber on one thread. Grant selection is the single global
    /// `(time, core)` minimum either way, so both produce the identical
    /// sequenced-op stream (pinned by the golden hashes).
    host: Host,
    /// Heartbeat hook: every `heartbeat.every` grants the granting core
    /// emits a [`HeartbeatSnap`] with the sequencer lock released (the sink
    /// may do I/O). `None` is zero-cost: one never-taken branch in
    /// `record_grant`.
    heartbeat: Option<HeartbeatHook>,
}

/// Installed heartbeat state: the user's cadence + sink plus the live
/// counters the ports publish into.
#[derive(Debug)]
struct HeartbeatHook {
    config: Heartbeat,
    live: Arc<LiveCounters>,
}

/// A sequenced section: the token, held. Derefs to the sequenced state;
/// dropping it — at the end of the section or on unwind out of it — lets
/// the next grant happen. Drop it before anything that re-enters the
/// sequencer.
#[derive(Debug)]
pub struct Section<'a, S> {
    g: MutexGuard<'a, Inner<S>>,
}

impl<S> std::ops::Deref for Section<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.g.state
    }
}

impl<S> std::ops::DerefMut for Section<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.g.state
    }
}

/// Adds one to a counter that is only written under the sequencer lock.
fn bump(counter: &AtomicU64) -> u64 {
    let n = counter.load(Ordering::Relaxed) + 1;
    counter.store(n, Ordering::Relaxed);
    n
}

impl<S: PollState> Sequencer<S> {
    /// Creates a sequencer for `num_cores` cores, all initially running on
    /// `host`, that owns the sequenced `state`.
    pub(crate) fn new(num_cores: usize, host: Host, state: S) -> Self {
        assert!(num_cores > 0);
        let waiting = WaitTree::new(num_cores);
        Sequencer {
            max_time: waiting.max_time(),
            inner: Mutex::new(Inner {
                state,
                waiting,
                parked: vec![None; num_cores],
                in_place_grants: 0,
                running: num_cores,
                runner: None,
                current: None,
                poisoned: false,
                reason: None,
                cores: vec![CoreState::default(); num_cores],
                op_hash: FNV_OFFSET,
                script: None,
            }),
            budget: None,
            since_progress: AtomicU64::new(0),
            total_grants: AtomicU64::new(0),
            fast_grants: AtomicU64::new(0),
            poison_flag: AtomicBool::new(false),
            host,
            heartbeat: None,
        }
    }

    /// Arms the heartbeat: every `config.every` grants, the granting core
    /// snapshots the run (grant totals, per-core strip, the live counters
    /// ports publish into `live`) and hands it to `config.sink` with no
    /// engine lock held. Must be called before core threads start.
    pub fn set_heartbeat(&mut self, config: Heartbeat, live: Arc<LiveCounters>) {
        self.heartbeat = Some(HeartbeatHook { config, live });
    }

    /// Installs the grant tie-breaking policy. Must be called before core
    /// threads start. [`SchedulePolicy::MinCore`] (the initial state) is
    /// free; [`SchedulePolicy::Scripted`] arms choice-point recording and
    /// script replay.
    pub fn set_policy(&self, policy: SchedulePolicy) {
        let mut g = self.inner.lock();
        g.script = match policy {
            SchedulePolicy::MinCore => None,
            SchedulePolicy::Scripted(script) => {
                Some(ScriptState { script, pos: 0, choices: Vec::new() })
            }
        };
    }

    /// Every tie recorded so far, in grant order (always empty under
    /// [`SchedulePolicy::MinCore`]).
    pub fn choice_points(&self) -> Vec<ChoicePoint> {
        self.inner.lock().script.as_ref().map_or_else(Vec::new, |s| s.choices.clone())
    }

    /// Arms the liveness watchdog with a grant `budget`. Must be called
    /// before core threads start. Every backend supports it: the budget is
    /// checked by whichever core grants, and the idle-spin rule by the
    /// spinning core's own port ([`crate::MAX_IDLE_CHARGES`]).
    pub fn set_watchdog(&mut self, budget: u64) {
        assert!(budget > 0, "watchdog budget must be positive");
        self.budget = Some(budget);
    }

    /// The host the cores run on.
    pub(crate) fn host(&self) -> &Host {
        &self.host
    }

    /// Grants the token to a minimum-*time* waiter, if any. This is the
    /// single grant-selection rule shared by both execution backends, so
    /// threads and fibers produce the identical op stream. Under [`SchedulePolicy::MinCore`] a time tie goes to the
    /// lowest core id; under [`SchedulePolicy::Scripted`] the script picks
    /// among the tied cores and the tie is recorded as a [`ChoicePoint`].
    fn pick_next(inner: &mut Inner<S>) -> Option<usize> {
        debug_assert!(inner.current.is_none());
        let core = if inner.script.is_none() {
            inner.waiting.first()?.1
        } else {
            Self::pick_scripted(inner)?
        };
        inner.current = Some(core);
        Some(core)
    }

    /// Scripted grant selection: collects every waiter tied at the minimum
    /// time, consults the script when there are at least two, and records
    /// the tie. Grants only happen when every live core sits in the
    /// waiting set (or via the single-runner fast path, which under
    /// `Scripted` never fires on a tie), so the candidate set — and with
    /// it the whole choice tree — is deterministic.
    fn pick_scripted(inner: &mut Inner<S>) -> Option<usize> {
        let (min_time, first) = inner.waiting.first()?;
        if inner.waiting.alone(first) {
            return Some(first);
        }
        let candidates = inner.waiting.tied();
        let st = inner.script.as_mut().expect("scripted pick without a script");
        let idx = st.script.get(st.pos).map_or(0, |&i| (i as usize).min(candidates.len() - 1));
        st.pos += 1;
        let chosen = candidates[idx];
        st.choices.push(ChoicePoint { time: min_time, candidates, chosen: idx as u32 });
        Some(chosen)
    }

    /// Whether `core`, its leaf just set to `time`, is what a pick would
    /// take without asking anyone: the waiting set's minimum — under
    /// `MinCore` that already encodes the lowest-core-id tie rule — and,
    /// under `Scripted`, alone at its time, since a tie is a choice point
    /// the script decides and the run records.
    fn ahead(g: &Inner<S>, core: usize, time: u64) -> bool {
        g.waiting.leads(core, time) && (g.script.is_none() || g.waiting.alone(core))
    }

    /// Whether no core runs and none is picked. No core runs the start-up
    /// wave's first grant: `runner` is `None` until a core resumes, so the
    /// first grant is a hand-off whichever core arrives last.
    fn pick_due(g: &Inner<S>) -> bool {
        g.running == 0 && g.current.is_none()
    }

    /// The one pick loop, run by `enter`, `park_poll` and `retire` whenever
    /// no core runs and none is picked: decides which core resumes next and
    /// marks it picked. On the way it serves every parked poll that
    /// provably needs no core, stepping the poller through exactly what its
    /// own `enter` calls would have done: picked out of the waiting set, its
    /// poll is a hand-off grant; from then on it is the sole running core,
    /// and each next poll is a fast re-grant while it stays ahead of every
    /// other waiter and a wait in the set once it does not. `regranted` on
    /// entry is a core parking with its first poll eligible for the fast
    /// re-grant.
    ///
    /// A served poller is re-keyed at once (one replay per poll, and the
    /// waiting set is accurate whenever anyone looks): it has stayed ahead
    /// exactly if [`Self::ahead`] still holds.
    fn dispatch(&self, g: &mut Inner<S>, mut regranted: Option<usize>) -> Option<usize> {
        debug_assert!(g.running == 0 && g.current.is_none() && g.runner.is_none());
        loop {
            let core = match regranted.take() {
                Some(core) => {
                    bump(&self.fast_grants);
                    core
                }
                None => Self::pick_next(g)?,
            };
            if !self.serve_in_place(g, core) {
                g.current = Some(core);
                return Some(core);
            }
            g.current = None;
            let time = g.parked[core].expect("only a parked core is served").time;
            g.waiting.set(core, time);
            regranted = Self::ahead(g, core, time).then_some(core);
        }
    }

    /// Grants `core`'s next poll right here if `core` is parked and the
    /// poll needs nobody: it observes nothing, the loop goes on after it,
    /// and nothing must happen on the core at this grant — no heartbeat
    /// publishes its counters, and the watchdog budget does not run out
    /// (the trip is the grantee's to raise).
    fn serve_in_place(&self, g: &mut Inner<S>, core: usize) -> bool {
        let Some(p) = g.parked[core] else { return false };
        let budget_spent =
            self.budget.is_some_and(|b| self.since_progress.load(Ordering::Relaxed) >= b);
        if self.heartbeat.is_some()
            || budget_spent
            || p.plan.ends_after(p.op, p.time)
            || g.state.poll_ready(core, p.time, p.op, p.plan.requests)
        {
            return false;
        }
        let heartbeat_due = self.record_grant(g, core, p.time);
        debug_assert!(!heartbeat_due);
        g.in_place_grants += 1;
        g.parked[core] = Some(Parked {
            op: p.plan.next(p.op),
            time: p.time + p.op.gap(),
            served: p.served + 1,
            ..p
        });
        true
    }

    /// Per-grant bookkeeping: stats, the op-stream hash fold, and the
    /// watchdog budget check. Shared by every way a grant happens (hand-off,
    /// fast re-grant, served in place) so all produce the identical op
    /// stream.
    ///
    /// Returns whether a heartbeat is due at this grant; the *caller* then
    /// calls [`Sequencer::emit_heartbeat`], which gives the lock up around
    /// the sink.
    #[must_use]
    fn record_grant(&self, g: &mut Inner<S>, core: usize, time: u64) -> bool {
        debug_assert_eq!(g.waiting.waiting_at(core), Some(time), "a grant keeps its key");
        g.cores[core].grants += 1;
        g.cores[core].last_time = time;
        g.op_hash = fold_grant(g.op_hash, time, core);
        let total = bump(&self.total_grants);
        if let Some(budget) = self.budget {
            let since = self.since_progress.fetch_add(1, Ordering::Relaxed) + 1;
            if since > budget {
                self.trip(g, core, time);
            }
        }
        match &self.heartbeat {
            Some(hb) => total.is_multiple_of(hb.config.every),
            None => false,
        }
    }

    /// Builds and delivers the heartbeat snapshot due at grant-time `time`:
    /// the granting core snapshots under the lock it holds, releases it
    /// around the sink (which may do I/O) and takes it back for its section.
    /// The core counts as running throughout, so nothing can be granted
    /// meanwhile — the deterministic fields are frozen.
    fn emit_heartbeat<'a>(
        &'a self,
        g: MutexGuard<'a, Inner<S>>,
        time: u64,
    ) -> MutexGuard<'a, Inner<S>> {
        let Some(hb) = &self.heartbeat else { return g };
        let cores = Self::strip(&g);
        drop(g);
        let total = self.total_grants.load(Ordering::Relaxed);
        let snap = HeartbeatSnap::new(
            total / hb.config.every,
            time,
            total,
            self.fast_grants.load(Ordering::Relaxed),
            Some(hb.live.as_ref()),
            cores,
        );
        (hb.config.sink)(&snap);
        self.inner.lock()
    }

    /// Marks the simulation failed for `reason` (the first reason sticks)
    /// and wakes every core so waiting cores observe the poison and unwind.
    fn poison_locked(&self, g: &mut Inner<S>, reason: PoisonReason) {
        g.poisoned = true;
        g.reason.get_or_insert(reason);
        self.poison_flag.store(true, Ordering::Relaxed);
        self.host.wake_all();
    }

    /// Poisons with a watchdog reason and unwinds the calling core.
    fn trip(&self, g: &mut Inner<S>, core: usize, time: u64) -> ! {
        self.poison_locked(g, PoisonReason::Watchdog { core, time });
        unwind_poisoned()
    }

    /// The checks every entry starts with, before anything is touched: the
    /// time is one the waiting set can hold, and the run is not poisoned.
    fn lock_to_enter(&self, core: usize, time: u64) -> MutexGuard<'_, Inner<S>> {
        assert!(
            time <= self.max_time,
            "core {core} entered the sequencer at cycle {time}, past the last one the waiting \
             set can hold ({})",
            self.max_time
        );
        let g = self.inner.lock();
        if g.poisoned {
            unwind_poisoned();
        }
        g
    }

    /// Waits until `core` — which has just stopped running — is the picked
    /// core or the run is poisoned: hands the token on whenever nothing runs
    /// and nothing is picked, and hands the CPU to the host in between.
    /// `regranted` is passed on to the first `dispatch`.
    fn await_pick<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner<S>>,
        core: usize,
        mut regranted: Option<usize>,
    ) -> MutexGuard<'a, Inner<S>> {
        while g.current != Some(core) && !g.poisoned {
            // `running > 0` means another core still executes or, on the
            // fiber backend, is yet to be started by the launcher.
            let next =
                if Self::pick_due(&g) { self.dispatch(&mut g, regranted.take()) } else { None };
            if next == Some(core) {
                break; // re-granted ourselves
            }
            drop(g);
            self.host.hand_off(core, next);
            g = self.inner.lock();
        }
        g
    }

    /// The picked `core` resumes: the pick is consumed, and counting as
    /// running again is what now keeps anyone else from being picked. Its
    /// leaf keeps the grant key (see `Inner::runner`).
    fn resume(g: &mut Inner<S>, core: usize) {
        g.current = None;
        g.runner = Some(core);
        g.running += 1;
    }

    /// The calling core stops running and gives the token up, its leaf
    /// already set to its next key or cleared.
    fn stop_running(g: &mut Inner<S>) {
        g.runner = None;
        g.running -= 1;
    }

    /// Blocks until `core` (at simulated time `time`) holds the global
    /// minimum and is granted the token, then returns the sequenced section
    /// it now holds.
    ///
    /// # Panics
    ///
    /// Panics if `time` does not fit the waiting set's keys, which keep
    /// their low `log2(cores)` bits (rounded up) for the core id: from
    /// cycle `2^56 - 1` on with 256 cores.
    /// Unwinds with the private `Poisoned` payload if the simulation was
    /// poisoned (by a panic on another core or by the watchdog), or if the
    /// armed watchdog finds the simulation stuck at this grant.
    pub fn enter(&self, core: usize, time: u64) -> Section<'_, S> {
        let mut g = self.lock_to_enter(core, time);
        // The core's leaf goes to its new key first: the one replay of this
        // grant, whichever way it goes.
        g.waiting.set(core, time);
        // Fast re-grant: this core holds the token (so it is the only one
        // running and no picked core is yet to resume) and is still the
        // minimum — dispatch would pick it right back. Grant inline and
        // skip the host hand-off entirely (the lock is simply kept for the
        // section). This is the steady state of steal-free inner loops.
        if g.runner == Some(core) && Self::ahead(&g, core, time) {
            bump(&self.fast_grants);
        } else {
            // Slow path: wait in the set, and until the token comes back
            // hand it to the minimum waiter (when this core was the last
            // one running) and give the CPU to the host.
            Self::stop_running(&mut g);
            g = self.await_pick(g, core, None);
            if g.poisoned {
                unwind_poisoned();
            }
            Self::resume(&mut g, core);
        }
        if self.record_grant(&mut g, core, time) {
            g = self.emit_heartbeat(g, time);
        }
        Section { g }
    }

    /// [`Sequencer::enter`] for a core about to busy-wait: `core` stands at
    /// poll `op` of `plan` at cycle `time`. Every poll from there on that
    /// observes nothing is granted in place by the pick loop, at the
    /// `(time, core)` its own `enter` would have been; the call returns the
    /// section of the first poll that needs the core — it would observe
    /// something, it is the last before `plan.deadline`, or a heartbeat or
    /// the watchdog needs the grantee itself — and how many polls were
    /// served before it. The caller owes those polls their local effects.
    ///
    /// `Err(served)` instead of unwinding: the run is poisoned, and the
    /// caller must still replay that many polls before it unwinds, so that
    /// its crash report reads as if it had polled by itself.
    ///
    /// # Panics
    ///
    /// As [`Sequencer::enter`], except for poison observed while parked.
    pub fn park_poll(
        &self,
        core: usize,
        time: u64,
        plan: PollPlan,
        op: PollOp,
    ) -> Result<PollWake<'_, S>, u64> {
        let mut g = self.lock_to_enter(core, time);
        g.parked[core] = Some(Parked { plan, op, time, served: 0 });
        g.waiting.set(core, time);
        // The first poll is stepped by `dispatch` like every later one: as
        // the runner's fast re-grant where `enter` would take one, out of
        // the waiting set otherwise.
        let regranted = (g.runner == Some(core) && Self::ahead(&g, core, time)).then_some(core);
        Self::stop_running(&mut g);
        g = self.await_pick(g, core, regranted);
        let at = g.parked[core].take().expect("a parked core keeps its plan until it wakes");
        if g.poisoned {
            return Err(at.served);
        }
        Self::resume(&mut g, core);
        if self.record_grant(&mut g, core, at.time) {
            g = self.emit_heartbeat(g, at.time);
        }
        Ok(PollWake { section: Section { g }, op: at.op, time: at.time, served: at.served })
    }

    /// Locks the sequenced state outside any grant, for the end-of-run
    /// readers. Every other method of the sequencer takes the same lock:
    /// read what you need from them *before* calling this.
    pub fn state(&self) -> Section<'_, S> {
        Section { g: self.inner.lock() }
    }

    /// Removes `core` from the simulation (its worker returned), handing
    /// the token to the minimum waiter if the run was waiting on this core.
    pub fn retire(&self, core: usize) {
        let mut g = self.inner.lock();
        g.cores[core].retired = true;
        if g.poisoned {
            return;
        }
        g.waiting.clear(core);
        Self::stop_running(&mut g);
        let next = if Self::pick_due(&g) { self.dispatch(&mut g, None) } else { None };
        drop(g);
        self.host.wake_after_retire(next);
    }

    /// Resets the watchdog's no-progress counter. Called by the runtime
    /// whenever real forward progress happens (a task ran, a steal
    /// completed, completion was signalled). Free when no watchdog is
    /// armed.
    pub fn mark_progress(&self) {
        if self.budget.is_some() {
            self.since_progress.store(0, Ordering::Relaxed);
        }
    }

    /// Total token grants so far.
    pub fn total_grants(&self) -> u64 {
        self.total_grants.load(Ordering::Relaxed)
    }

    /// Grants that took the inline fast re-grant path.
    pub fn fast_grants(&self) -> u64 {
        self.fast_grants.load(Ordering::Relaxed)
    }

    /// Grants served in place to parked polls ([`Sequencer::park_poll`]).
    pub fn in_place_grants(&self) -> u64 {
        self.inner.lock().in_place_grants
    }

    /// Order-sensitive hash of the `(time, core)` grant stream so far.
    pub fn op_hash(&self) -> u64 {
        self.inner.lock().op_hash
    }

    /// Marks the simulation as failed (a core panicked) and wakes every
    /// waiting core so its `enter` unwinds too.
    pub fn poison(&self) {
        self.poison_locked(&mut self.inner.lock(), PoisonReason::WorkerPanic);
    }

    /// Lock-free poison check for hot purely-local paths (see
    /// [`poison_flag`](Self::poison_flag) on the field). A core that only
    /// burns local cycles between sequenced operations polls this so a
    /// poisoned run unwinds it too instead of letting it spin forever.
    pub(crate) fn check_poison(&self) -> bool {
        self.poison_flag.load(Ordering::Relaxed)
    }

    /// The idle-spin rule's trip ([`crate::MAX_IDLE_CHARGES`]): poisons an
    /// armed run for `core`, spinning at cycle `time`, and unwinds it. Does
    /// nothing when no watchdog is armed.
    pub(crate) fn trip_spinner(&self, core: usize, time: u64) {
        if self.budget.is_some() {
            self.trip(&mut self.inner.lock(), core, time);
        }
    }

    /// Why the simulation was poisoned (`None` if it was not).
    pub fn poison_reason(&self) -> Option<PoisonReason> {
        self.inner.lock().reason
    }

    /// Whether the simulation has been poisoned.
    #[cfg(test)]
    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned
    }

    /// Per-core sequencer diagnostics (for the crash bundle).
    pub fn core_diag(&self) -> Vec<SeqCoreDiag> {
        Self::strip(&self.inner.lock())
    }

    /// Every core's sequencer-level state: the crash bundle's per-core
    /// diagnostics and the heartbeat's strip. The runner's leaf holds its
    /// grant key, not a wait.
    fn strip(g: &Inner<S>) -> Vec<SeqCoreDiag> {
        (g.cores.iter().enumerate())
            .map(|(core, s)| SeqCoreDiag {
                grants: s.grants,
                last_time: s.last_time,
                retired: s.retired,
                waiting_at: g.waiting.waiting_at(core).filter(|_| g.runner != Some(core)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecBackend;
    use std::sync::atomic::AtomicUsize;

    /// A sequencer whose cores run on the threads that [`adopt`] them.
    fn on_threads<S: PollState>(num_cores: usize, state: S) -> Sequencer<S> {
        Sequencer::new(num_cores, Host::new(ExecBackend::Threads, num_cores), state)
    }

    /// Registers the calling thread as `core`'s, as the thread host's
    /// launcher does before a core's body runs.
    fn adopt<S: PollState>(seq: &Sequencer<S>, core: usize) {
        let Host::Threads(threads) = seq.host() else { unreachable!("tests run on threads") };
        threads.adopt(core);
    }

    /// Three cores perform interleaved sequenced ops; the observed global
    /// order must be exactly ascending (time, core).
    #[test]
    fn grants_follow_time_order() {
        let seq = Arc::new(on_threads(3, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in 0..3usize {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                adopt(&seq, core);
                let mut t = core as u64; // staggered start times
                for _ in 0..50 {
                    let section = seq.enter(core, t);
                    log.lock().push((t, core));
                    drop(section);
                    t += 3; // all cores advance at the same rate
                }
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock();
        assert_eq!(log.len(), 150);
        let mut sorted = log.clone();
        sorted.sort();
        assert_eq!(*log, sorted, "grants must be in global (time, core) order");
    }

    #[test]
    fn single_core_never_blocks() {
        let seq = on_threads(1, ());
        for t in 0..10 {
            drop(seq.enter(0, t));
        }
        seq.retire(0);
    }

    #[test]
    fn retire_unblocks_waiters() {
        let seq = Arc::new(on_threads(2, ()));
        let seq2 = Arc::clone(&seq);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            adopt(&seq2, 1);
            // Core 1 waits at a later time than core 0 will ever reach; it
            // can only be granted after core 0 retires.
            let section = seq2.enter(1, 1_000_000);
            done2.store(1, Ordering::SeqCst);
            drop(section);
            seq2.retire(1);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0, "core 1 must still be waiting");
        seq.retire(0);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn poison_unblocks_with_panic() {
        let seq = Arc::new(on_threads(2, ()));
        let seq2 = Arc::clone(&seq);
        let h = std::thread::spawn(move || {
            adopt(&seq2, 1);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(seq2.enter(1, 42));
            }));
            assert!(r.expect_err("poisoned enter must unwind").is::<Poisoned>());
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        seq.poison();
        h.join().unwrap();
        assert!(seq.is_poisoned());
        assert_eq!(seq.poison_reason(), Some(PoisonReason::WorkerPanic));
    }

    #[test]
    fn ties_break_by_core_id() {
        let seq = Arc::new(on_threads(2, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                adopt(&seq, core);
                let section = seq.enter(core, 5);
                log.lock().push(core);
                drop(section);
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*log.lock(), vec![0, 1]);
    }

    /// Runs two cores that tie at time 5 under `policy` and returns the
    /// observed grant order plus the recorded choice points.
    fn tied_pair(policy: SchedulePolicy) -> (Vec<usize>, Vec<ChoicePoint>) {
        let seq = Arc::new(on_threads(2, ()));
        seq.set_policy(policy);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                adopt(&seq, core);
                let section = seq.enter(core, 5);
                log.lock().push(core);
                drop(section);
                seq.retire(core);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let order = log.lock().clone();
        (order, seq.choice_points())
    }

    #[test]
    fn scripted_tie_flip_reverses_grant_order() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![1]));
        assert_eq!(order, vec![1, 0]);
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0], ChoicePoint { time: 5, candidates: vec![0, 1], chosen: 1 });
    }

    #[test]
    fn empty_script_replays_min_core_but_records_the_tie() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![]));
        assert_eq!(order, vec![0, 1], "exhausted script falls back to the lowest core id");
        assert_eq!(choices.len(), 1);
        assert_eq!(choices[0].chosen, 0);
        // MinCore records nothing at all.
        let (order, choices) = tied_pair(SchedulePolicy::MinCore);
        assert_eq!(order, vec![0, 1]);
        assert!(choices.is_empty());
    }

    #[test]
    fn out_of_range_script_entries_clamp_to_the_last_candidate() {
        let (order, choices) = tied_pair(SchedulePolicy::Scripted(vec![99]));
        assert_eq!(order, vec![1, 0]);
        assert_eq!(choices[0].chosen, 1, "the recorded index is the clamped one");
    }

    #[test]
    fn scripted_op_hash_matches_min_core_on_the_default_path() {
        // A tie-free schedule must hash identically under both policies
        // (the fast re-grant path is gated differently but grants the
        // same stream).
        let run = |policy: SchedulePolicy| {
            let seq = on_threads(1, ());
            seq.set_policy(policy);
            for t in 0..10 {
                drop(seq.enter(0, t));
            }
            seq.retire(0);
            seq.op_hash()
        };
        assert_eq!(run(SchedulePolicy::MinCore), run(SchedulePolicy::Scripted(vec![])));
    }

    #[test]
    fn watchdog_trips_on_grant_budget() {
        let mut seq = on_threads(1, ());
        seq.set_watchdog(10);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for t in 0..100 {
                drop(seq.enter(0, t));
            }
        }));
        let err = r.expect_err("budget of 10 must trip within 100 grants");
        assert!(err.is::<Poisoned>(), "the trip unwinds with the poison payload");
        assert!(matches!(seq.poison_reason(), Some(PoisonReason::Watchdog { core: 0, .. })));
    }

    /// The idle-spin trip poisons only an armed run, and names the spinner
    /// and its cycle.
    #[test]
    fn a_spinner_trips_only_an_armed_watchdog() {
        let mut seq = on_threads(2, ());
        seq.trip_spinner(1, 9);
        assert!(!seq.is_poisoned(), "no watchdog, no trip");
        seq.set_watchdog(10);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| seq.trip_spinner(1, 9)));
        assert!(r.expect_err("an armed trip unwinds").is::<Poisoned>());
        assert_eq!(seq.poison_reason(), Some(PoisonReason::Watchdog { core: 1, time: 9 }));
    }

    #[test]
    fn progress_marks_keep_watchdog_quiet() {
        let mut seq = on_threads(1, ());
        seq.set_watchdog(10);
        for t in 0..100 {
            drop(seq.enter(0, t));
            if t % 5 == 0 {
                seq.mark_progress();
            }
        }
        seq.retire(0);
        assert!(!seq.is_poisoned());
        assert_eq!(seq.total_grants(), 100);
    }

    /// The waiting set against the structure it replaced: a
    /// `BTreeSet<(time, core)>` oracle must agree on the minimum, on the
    /// `Scripted` candidate list and on the full membership after every
    /// step of seeded random churn — heavy time ties, removal of waiters
    /// that are not the minimum (a `Scripted` tie-flip), sizes on both
    /// sides of a power of two.
    #[test]
    fn wait_tree_matches_btreeset_oracle() {
        use std::collections::BTreeSet;
        for (n, seed) in [1usize, 2, 3, 64, 65, 256, 1000].into_iter().zip(1u64..) {
            let mut rng = bigtiny_mesh::XorShift64::new(seed);
            let mut tree = WaitTree::new(n);
            let mut oracle: BTreeSet<(u64, usize)> = BTreeSet::new();
            assert_eq!(tree.first(), None);
            for step in 0..4000 {
                let core = rng.next_below(n as u64) as usize;
                match tree.waiting_at(core) {
                    Some(t) => {
                        tree.clear(core);
                        assert!(oracle.remove(&(t, core)));
                    }
                    None => {
                        // Four distinct times, one of them the largest a
                        // core can wait at.
                        let t = [5, 6, 7, tree.max_time()][rng.next_below(4) as usize];
                        tree.set(core, t);
                        assert!(oracle.insert((t, core)));
                    }
                }
                let ctx = format!("{n} cores, step {step}");
                assert_eq!(tree.first(), oracle.first().copied(), "{ctx}");
                let leaves = tree.node.len() / 2;
                assert!((n..leaves).all(|c| tree.waiting_at(c).is_none()), "padding: {ctx}");
                let mut waiters: Vec<_> =
                    (0..n).filter_map(|c| Some((tree.waiting_at(c)?, c))).collect();
                waiters.sort_unstable();
                assert!(waiters.iter().eq(oracle.iter()), "{ctx}");
                if let Some(&(min, first)) = oracle.first() {
                    let tied: Vec<usize> =
                        oracle.iter().take_while(|&&(t, _)| t == min).map(|&(_, c)| c).collect();
                    assert_eq!(tree.alone(first), tied.len() == 1, "{ctx}");
                    assert_eq!(tree.tied(), tied, "{ctx}");
                }
            }
        }
    }

    /// A time past the last one a key can hold — the first of them, and
    /// `u64::MAX`, the tree's "not waiting" key — must be refused before
    /// the waiting set (or anything else) is touched; the last one itself
    /// is granted like any other.
    #[test]
    fn enter_at_u64_max_is_rejected_up_front() {
        let seq = on_threads(2, ());
        let max = seq.max_time;
        assert_eq!(max, (u64::MAX >> 1) - 1, "two cores keep one bit of each key");
        for time in [max + 1, u64::MAX] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(seq.enter(0, time));
            }));
            let msg = *r.expect_err("not a time").downcast::<String>().unwrap();
            assert!(msg.contains(&format!("cycle {time}, past the last one")), "got: {msg}");
            assert!(!seq.is_poisoned());
            assert_eq!(seq.core_diag()[0].waiting_at, None);
            assert_eq!(seq.total_grants(), 0);
        }
        // The sequencer is untouched: the run goes on.
        seq.retire(1);
        drop(seq.enter(0, max));
        assert_eq!(seq.total_grants(), 1);
    }

    /// Non-power-of-two core counts pad the tree with leaves that hold
    /// [`NOT_WAITING`]; the last real core waiting at the largest legal
    /// time must still beat them, and an empty set must report no winner.
    #[test]
    fn padding_leaves_never_win() {
        for n in [1usize, 3, 65, 1000] {
            let seq = on_threads(n, ());
            let mut g = seq.inner.lock();
            let max = g.waiting.max_time();
            assert_eq!(max, seq.max_time, "{n} cores");
            assert_eq!(g.waiting.first(), None, "{n} cores");
            g.waiting.set(n - 1, max);
            assert_eq!(g.waiting.first(), Some((max, n - 1)), "{n} cores");
            assert_eq!(g.waiting.tied(), [n - 1], "{n} cores");
            g.waiting.clear(n - 1);
            assert_eq!(g.waiting.first(), None, "{n} cores");
        }
    }

    #[test]
    fn core_diag_reflects_state() {
        let seq = on_threads(2, ());
        // Core 1 retires first so core 0's enter can be granted.
        seq.retire(1);
        drop(seq.enter(0, 7));
        let d = seq.core_diag();
        assert_eq!(d[0].grants, 1);
        assert_eq!(d[0].last_time, 7);
        assert!(!d[0].retired);
        assert!(d[1].retired);
    }

    /// Two cores on their own threads, `late` entering only once the other
    /// waits: core 0 at cycle 0, core 1 at cycle 5, one op each. Returns
    /// what the start-up wave leaves behind.
    fn start_wave_with_late(late: usize) -> (u64, u64, u64, Vec<SeqCoreDiag>) {
        let seq = on_threads(2, ());
        std::thread::scope(|scope| {
            for core in 0..2usize {
                let seq = &seq;
                scope.spawn(move || {
                    adopt(seq, core);
                    let time = 5 * core as u64;
                    if core == late {
                        let early = 1 - core;
                        while seq.core_diag()[early].waiting_at != Some(5 * early as u64) {
                            std::thread::yield_now();
                        }
                    }
                    drop(seq.enter(core, time));
                    seq.retire(core);
                });
            }
        });
        (seq.fast_grants(), seq.total_grants(), seq.in_place_grants(), seq.core_diag())
    }

    /// The first grant of a run is core 0's, and it is a hand-off whichever
    /// core arrives last: arrival order on threads is a host race, and no
    /// counter may follow it.
    #[test]
    fn arrival_order_does_not_classify_the_first_grant() {
        let early = start_wave_with_late(1);
        assert_eq!(early.0, 0, "core 1 arriving last dispatches core 0's grant");
        assert_eq!(start_wave_with_late(0), early, "core 0 arriving last");
    }

    /// The token holder's leaf keeps its grant key, but no diagnostic reads
    /// it as a wait: every heartbeat strip and `core_diag` report `None`
    /// for the core that holds the token, and the time a waiting core
    /// really waits at.
    #[test]
    fn diagnostics_do_not_see_the_runners_leaf() {
        let strips = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&strips);
        let mut seq = on_threads(2, ());
        let beat = Heartbeat::new(
            1,
            Arc::new(move |snap: &HeartbeatSnap| sink.lock().push(snap.cores.clone())),
        );
        seq.set_heartbeat(beat, Arc::new(LiveCounters::new(2)));
        let waiting_at = |strip: &[SeqCoreDiag]| strip.iter().map(|d| d.waiting_at).collect();
        let diag = std::thread::scope(|scope| {
            let seq = &seq;
            scope.spawn(move || {
                adopt(seq, 1);
                drop(seq.enter(1, 100));
                seq.retire(1);
            });
            adopt(seq, 0);
            while seq.core_diag()[1].waiting_at != Some(100) {
                std::thread::yield_now();
            }
            drop(seq.enter(0, 7)); // a hand-off grant: core 0 now runs
            let diag: Vec<Option<u64>> = waiting_at(&seq.core_diag());
            drop(seq.enter(0, 8)); // a fast re-grant
            seq.retire(0);
            diag
        });
        assert_eq!(seq.fast_grants(), 1);
        assert_eq!(diag, [None, Some(100)], "core_diag between core 0's grants");
        let strips: Vec<Vec<Option<u64>>> = strips.lock().iter().map(|s| waiting_at(s)).collect();
        assert_eq!(strips, [[None, Some(100)], [None, Some(100)], [None, None]], "strips");
        assert_eq!(waiting_at(&seq.core_diag()), [None, None], "after the run");
    }

    // ------------------------------------------------------------------
    // Parked polls
    // ------------------------------------------------------------------

    /// Sequenced state for the parked-poll tests: `Done` polls observe
    /// `done`, `Response` polls a response that arrives at a cycle, and
    /// nobody ever sends a request.
    #[derive(Default)]
    struct Flags {
        done: bool,
        response_at: Option<u64>,
    }

    impl PollState for Flags {
        fn poll_ready(&self, _: usize, time: u64, op: PollOp, _: bool) -> bool {
            match op {
                PollOp::Response => self.response_at.is_some_and(|at| at <= time),
                PollOp::Requests => false,
                PollOp::Done => self.done,
            }
        }
    }

    type GrantLog = Arc<Mutex<Vec<(u64, usize)>>>;

    /// How a test's poller takes its grants: parked, or — the loop
    /// `park_poll` stands for — one `enter` per poll.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Polling {
        Parked,
        PerOpEnter,
    }

    /// Polls `plan` from `op` at `time` until a poll observes something or
    /// the deadline ends the loop; logs every grant the thread itself
    /// received and returns the last poll and its cycle.
    fn poll_until_stopped<S: PollState>(
        seq: &Sequencer<S>,
        how: Polling,
        core: usize,
        plan: PollPlan,
        (mut op, mut time): (PollOp, u64),
        log: &GrantLog,
    ) -> (PollOp, u64) {
        loop {
            let section = match how {
                Polling::Parked => {
                    let wake = seq.park_poll(core, time, plan, op).expect("not poisoned");
                    (op, time) = (wake.op, wake.time);
                    wake.section
                }
                Polling::PerOpEnter => seq.enter(core, time),
            };
            log.lock().push((time, core));
            let stop =
                section.poll_ready(core, time, op, plan.requests) || plan.ends_after(op, time);
            drop(section);
            if stop {
                return (op, time);
            }
            time += op.gap();
            op = plan.next(op);
        }
    }

    /// One poller among three plain enterers, one of which makes the awaited
    /// response arrive part-way through. Returns everything the grant stream
    /// leaves behind.
    fn poller_among_enterers(how: Polling) -> (Vec<(u64, usize)>, u64, u64, Vec<u64>, u64) {
        let seq = Arc::new(on_threads(4, Flags::default()));
        let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let (seq, log) = (&seq, &log);
            scope.spawn(move || {
                adopt(seq, 0);
                let plan = PollPlan { requests: true, deadline: None };
                let stopped = poll_until_stopped(seq, how, 0, plan, (PollOp::Response, 5), log);
                assert_eq!(stopped.0, PollOp::Response, "only a response ends this wait");
                seq.retire(0);
            });
            for core in 1..4usize {
                scope.spawn(move || {
                    adopt(seq, core);
                    // Strides of 7 against the poller's rounds of 10: every
                    // phase, including exact time ties with the poller.
                    for i in 0..40u64 {
                        let time = core as u64 + 7 * i;
                        let mut section = seq.enter(core, time);
                        log.lock().push((time, core));
                        if core == 2 && i == 20 {
                            section.response_at = Some(time + 13);
                        }
                        drop(section);
                    }
                    seq.retire(core);
                });
            }
        });
        let grants = seq.core_diag().iter().map(|d| d.grants).collect();
        let log = log.lock().clone();
        (log, seq.op_hash(), seq.total_grants(), grants, seq.in_place_grants())
    }

    /// The grant stream with a parked poller is the stream with the poller
    /// calling `enter` per poll: same `(time, core)` keys in the same
    /// ascending order, hence the same hash, totals and per-core counts —
    /// only who performs a grant differs.
    #[test]
    fn parked_poller_leaves_the_grant_stream_of_per_op_enters() {
        let (full_log, hash, total, grants, in_place) = poller_among_enterers(Polling::PerOpEnter);
        let mut sorted = full_log.clone();
        sorted.sort_unstable();
        assert_eq!(full_log, sorted, "per-op enters are granted in (time, core) order");
        assert_eq!(full_log.len() as u64, total);
        let oracle = full_log.iter().fold(FNV_OFFSET, |h, &(t, c)| fold_grant(h, t, c));
        assert_eq!(hash, oracle, "the op hash folds exactly the logged grants");
        assert_eq!(in_place, 0, "plain enters are never served in place");

        let (woken_log, parked_hash, parked_total, parked_grants, in_place) =
            poller_among_enterers(Polling::Parked);
        assert_eq!((parked_hash, parked_total, &parked_grants), (hash, total, &grants));
        assert!(in_place > 0 && in_place < grants[0], "{in_place} of {} polls", grants[0]);
        assert_eq!(woken_log.len() as u64 + in_place, total, "a poll is served or woken for");
        assert_subsequence(&woken_log, &full_log);
    }

    /// The grants somebody woke up for must be a subsequence of the stream
    /// of per-op enters: in-place service reorders nothing around them.
    fn assert_subsequence(woken: &[(u64, usize)], full: &[(u64, usize)]) {
        let mut rest = full.iter();
        for g in woken {
            assert!(rest.any(|f| f == g), "{g:?} granted out of order: {woken:?} in {full:?}");
        }
    }

    /// Two cores under a scripted policy: core 0 polls from cycle 5 until
    /// its deadline ends the loop at the `Done` poll of cycle 6; core 1
    /// enters at 5 and 6, tying with it at both. Returns the order of the
    /// grants somebody woke for, every recorded tie, and the stream totals.
    fn scripted_poller(
        how: Polling,
        script: Vec<u32>,
    ) -> (Vec<(u64, usize)>, Vec<ChoicePoint>, u64) {
        let seq = Arc::new(on_threads(2, ()));
        seq.set_policy(SchedulePolicy::Scripted(script));
        let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let (seq, log) = (&seq, &log);
            scope.spawn(move || {
                adopt(seq, 0);
                let plan = PollPlan { requests: true, deadline: Some(7) };
                let stopped = poll_until_stopped(seq, how, 0, plan, (PollOp::Response, 5), log);
                assert_eq!(stopped, (PollOp::Done, 6));
                seq.retire(0);
            });
            scope.spawn(move || {
                adopt(seq, 1);
                for time in [5, 6] {
                    let section = seq.enter(1, time);
                    log.lock().push((time, 1));
                    drop(section);
                }
                seq.retire(1);
            });
        });
        let log = log.lock().clone();
        (log, seq.choice_points(), seq.op_hash())
    }

    /// Under `Scripted`, a time tie involving a parked core is still a
    /// choice point: it goes through `pick_scripted`, the script decides it
    /// and the run records it, exactly as with per-op enters — the parked
    /// core is stepped in place only while its time is *strictly* ahead.
    #[test]
    fn scripted_ties_with_a_parked_core_are_recorded_choice_points() {
        for script in [vec![], vec![1], vec![1, 1], vec![0, 1, 1], vec![1, 0, 1, 1]] {
            let (by_enter, enter_choices, enter_hash) =
                scripted_poller(Polling::PerOpEnter, script.clone());
            let (by_parking, park_choices, park_hash) =
                scripted_poller(Polling::Parked, script.clone());
            assert_eq!(park_choices, enter_choices, "script {script:?}");
            assert_eq!(park_hash, enter_hash, "script {script:?}");
            assert!(!park_choices.is_empty(), "script {script:?}: the ties at 5 and 6 are choices");
            assert!(
                park_choices.iter().all(|c| c.candidates == [0, 1]),
                "script {script:?}: {park_choices:?}"
            );
            assert_subsequence(&by_parking, &by_enter);
            assert!(by_parking.contains(&(6, 0)), "the deadline poll is a real grant");
        }
    }

    /// Every live core parked, nothing pending, no deadline: the polls are
    /// served in place until the armed grant budget runs out, and the trip
    /// is raised by the poller itself, at the grant its own `enter` would
    /// have tripped on.
    #[test]
    fn grant_budget_trips_on_the_parked_core_at_the_same_grant() {
        let trip = |how: Polling| {
            let mut seq = on_threads(2, ());
            seq.set_watchdog(25);
            seq.retire(1);
            let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
            let plan = PollPlan { requests: true, deadline: None };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                poll_until_stopped(&seq, how, 0, plan, (PollOp::Response, 3), &log)
            }));
            assert!(r.expect_err("nothing ever answers").is::<Poisoned>(), "{how:?}");
            (seq.poison_reason(), seq.total_grants(), seq.in_place_grants())
        };
        let (enter_reason, enter_total, _) = trip(Polling::PerOpEnter);
        let (park_reason, park_total, in_place) = trip(Polling::Parked);
        assert_eq!(park_reason, enter_reason);
        assert!(matches!(park_reason, Some(PoisonReason::Watchdog { core: 0, .. })));
        assert_eq!(park_total, enter_total);
        assert_eq!(in_place, 25, "the whole budget was served in place; the trip was not");
    }

    /// Poison while parked unwinds the parked core — with the number of
    /// polls served before it, so the core can still account for them.
    #[test]
    fn poison_while_parked_returns_the_served_polls() {
        let seq = Arc::new(on_threads(2, ()));
        let plan = PollPlan { requests: false, deadline: None };
        let (served, in_place, waiting_at) = std::thread::scope(|scope| {
            let seq = &seq;
            let poller = scope.spawn(move || {
                adopt(seq, 1);
                seq.park_poll(1, 42, plan, PollOp::Response).err()
            });
            adopt(seq, 0);
            // Whoever of the two stops running last runs the pick loop: it
            // serves core 1's polls at 42, 43, 52, 53, ..., 92, 93 — every
            // one before (100, 0) — and then grants core 0.
            drop(seq.enter(0, 100));
            let seen = (seq.in_place_grants(), seq.core_diag()[1].waiting_at);
            seq.poison();
            (poller.join().unwrap(), seen.0, seen.1)
        });
        assert_eq!(in_place, 12);
        assert_eq!(waiting_at, Some(102), "parked at its next poll");
        assert_eq!(served, Some(12));
        assert_eq!(seq.poison_reason(), Some(PoisonReason::WorkerPanic));
    }

    // ------------------------------------------------------------------
    // The runner-leaf protocol against a reference model
    // ------------------------------------------------------------------

    /// One step of a core's script.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// `enter` this many cycles after the core's last grant.
        Enter(u64),
        /// `park_poll` on a `Response` poll this many cycles after the
        /// core's last grant, with a deadline `.1` cycles after that
        /// first poll; nothing ever answers.
        Park(u64, u64),
    }

    /// The plan of a `Step::Park(_, span)` whose first poll is at `t`.
    fn park_plan(t: u64, span: u64) -> PollPlan {
        PollPlan { requests: false, deadline: Some(t + span) }
    }

    /// The grants `steps` ask for, from cycle `start`, as `(time, woken)`:
    /// every poll of a parked wait is a grant, and the core itself is woken
    /// only for the last one.
    fn grant_requests(start: u64, steps: &[Step]) -> Vec<(u64, bool)> {
        let mut out = Vec::new();
        let mut t = start;
        for &step in steps {
            match step {
                Step::Enter(dt) => {
                    t += dt;
                    out.push((t, true));
                }
                Step::Park(dt, span) => {
                    t += dt;
                    let (plan, mut op) = (park_plan(t, span), PollOp::Response);
                    while !plan.ends_after(op, t) {
                        out.push((t, false));
                        t += op.gap();
                        op = plan.next(op);
                    }
                    out.push((t, true));
                }
            }
        }
        out
    }

    /// What a core sees at a grant it is woken for (or takes inline): the
    /// grant, the grant counters so far, the cores tied at its time,
    /// and the strip's `waiting_at` of every core.
    type Seen = ((u64, usize), u64, u64, Vec<usize>, Vec<Option<u64>>);

    /// The reference model: the waiting cores only, as a `BTreeSet`, and
    /// the runner outside it. The runner asks for its next grant: it takes
    /// it inline if it is ahead of every waiter (strictly earlier in time,
    /// under `Scripted`), and otherwise waits, and the minimum waiter (or
    /// the script's choice among those tied at the minimum time) runs next.
    /// Returns what the woken grants see, the op hash of every grant, the
    /// fast re-grants and the recorded ties.
    fn model(
        requests: &[Vec<(u64, bool)>],
        script: Option<&[u32]>,
    ) -> (Vec<Seen>, u64, u64, Vec<ChoicePoint>) {
        use std::collections::{BTreeSet, VecDeque};
        let n = requests.len();
        let mut next: Vec<VecDeque<(u64, bool)>> =
            requests.iter().map(|r| r.iter().copied().collect()).collect();
        let mut waiting: BTreeSet<(u64, usize)> =
            (0..n).filter_map(|c| next[c].front().map(|&(t, _)| (t, c))).collect();
        let (mut seen, mut hash, mut total, mut fast) = (Vec::new(), FNV_OFFSET, 0, 0);
        let (mut choices, mut pos) = (Vec::new(), 0);
        while let Some(&(min, lowest)) = waiting.first() {
            let tied: Vec<usize> =
                waiting.iter().take_while(|&&(t, _)| t == min).map(|&(_, c)| c).collect();
            let mut core = lowest;
            if let (Some(script), true) = (script, tied.len() > 1) {
                let idx = script.get(pos).map_or(0, |&i| (i as usize).min(tied.len() - 1));
                pos += 1;
                core = tied[idx];
                choices.push(ChoicePoint { time: min, candidates: tied, chosen: idx as u32 });
            }
            waiting.remove(&(min, core));
            let mut inline = false;
            while let Some((time, woken)) = next[core].pop_front() {
                (hash, total, fast) =
                    (fold_grant(hash, time, core), total + 1, fast + inline as u64);
                if woken {
                    let mut tied: Vec<usize> =
                        waiting.iter().filter(|&&(t, _)| t == time).map(|&(_, c)| c).collect();
                    tied.push(core);
                    tied.sort_unstable();
                    let mut strip = vec![None; n];
                    for &(t, c) in &waiting {
                        strip[c] = Some(t);
                    }
                    seen.push(((time, core), total, fast, tied, strip));
                }
                let Some(&(t, _)) = next[core].front() else { break };
                inline = waiting.first().is_none_or(|&(wt, wc)| match script {
                    None => (t, core) < (wt, wc),
                    Some(_) => t < wt,
                });
                if !inline {
                    waiting.insert((t, core));
                    break;
                }
            }
        }
        (seen, hash, fast, choices)
    }

    /// Drives a sequencer on the backend `run_system` would pick with every
    /// core running `steps[core]`, then retiring; returns what the woken
    /// grants saw, the op hash, the fast re-grants and the recorded ties.
    fn drive(
        steps: &[Vec<Step>],
        starts: &[u64],
        script: Option<&[u32]>,
    ) -> (Vec<Seen>, u64, u64, Vec<ChoicePoint>) {
        let n = steps.len();
        let backend = crate::host::resolve_backend(&crate::SystemConfig::o3(1));
        let seq = Sequencer::new(n, Host::new(backend, n), ());
        if let Some(script) = script {
            seq.set_policy(SchedulePolicy::Scripted(script.to_vec()));
        }
        let log: Mutex<Vec<Seen>> = Mutex::new(Vec::new());
        let see = |section: &Section<'_, ()>, core: usize, time: u64| {
            let strip = Sequencer::strip(&section.g).iter().map(|d| d.waiting_at).collect();
            assert_eq!(section.g.waiting.first().map(|(t, _)| t), Some(time));
            let tied = section.g.waiting.tied();
            let counts = (seq.total_grants(), seq.fast_grants());
            log.lock().push(((time, core), counts.0, counts.1, tied, strip));
        };
        let bodies: Vec<crate::host::Body<'_>> = (0..n)
            .map(|core| {
                let (seq, see, steps, mut t) = (&seq, &see, &steps[core], starts[core]);
                Box::new(move || {
                    for &step in steps {
                        match step {
                            Step::Enter(dt) => {
                                t += dt;
                                see(&seq.enter(core, t), core, t);
                            }
                            Step::Park(dt, span) => {
                                t += dt;
                                let plan = park_plan(t, span);
                                let wake = seq.park_poll(core, t, plan, PollOp::Response);
                                let wake = wake.expect("nothing poisons this run");
                                t = wake.time;
                                see(&wake.section, core, t);
                            }
                        }
                    }
                    seq.retire(core);
                }) as crate::host::Body<'_>
            })
            .collect();
        seq.host().launch(64 * 1024, bodies);
        let seen = std::mem::take(&mut *log.lock());
        (seen, seq.op_hash(), seq.fast_grants(), seq.choice_points())
    }

    /// The runner's leaf stays in the tree with its grant key, and the
    /// fast re-grant asks whether the entering core is still the root:
    /// seeded random `enter` / `park_poll` / `retire` scripts, heavy on
    /// time ties, must see the model's picks, fast re-grant decisions,
    /// tied cores and strips at every grant a core is woken for, and the
    /// model's op hash, fast re-grant count and choice points overall.
    #[test]
    fn runner_leaf_protocol_matches_a_waiting_set_model() {
        for (n, seed) in [1usize, 3, 64, 65, 256].into_iter().zip(11u64..) {
            let mut rng = bigtiny_mesh::XorShift64::new(seed);
            let len = (600 / n).clamp(4, 40);
            let steps: Vec<Vec<Step>> = (0..n)
                .map(|_| {
                    (0..len)
                        .map(|_| match rng.next_below(5) {
                            0 => Step::Park(rng.next_below(3), 1 + rng.next_below(25)),
                            _ => Step::Enter(rng.next_below(3)),
                        })
                        .collect()
                })
                .collect();
            let starts: Vec<u64> = (0..n).map(|_| rng.next_below(4)).collect();
            let requests: Vec<_> = (0..n).map(|c| grant_requests(starts[c], &steps[c])).collect();
            let script: Vec<u32> = (0..64).map(|_| rng.next_below(3) as u32).collect();
            for script in [None, Some(&script[..])] {
                let ctx = format!("{n} cores, scripted: {}", script.is_some());
                let (seen, hash, fast, choices) = drive(&steps, &starts, script);
                let (want_seen, want_hash, want_fast, want_choices) = model(&requests, script);
                for (i, (got, want)) in seen.iter().zip(&want_seen).enumerate() {
                    assert_eq!(got, want, "{ctx}: woken grant {i}");
                }
                assert_eq!(seen.len(), want_seen.len(), "{ctx}");
                assert_eq!((hash, fast), (want_hash, want_fast), "{ctx}");
                assert_eq!(choices, want_choices, "{ctx}");
                assert!(script.is_none() || !choices.is_empty() || n == 1, "{ctx}: no tie");
            }
        }
    }
}
