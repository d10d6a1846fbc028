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
//! of grant selection and bookkeeping; they differ only in how a blocked
//! core wakes its successor and yields the host thread
//! ([`Sequencer::wake`], [`Sequencer::yield_host`]).
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
//! grants pass without a progress mark (or the wall-clock monitor thread
//! sees a core wait while nothing is granted and no core does productive
//! local work for a whole window) the sequencer is poisoned with
//! [`PoisonReason::Watchdog`] and every core unwinds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::fiber::{FiberId, FiberRt};
use crate::flight::{CoreBeat, Heartbeat, HeartbeatSnap, LiveCounters};
use crate::sync::Mutex;
use crate::watchdog::{PoisonReason, SeqCoreDiag, WatchdogConfig, WATCHDOG_MSG};

pub(crate) const POISON_MSG: &str = "simulation poisoned by a panic on another core";

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

/// [`WaitTree`]'s in-band "this core is not waiting" time. No core can wait
/// at it: [`Sequencer::enter`] rejects it before touching the tree.
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

/// The cores blocked in `enter`: a fixed, array-backed winner (tournament)
/// tree. Insert and remove replay one leaf-to-root path (`log2(cores)`
/// compares), the minimum is the root, and nothing allocates after
/// construction.
#[derive(Debug)]
struct WaitTree {
    /// The implicit tree: node 1 is the root, node `i` has children `2i`
    /// and `2i + 1`, and node `node.len() / 2 + c` is core `c`'s leaf. A
    /// leaf holds `(time, c)` while `c` waits at `time`, `(NOT_WAITING, c)`
    /// otherwise; an internal node holds the minimum of its children. Keys
    /// order by time, then core id — the lowest-core-id rule of
    /// [`SchedulePolicy::MinCore`] — so a padding leaf (there to make the
    /// leaf count a power of two) loses even to an idle real core.
    node: Vec<(u64, usize)>,
}

impl WaitTree {
    fn new(num_cores: usize) -> Self {
        let leaves = num_cores.next_power_of_two().max(2);
        let mut node = vec![(NOT_WAITING, 0); 2 * leaves];
        for core in 0..leaves {
            node[leaves + core].1 = core;
        }
        // Every time ties, so every minimum is the left child.
        for i in (1..leaves).rev() {
            node[i] = node[2 * i];
        }
        WaitTree { node }
    }

    /// Sets `core`'s wait time ([`NOT_WAITING`] removes it) and replays its
    /// path to the root.
    fn set(&mut self, core: usize, time: u64) {
        let mut i = self.node.len() / 2 + core;
        let (mut t, mut c) = (time, core);
        self.node[i] = (t, c);
        while i > 1 {
            // Which of two waiters is earlier is a coin flip, and the next
            // level up needs the answer: select, never branch.
            let (ts, cs) = self.node[i ^ 1];
            let sibling_first = (ts, cs) < (t, c);
            t = std::hint::select_unpredictable(sibling_first, ts, t);
            c = std::hint::select_unpredictable(sibling_first, cs, c);
            i /= 2;
            self.node[i] = (t, c);
        }
    }

    /// The time `core` waits at, if it waits.
    fn waiting_at(&self, core: usize) -> Option<u64> {
        Some(self.node[self.node.len() / 2 + core].0).filter(|&t| t != NOT_WAITING)
    }

    /// The waiter with the minimum `(time, core)`.
    fn first(&self) -> Option<(u64, usize)> {
        Some(self.node[1]).filter(|&(t, _)| t != NOT_WAITING)
    }

    /// Every waiter as `(time, core)`, in ascending core order.
    fn iter(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.node[self.node.len() / 2..].iter().copied().filter(|&(t, _)| t != NOT_WAITING)
    }

    /// The cores waiting at exactly `time`, in ascending core order.
    fn tied_at(&self, time: u64) -> Vec<usize> {
        self.iter().filter(|&(t, _)| t == time).map(|(_, c)| c).collect()
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
    /// Core picked for the token but not yet resumed: set by `pick_next`,
    /// cleared by the picked core when it wakes up in `enter`. From then on
    /// `running > 0` is what keeps a second pick from happening.
    current: Option<usize>,
    poisoned: bool,
    reason: Option<PoisonReason>,
    cores: Vec<CoreState>,
    /// Host thread driving each core — its own on the thread backend, the
    /// launcher on the fiber backend — registered on the core's first
    /// blocking `enter`. A hand-off to another host thread uses
    /// `Thread::unpark` *after* the sequencer lock is released: waking a
    /// core through a condvar while still holding the lock made the woken
    /// thread contend on it (an extra futex round trip and context switch
    /// per handoff on a loaded host).
    threads: Vec<Option<std::thread::Thread>>,
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
    watchdog: Option<WatchdogConfig>,
    /// Grants since the last progress mark (watchdog budget counter).
    since_progress: AtomicU64,
    /// Total grants over the run (wall-clock stall discriminator + stats).
    /// Written only under the sequencer lock (a plain load + store, no
    /// locked read-modify-write); atomic so the wall-clock monitor and the
    /// ports' grant stamps can read it without the lock.
    total_grants: AtomicU64,
    /// Grants taken through the inline fast re-grant path (no waiting-set
    /// churn, no hand-off), written like `total_grants` — including polls
    /// served in place where the poller's own `enter` would have taken it.
    /// Diagnostic for the perf harness: the fraction of sequenced ops whose
    /// grantee was the sole runner and ahead of every waiter.
    fast_grants: AtomicU64,
    /// Host-level liveness ticks from purely local *productive* work
    /// (compute/memory charging between sequenced ops). Only bumped while a
    /// watchdog is armed. The wall-clock fallback requires *both* this and
    /// `total_grants` to stand still for a full window before poisoning, so
    /// a slow-but-progressing run on an overloaded host (long local
    /// compute, no grants) is never killed. Idle charges deliberately do
    /// not count: an idle-spinning core is waiting on sequenced state,
    /// which cannot change without a grant, so idle loops with zero grants
    /// are a real deadlock and must still trip.
    activity: AtomicU64,
    /// Lock-free mirror of `Inner::poisoned`, so cores spinning in purely
    /// local operations (which never take the sequencer lock) can still
    /// observe the poison and unwind.
    poison_flag: AtomicBool,
    /// Fiber-backend contexts: when set, every core is a stackful fiber on
    /// the launcher's host thread, and a blocked `enter` *switches stacks*
    /// instead of parking — a hand-off is a user-space switch, no futex, no
    /// kernel context switch. `None` is the thread backend. Grant selection
    /// is the single global `(time, core)` minimum either way, so both
    /// backends produce the identical sequenced-op stream (pinned by the
    /// golden hashes).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fibers: Option<FiberRt>,
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
    /// Creates a sequencer for `num_cores` cores, all initially running,
    /// that owns the sequenced `state`.
    pub fn new(num_cores: usize, state: S) -> Self {
        assert!(num_cores > 0);
        Sequencer {
            inner: Mutex::new(Inner {
                state,
                waiting: WaitTree::new(num_cores),
                parked: vec![None; num_cores],
                in_place_grants: 0,
                running: num_cores,
                current: None,
                poisoned: false,
                reason: None,
                cores: vec![CoreState::default(); num_cores],
                threads: (0..num_cores).map(|_| None).collect(),
                op_hash: FNV_OFFSET,
                script: None,
            }),
            watchdog: None,
            since_progress: AtomicU64::new(0),
            total_grants: AtomicU64::new(0),
            fast_grants: AtomicU64::new(0),
            activity: AtomicU64::new(0),
            poison_flag: AtomicBool::new(false),
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            fibers: None,
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

    /// Arms the liveness watchdog. Must be called before core threads
    /// start. Every backend supports it: the grant budget is checked by
    /// whichever core grants, and the wall-clock fallback runs on a monitor
    /// thread of its own (`watch_wall_clock`, started by `run_system`).
    pub fn set_watchdog(&mut self, config: WatchdogConfig) {
        assert!(config.budget > 0, "watchdog budget must be positive");
        self.watchdog = Some(config);
    }

    /// Switches this sequencer to the fiber backend, whose contexts `rt`
    /// holds. Must be called before the run starts.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn set_fiber_backend(&mut self, rt: FiberRt) {
        self.fibers = Some(rt);
    }

    /// The fiber-backend runtime, if this sequencer uses fibers.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn fiber_rt(&self) -> Option<&FiberRt> {
        self.fibers.as_ref()
    }

    /// The watchdog's wall-clock fallback: the body of the monitor thread
    /// `run_system` starts when a watchdog is armed. Until `stop` is set
    /// (the owner then unparks this thread), it compares the liveness
    /// counters across one `wall_ms` window at a time; a window in which
    /// nothing was granted anywhere AND no core did any productive local
    /// work, while some core waits for the token, means the run is stuck,
    /// not slow. The trip poisons without panicking: the woken cores' own
    /// `enter` assertions (and the poison poll of purely local spinners)
    /// raise the panics `run_system` reports as a watchdog diagnostic
    /// bundle, so the same monitor serves every backend — including a
    /// single-thread fiber run, which has no second core thread to observe
    /// the stall from.
    pub(crate) fn watch_wall_clock(&self, stop: &AtomicBool) {
        let Some(wd) = self.watchdog else { return };
        let window = Duration::from_millis(wd.wall_ms);
        let liveness =
            || (self.total_grants.load(Ordering::Relaxed), self.activity.load(Ordering::Relaxed));
        while !stop.load(Ordering::Acquire) {
            let before = liveness();
            let t0 = Instant::now();
            std::thread::park_timeout(window);
            if t0.elapsed() < window || liveness() != before {
                continue;
            }
            let mut g = self.inner.lock();
            if g.poisoned {
                return;
            }
            // Only a core still waiting for the token can be stuck: with
            // the waiting set empty (or its one member already picked and
            // about to wake) the run is starting up, finishing, or busy in
            // host code nobody is blocked on.
            let current = g.current;
            let stuck = g.waiting.iter().filter(|&(_, c)| current != Some(c)).min();
            if let Some((time, core)) = stuck {
                self.poison_locked(&mut g, PoisonReason::Watchdog { core, time });
                return;
            }
        }
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
        let candidates = inner.waiting.tied_at(min_time);
        if candidates.len() < 2 {
            return Some(first);
        }
        let st = inner.script.as_mut().expect("scripted pick without a script");
        let idx = st.script.get(st.pos).map_or(0, |&i| (i as usize).min(candidates.len() - 1));
        st.pos += 1;
        let chosen = candidates[idx];
        st.choices.push(ChoicePoint { time: min_time, candidates, chosen: idx as u32 });
        Some(chosen)
    }

    /// Whether a sole running `core` entering at `time` is granted inline:
    /// every waiter sits at a later `(time, core)`, so a pick would hand
    /// the token right back. Under `Scripted`, a time tie with the earliest
    /// waiter is a choice point the script decides and the run records, so
    /// only a strictly earlier time qualifies; `MinCore` can take the tie —
    /// `(time, core) < min` already encodes its lowest-core-id rule.
    fn regrant_ok(g: &Inner<S>, core: usize, time: u64) -> bool {
        g.waiting.first().is_none_or(|min| {
            if g.script.is_none() {
                (time, core) < min
            } else {
                time < min.0
            }
        })
    }

    /// The one pick loop, run by `enter`, `park_poll` and `retire` whenever
    /// no core runs and none is picked: decides which core resumes next and
    /// marks it picked. On the way it serves every parked poll that
    /// provably needs no core, stepping the poller through exactly what its
    /// own `enter` calls would have done: picked out of the waiting set, its
    /// poll is a hand-off grant; from then on it is the sole running core,
    /// and each next poll is a fast re-grant while it stays ahead of every
    /// other waiter and a wait in the set once it does not. `runner` on
    /// entry is a core parking with its first poll eligible for the fast
    /// re-grant.
    ///
    /// A served poller is re-keyed at once (one replay per poll, and the
    /// waiting set is accurate whenever anyone looks): it has stayed ahead
    /// exactly if it is still the set's minimum — alone at its time, under
    /// `Scripted`.
    fn dispatch(&self, g: &mut Inner<S>, runner: Option<usize>) -> Option<usize> {
        debug_assert!(g.running == 0 && g.current.is_none());
        let mut regranted = runner;
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
            let ahead = g.waiting.first() == Some((time, core))
                && (g.script.is_none() || g.waiting.tied_at(time).len() == 1);
            regranted = ahead.then_some(core);
        }
    }

    /// Grants `core`'s next poll right here if `core` is parked and the
    /// poll needs nobody: it observes nothing, the loop goes on after it,
    /// and nothing must happen on the core at this grant — no heartbeat
    /// publishes its counters, and the watchdog budget does not run out
    /// (the trip is the grantee's to raise).
    fn serve_in_place(&self, g: &mut Inner<S>, core: usize) -> bool {
        let Some(p) = g.parked[core] else { return false };
        let budget_spent = self
            .watchdog
            .is_some_and(|wd| self.since_progress.load(Ordering::Relaxed) >= wd.budget);
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
        g.cores[core].grants += 1;
        g.cores[core].last_time = time;
        g.op_hash = fold_grant(g.op_hash, time, core);
        let total = bump(&self.total_grants);
        if let Some(wd) = self.watchdog {
            let since = self.since_progress.fetch_add(1, Ordering::Relaxed) + 1;
            if since > wd.budget {
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
        let cores: Vec<CoreBeat> = (g.cores.iter().enumerate())
            .map(|(core, s)| CoreBeat {
                grants: s.grants,
                last_time: s.last_time,
                retired: s.retired,
                waiting_at: g.waiting.waiting_at(core),
            })
            .collect();
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
    /// and wakes every host thread so parked cores observe the poison and
    /// unwind.
    fn poison_locked(&self, g: &mut Inner<S>, reason: PoisonReason) {
        g.poisoned = true;
        g.reason.get_or_insert(reason);
        self.poison_flag.store(true, Ordering::Relaxed);
        for t in g.threads.iter().flatten() {
            t.unpark();
        }
    }

    /// Poisons with a watchdog reason and panics on the calling thread.
    fn trip(&self, g: &mut Inner<S>, core: usize, time: u64) -> ! {
        self.poison_locked(g, PoisonReason::Watchdog { core, time });
        panic!("{WATCHDOG_MSG} (tripped on core {core} at cycle {time})");
    }

    /// First half of a token hand-off, and the one step of `enter` and
    /// `retire` that knows the backend: releases the sequencer lock and
    /// makes the dispatched core `next` runnable. On the thread backend its
    /// thread is unparked — strictly after the lock release, so the woken
    /// thread never contends on it. A fiber cannot be woken, only switched
    /// to: it is returned for the caller's yield.
    #[must_use]
    fn wake(&self, g: MutexGuard<'_, Inner<S>>, next: Option<usize>) -> Option<usize> {
        let next = next?;
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if self.fibers.is_some() {
            return Some(next);
        }
        let t = g.threads[next].clone().expect("waiting core has registered its host thread");
        drop(g);
        t.unpark();
        None
    }

    /// Second half of a hand-off: gives up the host thread until someone
    /// hands the token to `core`. A thread parks; a fiber switches stacks,
    /// to the fiber [`Sequencer::wake`] returned or else to the launcher
    /// (which starts the remaining fibers during start-up and drains them
    /// under poison).
    #[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), allow(unused_variables))]
    fn yield_host(&self, core: usize, local: Option<usize>) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(rt) = &self.fibers {
            let to = local.map_or(FiberId::Launcher, FiberId::Core);
            // SAFETY: `core` is the fiber executing on this host thread and
            // the caller holds no lock guard. `local` is a live suspended
            // waiter (it sits in the waiting set), and the launcher is
            // suspended whenever a fiber runs; all share this thread's
            // `FiberRt`.
            unsafe { rt.switch(FiberId::Core(core), to) };
            return;
        }
        debug_assert!(local.is_none(), "the thread backend never switches stacks");
        std::thread::park();
    }

    /// The checks every entry starts with, before anything is touched: the
    /// time is one the waiting set can hold, and the run is not poisoned.
    fn lock_to_enter(&self, core: usize, time: u64) -> MutexGuard<'_, Inner<S>> {
        assert!(
            time != NOT_WAITING,
            "core {core} entered the sequencer at cycle u64::MAX, which the waiting set reserves"
        );
        let g = self.inner.lock();
        assert!(!g.poisoned, "{}", POISON_MSG);
        g
    }

    /// Waits until `core` — which has just stopped running — is the picked
    /// core or the run is poisoned: hands the token on whenever nothing runs
    /// and nothing is picked, and yields the host thread in between.
    /// `runner` is passed on to the first `dispatch`.
    fn await_pick<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner<S>>,
        core: usize,
        mut runner: Option<usize>,
    ) -> MutexGuard<'a, Inner<S>> {
        while g.current != Some(core) && !g.poisoned {
            // `running > 0` means another core still executes or, on the
            // fiber backend, is yet to be started by the launcher.
            let next = if g.running == 0 && g.current.is_none() {
                self.dispatch(&mut g, runner.take())
            } else {
                None
            };
            if next == Some(core) {
                break; // re-granted ourselves
            }
            let local = self.wake(g, next);
            self.yield_host(core, local);
            g = self.inner.lock();
        }
        g
    }

    /// The picked `core` resumes: the pick is consumed, and counting as
    /// running again is what now keeps anyone else from being picked.
    fn resume(g: &mut Inner<S>, core: usize) {
        g.current = None;
        g.waiting.set(core, NOT_WAITING);
        g.running += 1;
    }

    /// Blocks until `core` (at simulated time `time`) holds the global
    /// minimum and is granted the token, then returns the sequenced section
    /// it now holds.
    ///
    /// # Panics
    ///
    /// Panics if the simulation was poisoned by a panic on another core, if
    /// the armed watchdog finds the simulation stuck, or if `time` is
    /// `u64::MAX` (reserved by the waiting set).
    pub fn enter(&self, core: usize, time: u64) -> Section<'_, S> {
        let mut g = self.lock_to_enter(core, time);
        // Fast re-grant: this core is the only one running, no picked core
        // is yet to resume, and every parked core waits at a later
        // `(time, core)` — dispatch would pick this core right back. Grant
        // inline and skip the waiting-set churn and park/unpark round trip
        // entirely (the lock is simply kept for the section). This is the
        // steady state of steal-free inner loops.
        if g.running == 1 && g.current.is_none() && Self::regrant_ok(&g, core, time) {
            bump(&self.fast_grants);
        } else {
            // Slow path: join the waiting set, and until the token comes
            // back hand it to the minimum waiter (when this core was the
            // last one running) and yield the host thread.
            if g.threads[core].is_none() {
                g.threads[core] = Some(std::thread::current());
            }
            g.waiting.set(core, time);
            g.running -= 1;
            g = self.await_pick(g, core, None);
            assert!(!g.poisoned, "{}", POISON_MSG);
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
    /// `Err(served)` instead of a poison panic: the run is poisoned, and the
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
        if g.threads[core].is_none() {
            g.threads[core] = Some(std::thread::current());
        }
        g.parked[core] = Some(Parked { plan, op, time, served: 0 });
        // The first poll is stepped by `dispatch` like every later one: as
        // the sole runner's fast re-grant where `enter` would take one, out
        // of the waiting set otherwise.
        let sole = g.running == 1 && g.current.is_none();
        let runner = (sole && Self::regrant_ok(&g, core, time)).then_some(core);
        if runner.is_none() {
            g.waiting.set(core, time);
        }
        g.running -= 1;
        g = self.await_pick(g, core, runner);
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
        let _ = self.retire_and_wake(core);
    }

    /// Fiber-backend retirement: [`Sequencer::retire`], plus where the
    /// finished fiber must switch next — the dispatched minimum waiter,
    /// else the launcher (none exists: start-up still in progress, run
    /// over, or poison drain in progress). The caller performs the switch
    /// after storing its report, because nothing else runs on its host
    /// thread until it yields.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn retire_fiber_target(&self, core: usize) -> FiberId {
        self.retire_and_wake(core).map_or(FiberId::Launcher, FiberId::Core)
    }

    /// Retirement bookkeeping shared by every backend; returns what
    /// [`Sequencer::wake`] returns.
    fn retire_and_wake(&self, core: usize) -> Option<usize> {
        let mut g = self.inner.lock();
        g.cores[core].retired = true;
        if g.poisoned {
            return None;
        }
        g.running -= 1;
        let next =
            if g.running == 0 && g.current.is_none() { self.dispatch(&mut g, None) } else { None };
        self.wake(g, next)
    }

    /// Resets the watchdog's no-progress counter. Called by the runtime
    /// whenever real forward progress happens (a task ran, a steal
    /// completed, completion was signalled). Free when no watchdog is
    /// armed.
    pub fn mark_progress(&self) {
        if self.watchdog.is_some() {
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
    /// waiting core so its `enter` panics too, unwinding all threads.
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

    /// Records liveness evidence from a purely local *productive* charge
    /// (compute, memory, ULI work — anything but idling), feeding the
    /// wall-clock fallback's activity discriminator. Free when no watchdog
    /// is armed. Callers must not report idle charges: idle cycles only
    /// pass while waiting for sequenced state, which cannot change without
    /// a grant, so an idle spinner with zero grants is genuinely stuck.
    pub(crate) fn note_local_progress(&self) {
        if self.watchdog.is_some() {
            self.activity.fetch_add(1, Ordering::Relaxed);
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
        let g = self.inner.lock();
        g.cores
            .iter()
            .enumerate()
            .map(|(core, s)| SeqCoreDiag {
                waiting_at: g.waiting.waiting_at(core),
                grants: s.grants,
                last_time: s.last_time,
                retired: s.retired,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Three cores perform interleaved sequenced ops; the observed global
    /// order must be exactly ascending (time, core).
    #[test]
    fn grants_follow_time_order() {
        let seq = Arc::new(Sequencer::new(3, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in 0..3usize {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
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
        let seq = Sequencer::new(1, ());
        for t in 0..10 {
            drop(seq.enter(0, t));
        }
        seq.retire(0);
    }

    #[test]
    fn retire_unblocks_waiters() {
        let seq = Arc::new(Sequencer::new(2, ()));
        let seq2 = Arc::clone(&seq);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
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
        let seq = Arc::new(Sequencer::new(2, ()));
        let seq2 = Arc::clone(&seq);
        let h = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(seq2.enter(1, 42));
            }));
            assert!(r.is_err(), "poisoned enter must panic");
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        seq.poison();
        h.join().unwrap();
        assert!(seq.is_poisoned());
        assert_eq!(seq.poison_reason(), Some(PoisonReason::WorkerPanic));
    }

    #[test]
    fn ties_break_by_core_id() {
        let seq = Arc::new(Sequencer::new(2, ()));
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
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
        let seq = Arc::new(Sequencer::new(2, ()));
        seq.set_policy(policy);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for core in [1usize, 0usize] {
            let seq = Arc::clone(&seq);
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
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
            let seq = Sequencer::new(1, ());
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
        let mut seq = Sequencer::new(1, ());
        seq.set_watchdog(WatchdogConfig { budget: 10, wall_ms: 60_000 });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for t in 0..100 {
                drop(seq.enter(0, t));
            }
        }));
        let err = r.expect_err("budget of 10 must trip within 100 grants");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(WATCHDOG_MSG), "got: {msg}");
        assert!(matches!(seq.poison_reason(), Some(PoisonReason::Watchdog { core: 0, .. })));
    }

    #[test]
    fn progress_marks_keep_watchdog_quiet() {
        let mut seq = Sequencer::new(1, ());
        seq.set_watchdog(WatchdogConfig { budget: 10, wall_ms: 60_000 });
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

    /// Drives the monitor function directly, as `run_system`'s monitor
    /// thread does: it must stay quiet while nobody waits, trip once a core
    /// has waited a whole window with nothing granted, and wake that core
    /// into a poison panic.
    #[test]
    fn wall_clock_fallback_trips_when_nothing_is_granted() {
        let mut seq = Sequencer::new(2, ());
        seq.set_watchdog(WatchdogConfig { budget: 1_000_000, wall_ms: 30 });
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| seq.watch_wall_clock(&stop));
            // Several windows with an empty waiting set: a run that is
            // starting up (or busy in host code) is not stuck.
            std::thread::sleep(Duration::from_millis(100));
            assert!(!seq.is_poisoned(), "no core waits yet, so nothing can be stuck");
            // Core 1 parks; core 0 never enters or retires (simulating a
            // core stuck in host-level code while holding the logical
            // token).
            let r =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(seq.enter(1, 7))));
            assert!(r.is_err(), "stalled run must trip the wall-clock fallback");
            monitor.join().expect("the monitor returns once it has tripped");
        });
        assert_eq!(seq.poison_reason(), Some(PoisonReason::Watchdog { core: 1, time: 7 }));
    }

    /// The owner's stop request ends the monitor promptly, mid-window.
    #[test]
    fn wall_clock_monitor_stops_on_request() {
        let mut seq = Sequencer::new(1, ());
        seq.set_watchdog(WatchdogConfig { budget: 1_000_000, wall_ms: 60_000 });
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| seq.watch_wall_clock(&stop));
            stop.store(true, Ordering::Release);
            monitor.thread().unpark();
        });
        assert!(!seq.is_poisoned());
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
                        tree.set(core, NOT_WAITING);
                        assert!(oracle.remove(&(t, core)));
                    }
                    None => {
                        // Four distinct times, one of them the largest a
                        // core can wait at (one below the padding leaves').
                        let t = [5, 6, 7, NOT_WAITING - 1][rng.next_below(4) as usize];
                        tree.set(core, t);
                        assert!(oracle.insert((t, core)));
                    }
                }
                let ctx = format!("{n} cores, step {step}");
                assert_eq!(tree.first(), oracle.first().copied(), "{ctx}");
                let mut waiters: Vec<_> = tree.iter().collect();
                assert!(waiters.iter().all(|&(_, c)| c < n), "padding leaf surfaced: {ctx}");
                waiters.sort_unstable();
                assert!(waiters.iter().eq(oracle.iter()), "{ctx}");
                if let Some(&(min, _)) = oracle.first() {
                    let tied: Vec<usize> =
                        oracle.iter().take_while(|&&(t, _)| t == min).map(|&(_, c)| c).collect();
                    assert_eq!(tree.tied_at(min), tied, "{ctx}");
                }
            }
        }
    }

    /// `u64::MAX` is the tree's "not waiting" mark: entering at it must be
    /// refused before the waiting set (or anything else) is touched.
    #[test]
    fn enter_at_u64_max_is_rejected_up_front() {
        let seq = Sequencer::new(2, ());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(seq.enter(0, u64::MAX));
        }));
        let msg = *r.expect_err("u64::MAX is not a time").downcast::<String>().unwrap();
        assert!(msg.contains("u64::MAX"), "got: {msg}");
        assert!(!seq.is_poisoned());
        assert_eq!(seq.core_diag()[0].waiting_at, None);
        assert_eq!(seq.total_grants(), 0);
        // The sequencer is untouched: the run goes on.
        seq.retire(1);
        drop(seq.enter(0, u64::MAX - 1));
        assert_eq!(seq.total_grants(), 1);
    }

    /// Non-power-of-two core counts pad the tree with leaves that wait at
    /// `u64::MAX`; the last real core waiting at the largest legal time must
    /// still beat them, and an empty set must report no winner.
    #[test]
    fn padding_leaves_never_win() {
        for n in [1usize, 3, 65, 1000] {
            let seq = Sequencer::new(n, ());
            let mut g = seq.inner.lock();
            assert_eq!(g.waiting.first(), None, "{n} cores");
            g.waiting.set(n - 1, u64::MAX - 1);
            assert_eq!(g.waiting.first(), Some((u64::MAX - 1, n - 1)), "{n} cores");
            assert_eq!(g.waiting.iter().count(), 1, "{n} cores");
            g.waiting.set(n - 1, NOT_WAITING);
            assert_eq!(g.waiting.first(), None, "{n} cores");
        }
    }

    #[test]
    fn core_diag_reflects_state() {
        let seq = Sequencer::new(2, ());
        // Core 1 retires first so core 0's enter can be granted.
        seq.retire(1);
        drop(seq.enter(0, 7));
        let d = seq.core_diag();
        assert_eq!(d[0].grants, 1);
        assert_eq!(d[0].last_time, 7);
        assert!(!d[0].retired);
        assert!(d[1].retired);
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
        let seq = Arc::new(Sequencer::new(4, Flags::default()));
        let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let (seq, log) = (&seq, &log);
            scope.spawn(move || {
                let plan = PollPlan { requests: true, deadline: None };
                let stopped = poll_until_stopped(seq, how, 0, plan, (PollOp::Response, 5), log);
                assert_eq!(stopped.0, PollOp::Response, "only a response ends this wait");
                seq.retire(0);
            });
            for core in 1..4usize {
                scope.spawn(move || {
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
        let seq = Arc::new(Sequencer::new(2, ()));
        seq.set_policy(SchedulePolicy::Scripted(script));
        let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|scope| {
            let (seq, log) = (&seq, &log);
            scope.spawn(move || {
                let plan = PollPlan { requests: true, deadline: Some(7) };
                let stopped = poll_until_stopped(seq, how, 0, plan, (PollOp::Response, 5), log);
                assert_eq!(stopped, (PollOp::Done, 6));
                seq.retire(0);
            });
            scope.spawn(move || {
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
    /// is raised by the poller itself with the text its own `enter` would
    /// have produced.
    #[test]
    fn grant_budget_trips_on_the_parked_core_with_the_same_text() {
        let trip = |how: Polling| {
            let mut seq = Sequencer::new(2, ());
            seq.set_watchdog(WatchdogConfig { budget: 25, wall_ms: 60_000 });
            seq.retire(1);
            let log: GrantLog = Arc::new(Mutex::new(Vec::new()));
            let plan = PollPlan { requests: true, deadline: None };
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                poll_until_stopped(&seq, how, 0, plan, (PollOp::Response, 3), &log)
            }));
            let msg = *r.expect_err("nothing ever answers").downcast::<String>().unwrap();
            (msg, seq.poison_reason(), seq.total_grants(), seq.in_place_grants())
        };
        let (enter_msg, enter_reason, enter_total, _) = trip(Polling::PerOpEnter);
        let (park_msg, park_reason, park_total, in_place) = trip(Polling::Parked);
        assert!(enter_msg.contains(WATCHDOG_MSG), "got: {enter_msg}");
        assert!(enter_msg.contains("tripped on core 0 at cycle "), "got: {enter_msg}");
        assert_eq!(park_msg, enter_msg);
        assert_eq!(park_reason, enter_reason);
        assert!(matches!(park_reason, Some(PoisonReason::Watchdog { core: 0, .. })));
        assert_eq!(park_total, enter_total);
        assert_eq!(in_place, 25, "the whole budget was served in place; the trip was not");
    }

    /// Poison while parked unwinds the parked core — with the number of
    /// polls served before it, so the core can still account for them.
    #[test]
    fn poison_while_parked_returns_the_served_polls() {
        let seq = Arc::new(Sequencer::new(2, ()));
        let plan = PollPlan { requests: false, deadline: None };
        let (served, in_place, waiting_at) = std::thread::scope(|scope| {
            let seq = &seq;
            let poller = scope.spawn(move || seq.park_poll(1, 42, plan, PollOp::Response).err());
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
}
