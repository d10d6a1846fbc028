//! Deterministic min-time token sequencing of simulated cores.
//!
//! Each simulated core keeps a real call stack, so arbitrarily nested task
//! execution just works: a stackful fiber on the fiber backend (every core
//! of an *island* multiplexed on one host thread — one island for
//! `fibers`, one per mesh quadrant for `sharded-fibers`), or an OS thread
//! of its own on the portable thread backend. Either way **at most one
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
    /// Cores blocked in `enter`.
    waiting: WaitTree,
    /// Cores currently executing user code (not waiting, not retired).
    running: usize,
    /// Core picked for the token but not yet resumed: set by `pick_next`,
    /// cleared by the picked core when it wakes up in `enter`. From then on
    /// `running > 0` is what keeps a second pick from happening.
    current: Option<usize>,
    poisoned: bool,
    reason: Option<PoisonReason>,
    cores: Vec<CoreState>,
    /// Host thread driving each core — its own on the thread backend, its
    /// island's launcher on the fiber backend — registered on the core's
    /// first blocking `enter`. A hand-off to another host thread uses
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
    /// churn, no condvar), written like `total_grants`. Diagnostic for the
    /// perf harness: fast-path hit rate is the fraction of sequenced ops
    /// that avoid the parked path.
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
    /// Fiber-backend contexts: when set, cores are stackful fibers
    /// partitioned into islands, each island driven by one host thread
    /// (see [`ShardedRt`]), and a blocked `enter` *switches stacks* instead
    /// of parking. Same-island handoffs are user-space switches — no
    /// futex, no kernel context switch; cross-island handoffs unpark the
    /// target island's launcher thread. `None` is the thread backend.
    /// Grant selection is the single global `(time, core)` minimum either
    /// way, so every backend produces the identical sequenced-op stream
    /// (pinned by the golden hashes).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    sharded: Option<ShardedRt>,
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

/// Runtime state of the fiber backend: the island partition and one
/// [`FiberRt`] per island. One island holding every core is the
/// single-thread `fibers` backend; mesh-quadrant islands are
/// `sharded-fibers`.
///
/// Each island's `FiberRt` is touched only by that island's host thread
/// (its launcher and its own fibers); the sequencer lock serializes
/// everything else. The conservative cross-island lookahead derived from
/// mesh hop latency is carried along as the bound a relaxed (non-bit-exact)
/// mode could exploit — see DESIGN.md.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[derive(Debug)]
pub(crate) struct ShardedRt {
    /// Island index of each core.
    island_of: Vec<usize>,
    /// Per-island fiber runtimes. Each is sized for *global* core ids so
    /// no id translation happens on the switch path; only the island's own
    /// slots are ever used.
    rts: Vec<FiberRt>,
    /// Minimum cross-island mesh latency in cycles: no interaction between
    /// islands can land earlier than this after it was initiated (0 with a
    /// single island: there is no cross-island pair).
    lookahead: u64,
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
impl ShardedRt {
    /// Builds the runtime for `islands` (a partition of `0..num_cores`).
    pub(crate) fn new(islands: &[Vec<usize>], num_cores: usize, lookahead: u64) -> Self {
        let mut island_of = vec![usize::MAX; num_cores];
        for (idx, isl) in islands.iter().enumerate() {
            for &c in isl {
                island_of[c] = idx;
            }
        }
        assert!(island_of.iter().all(|&i| i != usize::MAX), "islands must partition the cores");
        ShardedRt {
            island_of,
            rts: (0..islands.len()).map(|_| FiberRt::new(num_cores)).collect(),
            lookahead,
        }
    }

    /// Island index of `core`.
    pub(crate) fn island_of(&self, core: usize) -> usize {
        self.island_of[core]
    }

    /// The fiber runtime of `island`.
    pub(crate) fn rt(&self, island: usize) -> &FiberRt {
        &self.rts[island]
    }

    /// Number of islands.
    pub(crate) fn num_islands(&self) -> usize {
        self.rts.len()
    }
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

impl<S> Sequencer<S> {
    /// Creates a sequencer for `num_cores` cores, all initially running,
    /// that owns the sequenced `state`.
    pub fn new(num_cores: usize, state: S) -> Self {
        assert!(num_cores > 0);
        Sequencer {
            inner: Mutex::new(Inner {
                state,
                waiting: WaitTree::new(num_cores),
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
            sharded: None,
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

    /// Switches this sequencer to the fiber backend over the island
    /// partition in `rt`. Must be called before the run starts.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn set_sharded_backend(&mut self, rt: ShardedRt) {
        self.sharded = Some(rt);
    }

    /// The fiber-backend runtime, if this sequencer uses fibers.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn sharded_rt(&self) -> Option<&ShardedRt> {
        self.sharded.as_ref()
    }

    /// The core picked for the token and not yet resumed, if it belongs to
    /// `island`. Island launchers poll this after an unpark to learn
    /// whether a cross-island handoff dispatched one of their fibers. Sound
    /// to act on: a picked core of this island can only be *suspended*
    /// while its launcher executes (fibers of an island never run
    /// concurrently with their launcher).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    pub(crate) fn granted_core_on_island(&self, island: usize) -> Option<usize> {
        let g = self.inner.lock();
        let sh = self.sharded.as_ref()?;
        match g.current {
            Some(c) if sh.island_of[c] == island => Some(c),
            _ => None,
        }
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
    /// single grant-selection rule shared by every execution backend, so
    /// threads, fibers, and sharded fibers produce the identical op
    /// stream. Under [`SchedulePolicy::MinCore`] a time tie goes to the
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

    /// Per-grant bookkeeping: stats, the op-stream hash fold, and the
    /// watchdog budget check. Shared by the parked and fast re-grant paths
    /// so both produce the identical op stream.
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
        let islands = self.island_times(&cores);
        let snap = HeartbeatSnap::new(
            total / hb.config.every,
            time,
            total,
            self.fast_grants.load(Ordering::Relaxed),
            Some(hb.live.as_ref()),
            cores,
            islands,
        );
        (hb.config.sink)(&snap);
        self.inner.lock()
    }

    /// Per-island maximum granted time of a multi-island fiber run (empty
    /// elsewhere: one island has no peer to lead or lag).
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn island_times(&self, cores: &[CoreBeat]) -> Vec<u64> {
        let Some(sh) = self.sharded.as_ref().filter(|sh| sh.num_islands() > 1) else {
            return Vec::new();
        };
        let mut out = vec![0u64; sh.num_islands()];
        for (core, beat) in cores.iter().enumerate() {
            let isl = sh.island_of(core);
            out[isl] = out[isl].max(beat.last_time);
        }
        out
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    fn island_times(&self, _cores: &[CoreBeat]) -> Vec<u64> {
        Vec::new()
    }

    /// Marks the simulation failed for `reason` (the first reason sticks)
    /// and wakes every host thread so parked cores and launchers observe
    /// the poison and unwind.
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

    /// Whether cores `a` and `b` are fibers of one island, multiplexed on
    /// the same host thread (never, on the thread backend).
    #[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), allow(unused_variables))]
    fn same_island(&self, a: usize, b: usize) -> bool {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(sh) = &self.sharded {
            return sh.island_of[a] == sh.island_of[b];
        }
        false
    }

    /// First half of a token hand-off, and the one step of `enter` and
    /// `retire` that knows the backend: releases the sequencer lock and
    /// makes the dispatched core `next` runnable. A core on another host
    /// thread (every core, on the thread backend; another island's fiber)
    /// is unparked — strictly after the lock release, so the woken thread
    /// never contends on it. A fiber of `core`'s own island cannot be
    /// woken, only switched to: it is returned for the caller's yield.
    #[must_use]
    fn wake(&self, g: MutexGuard<'_, Inner<S>>, core: usize, next: Option<usize>) -> Option<usize> {
        let next = next?;
        if self.same_island(core, next) {
            return Some(next);
        }
        let t = g.threads[next].clone().expect("waiting core has registered its host thread");
        drop(g);
        t.unpark();
        None
    }

    /// Second half of a hand-off: gives up the host thread until someone
    /// hands the token to `core`. A thread parks; a fiber switches stacks,
    /// to the same-island fiber [`Sequencer::wake`] returned or else to its
    /// island launcher (which starts the remaining fibers during start-up
    /// and afterwards sleeps until a cross-island hand-off unparks it).
    #[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), allow(unused_variables))]
    fn yield_host(&self, core: usize, local: Option<usize>) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(sh) = &self.sharded {
            let to = local.map_or(FiberId::Launcher, FiberId::Core);
            // SAFETY: `core` is the fiber executing on this host thread and
            // the caller holds no lock guard. A same-island `local` is a
            // live suspended waiter (it sits in the waiting set), and the
            // island's launcher is suspended whenever one of its fibers
            // runs; both share this thread's `FiberRt`.
            unsafe { sh.rts[sh.island_of[core]].switch(FiberId::Core(core), to) };
            return;
        }
        debug_assert!(local.is_none(), "the thread backend never switches stacks");
        std::thread::park();
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
        assert!(
            time != NOT_WAITING,
            "core {core} entered the sequencer at cycle u64::MAX, which the waiting set reserves"
        );
        let mut g = self.inner.lock();
        assert!(!g.poisoned, "{}", POISON_MSG);
        // Fast re-grant: this core is the only one running, no picked core
        // is yet to resume, and every parked core waits at a later
        // `(time, core)` — dispatch would pick this core right back. Grant
        // inline and skip the waiting-set churn and park/unpark round trip
        // entirely (the lock is simply kept for the section). This
        // is the steady state of steal-free inner loops and serial phases.
        // Under `Scripted`, a time tie with the earliest waiter must fall
        // through to the slow path: the tie is a choice point the script
        // decides and the run records. `MinCore` can take the tie inline —
        // `(time, core) < min` already encodes its lowest-core-id rule.
        let fast_ok = if g.script.is_none() {
            g.waiting.first().is_none_or(|min| (time, core) < min)
        } else {
            g.waiting.first().is_none_or(|min| time < min.0)
        };
        let fast = g.running == 1 && g.current.is_none() && fast_ok;
        if fast {
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
            while g.current != Some(core) {
                assert!(!g.poisoned, "{}", POISON_MSG);
                // `running > 0` means another core still executes or, on
                // the fiber backend, is yet to be started by a launcher.
                let next = if g.running == 0 && g.current.is_none() {
                    Self::pick_next(&mut g)
                } else {
                    None
                };
                if next == Some(core) {
                    break; // re-granted ourselves
                }
                let local = self.wake(g, core, next);
                self.yield_host(core, local);
                g = self.inner.lock();
            }
            assert!(!g.poisoned, "{}", POISON_MSG);
            // Resumed: the pick is consumed, and counting as running again
            // is what now keeps anyone else from being picked.
            g.current = None;
            g.waiting.set(core, NOT_WAITING);
            g.running += 1;
        }
        if self.record_grant(&mut g, core, time) {
            g = self.emit_heartbeat(g, time);
        }
        Section { g }
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
    /// finished fiber must switch next — the dispatched minimum waiter if
    /// it shares the island, else the island launcher (a cross-island
    /// grantee was woken through its own launcher; or none exists: run
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
            if g.running == 0 && g.current.is_none() { Self::pick_next(&mut g) } else { None };
        self.wake(g, core, next)
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

    /// Conservative cross-island lookahead of a multi-island fiber run in
    /// cycles, or 0 elsewhere (one island, the thread backend, hosts
    /// without fiber support).
    pub fn sharded_lookahead(&self) -> u64 {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Some(sh) = &self.sharded {
            return sh.lookahead;
        }
        0
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
}
