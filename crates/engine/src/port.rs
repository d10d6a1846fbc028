//! The per-core operation interface.
//!
//! A [`CorePort`] is handed to each worker closure and is the only way to
//! act on the simulated machine: compute, loads/stores/AMOs on simulated
//! addresses, bulk cache operations, and user-level interrupts. Every
//! operation advances the core's local clock; operations on shared state are
//! serialized by the global [`Sequencer`](crate::sequencer::Sequencer) in
//! simulated-time order.
//!
//! **Locking discipline:** a sequenced operation may park the calling
//! thread until its simulated turn. Never hold a lock (or a guard
//! temporary) across a `CorePort` call — bind values out of guards first —
//! or a token holder blocking on that lock deadlocks the simulation. The
//! same rule binds the port itself: the [`Section`](crate::sequencer::Section)
//! guard a sequenced operation holds *is* the sequencer lock, so it is
//! dropped before a ULI handler is dispatched — the handler's own sequenced
//! operations re-enter the sequencer on this thread.
//!
//! ULIs are delivered at instruction boundaries: every sequenced operation
//! checks (inside the same critical section, at no extra cost) whether an
//! enabled ULI request has arrived, and if so invokes the installed handler
//! after charging the architectural interrupt cost.

use std::sync::Arc;

use bigtiny_coherence::Addr;
use bigtiny_mesh::{CoreSet, UliMessage, UliOutcome, XorShift64};

use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::config::{CoreKind, SystemConfig};
use crate::event::{MemEvent, MemOp, RacyTag, SyncNote};
use crate::fault::{FaultCounters, FaultState, UliSendFault};
use crate::flight::{FlightKind, FlightRing, LiveCounters};
use crate::sequencer::{PollOp, PollPlan, Section, POISON_MSG, POLL_SPIN_CYCLES};
use crate::system::{GlobalState, Shared};
use crate::trace::{UliMark, UliMarkKind};

/// A ULI handler installed by the runtime: invoked with the port and the
/// incoming request message (the thief's core id is `msg.from`).
pub type UliHandler = Box<dyn FnMut(&mut CorePort, UliMessage) + Send>;

/// Entries in each core's store buffer: stores retire into the buffer and
/// only stall the core when it is full (or at drain points: AMOs, flushes).
const STORE_BUFFER_ENTRIES: usize = 8;

/// Bound on coalesced-but-uncharged compute cycles. Coalescing defers the
/// bookkeeping of consecutive pure-compute advances, and the flush is also
/// where the poison flag is polled — so an unbounded accumulation on a core
/// with no ULI handler could spin forever in a poisoned run. The bound is
/// far above any real kernel's inter-operation compute stretch, so it only
/// exists as that safety valve.
const MAX_PENDING_COMPUTE: u64 = 4096;

/// How a wait for a ULI response ended ([`CorePort::uli_await_response`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UliWait {
    /// The response arrived.
    Response(UliMessage),
    /// The program signalled completion first.
    Done,
    /// The deadline passed with neither.
    TimedOut,
}

/// One contiguous stretch of a core's timeline attributed to a single task
/// (or to no task — scheduler time between tasks: steal loops, idling,
/// runtime bookkeeping). Recorded when [`crate::SystemConfig::attr`] is
/// armed; the spans of one core tile its timeline without gaps or overlap,
/// and each span carries the [`TimeBreakdown`] of exactly its interval, so
/// summing span breakdowns reproduces the core's report breakdown.
#[derive(Clone, Debug)]
pub struct AttrSpan {
    /// The task this interval's cycles belong to, or `None` for scheduler
    /// time outside any task body.
    pub task: Option<u32>,
    /// First cycle of the interval (inclusive).
    pub start: u64,
    /// One past the last cycle of the interval (`end - start` cycles).
    pub end: u64,
    /// Where the interval's cycles went; totals exactly `end - start`.
    pub breakdown: TimeBreakdown,
}

/// Recorder state for attribution spans: the open span's owner plus the
/// clock/breakdown snapshot at its start. Same zero-overhead discipline as
/// the trace buffer — snapshots are pure reads of already-computed values.
struct AttrState {
    current: Option<u32>,
    mark_clock: u64,
    mark_breakdown: TimeBreakdown,
    spans: Vec<AttrSpan>,
}

/// Handle through which a worker drives one simulated core.
pub struct CorePort {
    core: usize,
    kind: CoreKind,
    clock: u64,
    instructions: u64,
    /// Completion times of in-flight stores.
    store_buffer: std::collections::VecDeque<u64>,
    /// Compute cycles accumulated since the last ULI-delivery opportunity;
    /// long pure-compute stretches poll at this granularity so a core stays
    /// interruptible (ULIs are delivered at instruction granularity on real
    /// hardware).
    compute_since_poll: u64,
    /// Compute cycles accumulated by consecutive [`CorePort::advance`]
    /// calls but not yet folded into `clock`/`breakdown`/trace (compute
    /// coalescing). Flushed before anything observes the clock: sequenced
    /// ops, non-compute charges, store-buffer arithmetic, [`CorePort::now`],
    /// and the final report. Timing-invisible by construction — only the
    /// number of bookkeeping operations changes, never their sum.
    pending_compute: u64,
    breakdown: TimeBreakdown,
    trace: Option<Vec<crate::trace::TraceEvent>>,
    /// ULI protocol marks for the trace exporter's flow arrows, buffered
    /// only while tracing is enabled (same zero-overhead discipline as
    /// `trace`: disabled recording is one never-taken branch, and marks are
    /// stamped with cycles the simulation already computed).
    uli_marks: Option<Vec<UliMark>>,
    /// Checker event stream, buffered per core when a
    /// [`CheckMode`](crate::CheckMode) is armed. `None` (the default) makes
    /// every emission a single never-taken branch, so unarmed timing and
    /// grant streams are bit-for-bit unchanged. Each event carries the
    /// sequencer's grant counter at its sequenced operation (see
    /// `last_stamp`), letting the engine merge per-core buffers in true
    /// grant order even under a [`crate::SchedulePolicy::Scripted`] run,
    /// where time ties are not broken by core id.
    events: Option<Vec<(u64, MemEvent)>>,
    /// Sequencer grant counter captured inside the most recent sequenced
    /// section (where no other core can be granted, so the counter
    /// uniquely identifies this core's grant). Sync
    /// annotations and handler-entry events take the stamp of the
    /// operation they ride on.
    last_stamp: u64,
    /// Per-task attribution spans, buffered when
    /// [`crate::SystemConfig::attr`] is armed. `None` (the default) makes
    /// every switch/mark a single never-taken branch.
    attr: Option<AttrState>,
    /// The always-on flight recorder: the last N events on this core (see
    /// [`crate::flight`]). Observation-only — every hook records clocks and
    /// ids the simulation already computed, and a capacity-0 ring makes
    /// each hook a single never-taken branch — so recording can stay
    /// default-on without perturbing a single simulated cycle
    /// (golden-pinned by `armed_observability`).
    flight: FlightRing,
    /// Live-counter sink for the heartbeat, published at the top of every
    /// sequenced section (under the token). `None` unless a heartbeat is
    /// armed.
    live: Option<Arc<LiveCounters>>,
    rng: XorShift64,
    faults: FaultState,
    shared: Arc<Shared>,
    handler: Option<UliHandler>,
    in_handler: bool,
    num_cores: usize,
}

impl std::fmt::Debug for CorePort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorePort")
            .field("core", &self.core)
            .field("kind", &self.kind)
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl CorePort {
    /// The port of `core` in a system configured by `config`, with every
    /// recording channel the configuration arms. Built by the launching
    /// thread; the port then moves into the core's own thread or fiber.
    pub(crate) fn new(core: usize, config: &SystemConfig, shared: &Arc<Shared>) -> Self {
        let kind = config.cores[core].kind;
        CorePort {
            core,
            kind,
            clock: 0,
            instructions: 0,
            store_buffer: std::collections::VecDeque::new(),
            compute_since_poll: 0,
            pending_compute: 0,
            breakdown: TimeBreakdown::new(),
            trace: config.trace.then(Vec::new),
            uli_marks: config.trace.then(Vec::new),
            events: config.check.armed().then(Vec::new),
            last_stamp: 0,
            attr: config.attr.then(|| AttrState {
                current: None,
                mark_clock: 0,
                mark_breakdown: TimeBreakdown::new(),
                spans: Vec::new(),
            }),
            flight: FlightRing::new(config.flight_ring),
            live: shared.live.clone(),
            rng: XorShift64::new(config.seed ^ (core as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
            // Only tiny cores other than core 0 are crash-eligible: core 0
            // runs the program's root task, and the paper's big cores are
            // the reliable hosts of last resort.
            faults: FaultState::new(
                config.faults.clone(),
                core,
                kind == CoreKind::Tiny && core != 0,
            ),
            shared: Arc::clone(shared),
            handler: None,
            in_handler: false,
            num_cores: config.num_cores(),
        }
    }

    /// This core's id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Number of cores in the system.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// This core's microarchitecture class.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Current local simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.clock + self.pending_compute
    }

    /// Instructions retired so far (used for work/span accounting).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The accumulated execution-time breakdown, including compute cycles
    /// still coalesced (not yet folded into the clock).
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut b = self.breakdown;
        b.add(TimeCategory::Compute, self.pending_compute);
        b
    }

    /// Deterministic per-core random value in `0..bound`.
    pub fn rng_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Runs `f` on the global state under the token, delivering at most one
    /// pending ULI observed in the same critical section.
    fn seq<R>(&mut self, f: impl FnOnce(&mut GlobalState, u64, usize) -> R) -> R {
        self.seq_with(f, |_| None)
    }

    /// [`CorePort::seq`] plus checker-event emission: `op_of` maps the
    /// sequenced result to the event to record, evaluated only when events
    /// are armed. The event must be recorded *here* — after the grant,
    /// before any ULI delivered in the same critical section runs — or a
    /// handler's own events would precede the operation that admitted the
    /// interrupt, and the recorded cycle would include handler time.
    fn seq_with<R>(
        &mut self,
        f: impl FnOnce(&mut GlobalState, u64, usize) -> R,
        op_of: impl FnOnce(&R) -> Option<MemOp>,
    ) -> R {
        self.seq_in(None, f, op_of)
    }

    /// The body of every sequenced operation: [`CorePort::seq_with`] in the
    /// section it enters the sequencer for, or in one the caller already
    /// `held` for this operation at the current clock (a parked poll's
    /// wake-up grant — it must not borrow this port).
    #[inline]
    fn seq_in<R>(
        &mut self,
        held: Option<Section<'_, GlobalState>>,
        f: impl FnOnce(&mut GlobalState, u64, usize) -> R,
        op_of: impl FnOnce(&R) -> Option<MemOp>,
    ) -> R {
        self.flush_compute();
        let check_uli = self.takes_requests();
        let (r, msg) = {
            let mut st = match held {
                Some(st) => st,
                None => self.shared.seq.enter(self.core, self.clock),
            };
            self.flight.record(self.clock, FlightKind::Grant);
            if let Some(live) = &self.live {
                // Under the token: no other core can be granted until our
                // next `enter`, so heartbeat reads of these counters are a
                // deterministic function of the grant stream.
                live.publish(self.core, self.clock, &self.breakdown, &self.faults.counters);
            }
            if self.events.is_some() {
                // For the same reason the counter read here uniquely stamps
                // this sequenced operation with its global grant index.
                self.last_stamp = self.shared.seq.total_grants();
            }
            let r = f(&mut st, self.clock, self.core);
            let msg = if check_uli { st.uli.take_request(self.core, self.clock) } else { None };
            (r, msg)
        };
        if self.events.is_some() {
            if let Some(op) = op_of(&r) {
                self.emit(op);
            }
        }
        // Every sequenced operation is a ULI-delivery opportunity.
        self.compute_since_poll = 0;
        if let Some(m) = msg {
            // Fault injection: a taken request can be lost before the
            // handler sees it (a dropped interrupt).
            if !self.faults.on_uli_receive() {
                self.dispatch_uli(m);
            } else {
                self.flight.record(self.clock, FlightKind::FaultRxDrop);
            }
        }
        r
    }

    /// Whether a ULI request arriving now would be delivered at this core's
    /// next sequenced operation: a handler is installed and not running.
    fn takes_requests(&self) -> bool {
        self.handler.is_some() && !self.in_handler
    }

    fn dispatch_uli(&mut self, msg: UliMessage) {
        // Architectural interrupt cost: drain in-flight instructions and
        // vector to the user-level handler.
        let cost = self.kind.uli_cost();
        self.breakdown.add(TimeCategory::Uli, cost);
        self.clock += cost;
        self.mark_uli(self.clock, UliMarkKind::ReqRecv { from: msg.from });
        self.flight.record(self.clock, FlightKind::UliReqRecv { from: msg.from });
        self.emit(MemOp::Sync(SyncNote::HandlerEnter { from: msg.from }));
        let mut h = self.handler.take().expect("handler present when dispatching");
        self.in_handler = true;
        h(self, msg);
        self.in_handler = false;
        self.handler = Some(h);
    }

    /// Memory-stall latency as seen by this core: big out-of-order cores
    /// overlap part of every miss with independent work (but stall at
    /// least a cycle); tiny cores see the raw latency, even a zero one.
    fn mem_latency(&self, raw: u64) -> u64 {
        match self.kind {
            CoreKind::Big => (raw / CoreKind::Big.overlap_div()).max(1),
            CoreKind::Tiny => raw,
        }
    }

    fn charge(&mut self, cat: TimeCategory, cycles: u64) {
        self.flush_compute();
        self.charge_now(cat, cycles);
    }

    /// Folds any coalesced compute into the clock/breakdown/trace. Between
    /// the first deferred `advance` and this flush the clock never moves
    /// (every other charge flushes first), so the single merged trace event
    /// spans exactly the cycles the individual events would have.
    fn flush_compute(&mut self) {
        let pending = std::mem::take(&mut self.pending_compute);
        if pending > 0 {
            self.charge_now(TimeCategory::Compute, pending);
        }
    }

    fn charge_now(&mut self, cat: TimeCategory, cycles: u64) {
        if cycles > 0 {
            // A core looping on purely local time (back-off, spin-waits)
            // never takes the sequencer lock, so it must poll the poison
            // flag here or a poisoned run could not unwind it.
            if self.shared.seq.check_poison() {
                panic!("{}", POISON_MSG);
            }
            // Productive local cycles are liveness evidence for the
            // watchdog's wall-clock fallback; idle spinning is not (it only
            // waits on sequenced state, which needs a grant to change).
            if cat != TimeCategory::Idle {
                self.shared.seq.note_local_progress();
            }
        }
        self.book(cat, cycles);
    }

    /// Moves the clock by `cycles` spent in `cat`: trace event, breakdown,
    /// clock. Never panics and tells the watchdog nothing, so it is also
    /// how a core accounts for time after the fact (polls served in place,
    /// the terminal flush of a worker that has already unwound).
    fn book(&mut self, cat: TimeCategory, cycles: u64) {
        if cycles > 0 {
            if let Some(t) = self.trace.as_mut() {
                t.push(crate::trace::TraceEvent { start: self.clock, cycles, category: cat });
            }
        }
        self.breakdown.add(cat, cycles);
        self.clock += cycles;
    }

    /// Records one ULI protocol mark at `cycle` (a grant or dispatch time
    /// the simulation already computed). Never sequences and never charges:
    /// with tracing disabled this is one never-taken branch.
    #[inline]
    fn mark_uli(&mut self, cycle: u64, kind: UliMarkKind) {
        if let Some(m) = self.uli_marks.as_mut() {
            m.push(UliMark { cycle, kind });
        }
    }

    /// Records one event on this core's flight recorder at the current
    /// local clock. Observation-only: never sequences, never charges a
    /// cycle — runtimes call this from their scheduler hooks (task
    /// lifecycle, steal attempts, deque operations) without perturbing
    /// simulated state. With a capacity-0 ring this is one never-taken
    /// branch.
    #[inline]
    pub fn flight_note(&mut self, kind: FlightKind) {
        let t = self.now();
        self.flight.record(t, kind);
    }

    /// Records one checker event at the current clock. Called right after
    /// a sequenced operation returns — before its latency is charged — so
    /// `self.clock` is exactly the grant time of the operation. Never
    /// sequences and never charges: with events disabled this is one
    /// never-taken branch.
    #[inline]
    fn emit(&mut self, op: MemOp) {
        if let Some(ev) = self.events.as_mut() {
            ev.push((self.last_stamp, MemEvent { cycle: self.clock, core: self.core, op }));
        }
    }

    /// Inserts a zero-cost synchronization annotation into the checker
    /// event stream (deque acquire/release, `has_stolen_child`
    /// transitions). Pure metadata: takes no sequencer grant, charges no
    /// cycles, and compiles to a never-taken branch when checking is off —
    /// so annotating the runtime cannot perturb any golden hash.
    pub fn annotate_sync(&mut self, note: SyncNote) {
        if let Some(ev) = self.events.as_mut() {
            let cycle = self.clock + self.pending_compute;
            ev.push((self.last_stamp, MemEvent { cycle, core: self.core, op: MemOp::Sync(note) }));
        }
    }

    /// Switches the open attribution span to `task`, returning the previous
    /// owner so callers can save/restore around nested task execution.
    /// Closes the span in flight at the current clock (empty spans are
    /// dropped) and opens a new one. Never sequences, never charges, and
    /// reads the clock and breakdown *with* coalesced compute folded in
    /// (without flushing it), so arming attribution is bit-for-bit
    /// invisible to simulated timing. Returns `None` when disarmed.
    pub fn attr_switch(&mut self, task: Option<u32>) -> Option<u32> {
        let now = self.clock + self.pending_compute;
        let breakdown = self.breakdown();
        if let Some(a) = self.attr.as_mut() {
            let prev = a.current;
            if now > a.mark_clock {
                a.spans.push(AttrSpan {
                    task: prev,
                    start: a.mark_clock,
                    end: now,
                    breakdown: breakdown.diff(&a.mark_breakdown),
                });
            }
            a.current = task;
            a.mark_clock = now;
            a.mark_breakdown = breakdown;
            prev
        } else {
            None
        }
    }

    /// Closes and reopens the current attribution span at the current
    /// clock without changing its owner. Called at task-lifecycle event
    /// points so every recorded event cycle is also a span boundary — the
    /// DAG replay can then apportion a task's cycles across its events
    /// exactly, never splitting a span.
    #[inline]
    pub fn attr_mark(&mut self) {
        if self.attr.is_some() {
            let cur = self.attr.as_ref().and_then(|a| a.current);
            self.attr_switch(cur);
        }
    }

    // ------------------------------------------------------------------
    // Compute and idling
    // ------------------------------------------------------------------

    /// Executes `insts` non-memory instructions (purely local: no
    /// sequencing) at the core's [`CoreKind::issue_width`].
    pub fn advance(&mut self, insts: u64) {
        self.instructions += insts;
        let cycles = match self.kind {
            CoreKind::Big => insts.div_ceil(CoreKind::Big.issue_width()),
            CoreKind::Tiny => insts,
        };
        // Coalesce consecutive pure-compute advances into one deferred
        // clock bump; the ULI-delivery boundary below is still checked on
        // the accumulated total, so delivery opportunities land at the same
        // simulated cycle they always did.
        self.pending_compute += cycles;
        if self.pending_compute >= MAX_PENDING_COMPUTE {
            self.flush_compute();
        }
        // Long pure-compute stretches must remain interruptible: poll for
        // ULIs every ~256 accumulated compute cycles.
        if self.takes_requests() {
            self.compute_since_poll += cycles;
            if self.compute_since_poll >= 256 {
                self.uli_poll();
            }
        }
    }

    /// Burns `cycles` in the given accounting category (back-off, waits).
    pub fn wait_cycles(&mut self, cycles: u64, cat: TimeCategory) {
        self.charge(cat, cycles);
    }

    /// Burns `cycles` as idle time.
    pub fn idle(&mut self, cycles: u64) {
        self.charge(TimeCategory::Idle, cycles);
    }

    // ------------------------------------------------------------------
    // Memory operations
    // ------------------------------------------------------------------

    /// Loads `words` consecutive words starting at `addr`; `f` produces the
    /// functional value and runs race-free under the global token.
    pub fn load_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.load_words_impl(addr, words, None, f)
    }

    /// Like [`CorePort::load_words`], but a declared benign race: exempt
    /// from the runtime staleness counter and race-whitelisted in the DRF
    /// checker's happens-before pass under the audited `tag` (the staleness
    /// pass still counts it per tag). Timing is identical to
    /// [`CorePort::load_words`].
    pub fn load_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.load_words_impl(addr, words, Some(tag), f)
    }

    fn load_words_impl<R>(
        &mut self,
        addr: Addr,
        words: u64,
        racy: Option<RacyTag>,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(words >= 1, "load of zero words");
        // `f` runs inside the last word's sequenced section.
        let (mut f, mut out) = (Some(f), None);
        for w in 0..words {
            let a = addr.offset(w * 8);
            let (f, out) = (f.take_if(|_| w + 1 == words), &mut out);
            let lat = self.seq_with(
                move |st, now, core| {
                    let l = if racy.is_some() {
                        st.mem.load_racy(core, a, now)
                    } else {
                        st.mem.load(core, a, now)
                    };
                    *out = f.map(|f| f());
                    l
                },
                |_| Some(MemOp::Load { addr: a, racy }),
            );
            let lat = self.mem_latency(lat);
            self.charge(TimeCategory::Load, lat);
        }
        self.instructions += words;
        out.expect("functional closure ran")
    }

    /// Loads one word at `addr` for timing only.
    pub fn load(&mut self, addr: Addr) {
        self.load_words(addr, 1, || ());
    }

    /// Retires a store of raw latency `raw` into the store buffer,
    /// returning the cycles the core actually stalls: one issue cycle plus
    /// any wait for a free buffer entry.
    fn buffer_store(&mut self, raw: u64) -> u64 {
        self.flush_compute();
        let now = self.clock;
        while self.store_buffer.front().is_some_and(|done| *done <= now) {
            self.store_buffer.pop_front();
        }
        let stall = if self.store_buffer.len() >= STORE_BUFFER_ENTRIES {
            let head = self.store_buffer.pop_front().expect("nonempty");
            head.saturating_sub(now)
        } else {
            0
        };
        self.store_buffer.push_back(now + stall + 1 + raw);
        stall + 1
    }

    /// Cycles until every buffered store has completed (drain at AMOs and
    /// flush points, which have release semantics).
    fn drain_store_buffer(&mut self) -> u64 {
        self.flush_compute();
        let last = self.store_buffer.back().copied().unwrap_or(0);
        self.store_buffer.clear();
        last.saturating_sub(self.clock)
    }

    /// Stores `words` consecutive words starting at `addr`; `f` applies the
    /// functional effect under the global token. Stores retire through a
    /// bounded store buffer: the core stalls only when the buffer is full.
    pub fn store_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.store_words_impl(addr, words, None, f)
    }

    /// Like [`CorePort::store_words`], but a declared benign write-write
    /// race (concurrent same-value idempotent stores): the DRF checker's
    /// happens-before pass treats it as an atomic-like write under the
    /// audited `tag` — no race against other audited accesses, still a
    /// race against unordered plain accesses. Timing is identical to
    /// [`CorePort::store_words`].
    pub fn store_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.store_words_impl(addr, words, Some(tag), f)
    }

    fn store_words_impl<R>(
        &mut self,
        addr: Addr,
        words: u64,
        racy: Option<RacyTag>,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(words >= 1, "store of zero words");
        // `f` runs inside the last word's sequenced section.
        let (mut f, mut out) = (Some(f), None);
        for w in 0..words {
            let a = addr.offset(w * 8);
            let (f, out) = (f.take_if(|_| w + 1 == words), &mut out);
            let lat = self.seq_with(
                move |st, now, core| {
                    let l = st.mem.store(core, a, now);
                    *out = f.map(|f| f());
                    l
                },
                |_| Some(MemOp::Store { addr: a, racy }),
            );
            let lat = self.mem_latency(lat);
            let charged = self.buffer_store(lat);
            self.charge(TimeCategory::Store, charged);
        }
        self.instructions += words;
        out.expect("functional closure ran")
    }

    /// Stores one word at `addr` for timing only.
    pub fn store(&mut self, addr: Addr) {
        self.store_words(addr, 1, || ());
    }

    /// Atomic read-modify-write of the word at `addr`; `f` applies the
    /// functional effect atomically under the global token. Atomics have
    /// release semantics: the store buffer drains first.
    pub fn amo_word<R>(&mut self, addr: Addr, f: impl FnOnce() -> R) -> R {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Atomic, drain);
        let mut out = None;
        let lat = {
            let out_ref = &mut out;
            self.seq_with(
                move |st, now, core| {
                    let l = st.mem.amo(core, addr, now);
                    *out_ref = Some(f());
                    l
                },
                |_| Some(MemOp::Amo { addr }),
            )
        };
        let lat = self.mem_latency(lat);
        self.charge(TimeCategory::Atomic, lat);
        self.instructions += 1;
        out.expect("functional closure ran")
    }

    /// Bulk self-invalidation of clean data in this core's L1
    /// (`cache_invalidate`; a no-op under MESI). Returns lines invalidated.
    pub fn invalidate_cache(&mut self) -> u64 {
        let (lat, lines) = self.seq_with(
            |st, now, core| st.mem.invalidate_all(core, now),
            |_| Some(MemOp::InvalidateAll),
        );
        self.charge(TimeCategory::Invalidate, lat);
        self.instructions += 1;
        lines
    }

    /// Bulk write-back of dirty data in this core's L1 (`cache_flush`; a
    /// no-op under MESI/DeNovo, a store-buffer drain under GPU-WT). Returns
    /// lines flushed.
    pub fn flush_cache(&mut self) -> u64 {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Flush, drain);
        let (lat, lines) =
            self.seq_with(|st, now, core| st.mem.flush_all(core, now), |_| Some(MemOp::FlushAll));
        self.charge(TimeCategory::Flush, lat);
        self.instructions += 1;
        lines
    }

    // ------------------------------------------------------------------
    // User-level interrupts
    // ------------------------------------------------------------------

    /// Installs the ULI handler for this core (the runtime's steal handler).
    pub fn set_uli_handler(&mut self, handler: UliHandler) {
        self.handler = Some(handler);
    }

    /// Enables ULI reception.
    pub fn uli_enable(&mut self) {
        self.seq(|st, _, core| st.uli.set_enabled(core, true));
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Disables ULI reception (requests arriving while disabled are NACKed
    /// or deferred per the ULI network model).
    pub fn uli_disable(&mut self) {
        self.seq(|st, _, core| st.uli.set_enabled(core, false));
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Sends a ULI request to `victim`. On NACK the core stalls until the
    /// NACK returns. The response must be collected with
    /// [`CorePort::uli_poll_response`].
    ///
    /// Under an armed [`FaultPlan`] the request may be silently dropped
    /// (the caller still observes [`UliOutcome::Sent`] — only a response
    /// timeout reveals the loss), force-NACKed, or delivered late.
    pub fn uli_send_request(&mut self, victim: usize, payload: u64) -> UliOutcome {
        // Grant time of the send, captured before `seq_with` folds pending
        // compute and possibly dispatches an incoming ULI (which would move
        // the clock past the send itself).
        let send_cycle = self.now();
        let out = match self.faults.on_uli_send() {
            UliSendFault::None => {
                let out = self.seq_with(
                    move |st, now, core| st.uli.try_send_request(core, victim, payload, now),
                    |out| {
                        (*out == UliOutcome::Sent)
                            .then_some(MemOp::Sync(SyncNote::UliReqSend { to: victim }))
                    },
                );
                if out == UliOutcome::Sent {
                    self.mark_uli(send_cycle, UliMarkKind::ReqSend { to: victim });
                    // Ring entries are stamped at the *post-seq* clock, not
                    // `send_cycle`: entering the sequencer can dispatch an
                    // incoming ULI handler on this core first, and the ring
                    // must stay sorted by time (the architectural send cycle
                    // lives in `uli_marks`).
                    self.flight.record(self.clock, FlightKind::UliReqSend { to: victim });
                }
                out
            }
            UliSendFault::Drop => {
                let out = self.seq(move |st, _, core| {
                    st.uli.drop_request(core, victim);
                    UliOutcome::Sent
                });
                self.flight.record(self.clock, FlightKind::FaultUliDrop);
                out
            }
            UliSendFault::Nack => {
                let out = self.seq(move |st, now, core| st.uli.forced_nack(core, victim, now));
                self.flight.record(self.clock, FlightKind::FaultUliNack);
                out
            }
            UliSendFault::Delay(extra) => {
                let out = self.seq(move |st, now, core| {
                    let out = st.uli.try_send_request(core, victim, payload, now);
                    if out == UliOutcome::Sent {
                        st.uli.delay_request(victim, extra);
                    }
                    out
                });
                self.flight.record(self.clock, FlightKind::FaultUliDelay { extra });
                out
            }
        };
        match out {
            UliOutcome::Nack { .. } => {
                self.flight.record(self.clock, FlightKind::UliNack { to: victim });
            }
            UliOutcome::Dead { .. } => {
                self.flight.record(self.clock, FlightKind::UliDead { to: victim });
            }
            _ => {}
        }
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
        if let UliOutcome::Nack { reply_at } | UliOutcome::Dead { reply_at } = out {
            let wait = reply_at.saturating_sub(self.clock);
            self.charge(TimeCategory::UliWait, wait);
        }
        out
    }

    /// Sends a ULI response back to `thief` (from inside a handler).
    pub fn uli_send_response(&mut self, thief: usize, payload: u64) {
        let send_cycle = self.now();
        self.seq_with(
            move |st, now, core| st.uli.send_response(core, thief, payload, now),
            |_| Some(MemOp::Sync(SyncNote::UliRespSend { to: thief })),
        );
        self.mark_uli(send_cycle, UliMarkKind::RespSend { to: thief });
        self.flight.record(self.clock, FlightKind::UliRespSend { to: thief });
        self.charge(TimeCategory::Uli, 1);
        self.instructions += 1;
    }

    /// Collects a ULI response if one has arrived.
    pub fn uli_poll_response(&mut self) -> Option<UliMessage> {
        self.poll_response_in(None)
    }

    fn poll_response_in(&mut self, held: Option<Section<'_, GlobalState>>) -> Option<UliMessage> {
        let poll_cycle = self.now();
        let msg = self.seq_in(
            held,
            |st, now, core| st.uli.take_response(core, now),
            |m: &Option<UliMessage>| {
                m.as_ref().map(|m| MemOp::Sync(SyncNote::UliRespRecv { from: m.from }))
            },
        );
        if let Some(m) = &msg {
            self.mark_uli(poll_cycle, UliMarkKind::RespRecv { from: m.from });
            self.flight.record(self.clock, FlightKind::UliRespRecv { from: m.from });
        }
        self.charge(TimeCategory::UliWait, PollOp::Response.cycles());
        self.instructions += 1;
        msg
    }

    /// Explicitly polls for an incoming ULI request and services it (used in
    /// wait loops; ordinary sequenced operations poll automatically).
    pub fn uli_poll(&mut self) {
        if self.takes_requests() {
            // The sequenced op itself delivers (or fault-drops) any pending
            // request.
            self.seq(|_, _, _| ());
        }
    }

    /// Waits for the response to a ULI request this core has sent
    /// (Figure 3(c) lines 24-34): rounds of [`CorePort::uli_poll_response`],
    /// [`CorePort::uli_poll`] — servicing incoming steal requests, so two
    /// cores stealing from each other cannot deadlock — and
    /// [`CorePort::is_done`], with a short spin between rounds, until the
    /// response arrives, the program completes, or a round ends at or after
    /// `deadline`.
    ///
    /// Simulated exactly as that loop of one-op calls, but the core does not
    /// take a grant per poll: it parks in the sequencer, which serves the
    /// polls that observe nothing in place and wakes the core for the first
    /// one that needs it (see [`Sequencer::park_poll`](crate::Sequencer));
    /// the core then catches up on what those polls left behind locally.
    pub fn uli_await_response(&mut self, deadline: Option<u64>) -> UliWait {
        // One handle for the whole wait: a section borrowed from the port's
        // own could not be handed back to the port's methods.
        let shared = Arc::clone(&self.shared);
        let plan = PollPlan { requests: self.takes_requests(), deadline };
        let mut op = PollOp::Response;
        loop {
            self.flush_compute();
            let held = match shared.seq.park_poll(self.core, self.clock, plan, op) {
                Ok(wake) => {
                    op = self.replay_polls(plan, op, wake.served);
                    debug_assert_eq!((op, self.clock), (wake.op, wake.time));
                    wake.section
                }
                Err(served) => {
                    self.replay_polls(plan, op, served);
                    panic!("{}", POISON_MSG);
                }
            };
            match op {
                PollOp::Response => {
                    if let Some(m) = self.poll_response_in(Some(held)) {
                        return UliWait::Response(m);
                    }
                }
                PollOp::Requests => self.seq_in(Some(held), |_, _, _| (), |_| None),
                PollOp::Done => {
                    if self.is_done_in(Some(held)) {
                        return UliWait::Done;
                    }
                    if deadline.is_some_and(|d| self.now() >= d) {
                        return UliWait::TimedOut;
                    }
                    self.charge(TimeCategory::UliWait, POLL_SPIN_CYCLES);
                }
            }
            op = plan.next(op);
        }
    }

    /// Catches up on `served` polls of `plan`, starting at `op`, that the
    /// sequencer granted in place and that observed nothing: each one's
    /// flight-ring `Grant` record and what the one-op call charges after a
    /// negative poll. Returns the poll after them.
    fn replay_polls(&mut self, plan: PollPlan, mut op: PollOp, served: u64) -> PollOp {
        for _ in 0..served {
            self.flight.record(self.clock, FlightKind::Grant);
            match op {
                PollOp::Response => {
                    self.book(TimeCategory::UliWait, op.cycles());
                    self.instructions += 1;
                }
                PollOp::Requests => {}
                PollOp::Done => {
                    self.book(TimeCategory::Idle, op.cycles());
                    self.book(TimeCategory::UliWait, POLL_SPIN_CYCLES);
                }
            }
            op = plan.next(op);
        }
        op
    }

    // ------------------------------------------------------------------
    // Program lifecycle
    // ------------------------------------------------------------------

    /// Signals global completion (called by the main worker when the
    /// program's root task finishes).
    pub fn set_done(&mut self) {
        self.seq(|st, now, _| {
            st.done = true;
            st.done_time = st.done_time.max(now);
        });
        self.mark_progress();
    }

    /// Tells the liveness watchdog that real forward progress happened
    /// (a task executed, a steal completed). Free when no watchdog is
    /// armed; never affects simulated timing.
    pub fn mark_progress(&mut self) {
        self.shared.seq.mark_progress();
    }

    /// Fault-injection hook for the runtime's victim selection: `true`
    /// forces this lookup to miss. Always `false` without an armed plan.
    pub fn fault_steal_miss(&mut self) -> bool {
        let miss = self.faults.on_steal_lookup();
        if miss {
            let t = self.now();
            self.flight.record(t, FlightKind::FaultStealMiss);
        }
        miss
    }

    /// Whether fail-stop crashes are armed in this run's fault plan (on
    /// any core). Runtimes gate their crash-recovery machinery on this;
    /// `false` guarantees none of it runs and the golden path is
    /// bit-for-bit unchanged.
    pub fn crash_armed(&self) -> bool {
        self.faults.crash_armed()
    }

    /// Whether this core's scheduled fail-stop is due. A pure host-side
    /// check (no sequencing, no cycle charge): runtimes poll it at
    /// scheduler safe points — never inside a ULI handler or while holding
    /// a simulated lock — and take the crash with [`CorePort::crash_now`].
    pub fn crash_pending(&self) -> bool {
        !self.in_handler && self.faults.crash_pending(self.now())
    }

    /// Takes this core's fail-stop: a sequenced operation that marks the
    /// core's ULI unit dead (all future steal requests answer
    /// [`UliOutcome::Dead`]) and records the crash. The caller — the
    /// runtime's scheduler loop — then unwinds its own task frames and
    /// either retires the core (permanent crash) or goes dormant until
    /// [`CorePort::revive_now`].
    pub fn crash_now(&mut self) {
        self.seq(|st, now, core| st.uli.set_dead(core, now));
        self.flight.record(self.clock, FlightKind::Crash);
        self.faults.note_crashed();
        // A crash is liveness-relevant: survivors need watchdog budget to
        // observe it and run recovery.
        self.mark_progress();
    }

    /// Revives this core after a crash (the `revive_after_cycles`
    /// rejoin): a sequenced operation clearing the dead flag. The runtime
    /// then re-enters its scheduler loop as a fresh worker.
    pub fn revive_now(&mut self) {
        self.seq(|st, _, core| st.uli.set_alive(core));
        self.flight.record(self.clock, FlightKind::Revive);
        self.mark_progress();
    }

    /// Cycles after its crash at which this core revives (0 = permanent).
    pub fn revive_after(&self) -> u64 {
        self.faults.revive_after()
    }

    /// Sequenced read of the dead-core set (every core that has
    /// fail-stopped, with no 64-core ceiling). The universal crash
    /// observer: survivors poll this in their wait loops to detect deaths
    /// even on runtimes that never send ULIs. Charges one idle cycle,
    /// like [`CorePort::is_done`].
    pub fn dead_mask(&mut self) -> CoreSet {
        let m = self.seq(|st, _, _| st.uli.dead_mask());
        self.charge(TimeCategory::Idle, 1);
        m
    }

    /// Faults injected on this core so far.
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults.counters
    }

    /// Whether global completion has been signalled.
    pub fn is_done(&mut self) -> bool {
        self.is_done_in(None)
    }

    fn is_done_in(&mut self, held: Option<Section<'_, GlobalState>>) -> bool {
        let d = self.seq_in(held, |st, _, _| st.done, |_| None);
        self.charge(TimeCategory::Idle, PollOp::Done.cycles());
        d
    }

    pub(crate) fn into_report(mut self) -> PortReport {
        // Terminal flush: fold any coalesced compute without the poison
        // poll — report assembly runs after a worker has already unwound,
        // and panicking here again would lose the report (and abort the
        // process on the fiber backend).
        let pending = std::mem::take(&mut self.pending_compute);
        self.book(TimeCategory::Compute, pending);
        // Close the final attribution span so the spans tile [0, clock].
        let attr_spans = match self.attr.take() {
            Some(mut a) => {
                if self.clock > a.mark_clock {
                    a.spans.push(AttrSpan {
                        task: a.current,
                        start: a.mark_clock,
                        end: self.clock,
                        breakdown: self.breakdown.diff(&a.mark_breakdown),
                    });
                }
                a.spans
            }
            None => Vec::new(),
        };
        PortReport {
            clock: self.clock,
            breakdown: self.breakdown,
            instructions: self.instructions,
            trace: self.trace.unwrap_or_default(),
            uli_marks: self.uli_marks.unwrap_or_default(),
            faults: self.faults.counters,
            events: self.events.unwrap_or_default(),
            attr_spans,
            flight_total: self.flight.total(),
            flight: self.flight.tail(),
        }
    }
}

/// Everything one core hands back to the system driver, including partial
/// state from a panicked or watchdog-aborted worker.
pub(crate) struct PortReport {
    pub clock: u64,
    pub breakdown: TimeBreakdown,
    pub instructions: u64,
    pub trace: Vec<crate::trace::TraceEvent>,
    pub uli_marks: Vec<UliMark>,
    pub faults: FaultCounters,
    /// Checker events with their sequencer grant stamps (see
    /// `CorePort::last_stamp`); the engine merges per-core buffers by
    /// stamp to reconstruct grant order.
    pub events: Vec<(u64, MemEvent)>,
    pub attr_spans: Vec<AttrSpan>,
    /// Flight-recorder tail in chronological order (empty with a
    /// capacity-0 ring).
    pub flight: Vec<crate::flight::FlightEvent>,
    /// Events ever recorded on this core's ring (`flight` keeps the last
    /// capacity of them).
    pub flight_total: u64,
}
