//! Happens-before race detection over the op stream.
//!
//! A vector-clock pass. The stream is replayed in merged `(cycle, core)`
//! order — which the engine guarantees equals grant order — and each core
//! carries a full vector clock. Per word it keeps the last write epoch
//! `(core, clock, cycle)`, one epoch per core that plain-read the word since
//! (sorted by core: unlike FastTrack's single read epoch, a write then
//! reports and suppresses exactly the races a full read vector would), and
//! a sync clock once something releases on the word. Synchronization edges
//! come from five sources, all explicit in the stream:
//!
//! * **AMOs** are acquire-release on the accessed word's sync clock
//!   (every runtime lock, CAS, and join-counter decrement is an AMO).
//! * **Deque release stores**: a plain store to the lock word immediately
//!   after a [`SyncNote::DequeRelease`] note publishes the critical
//!   section. The next `try_lock` AMO on that word acquires it. Without
//!   this the unlock store would race with other cores' failed `try_lock`
//!   AMOs.
//! * **Lock-free push publishes**: a [`RacyTag::DequeTailPublish`] store
//!   is a release on the deque's `tail` word, and a thief's
//!   [`RacyTag::DequeThiefPeek`] load acquires it — the lock-free deques'
//!   analog of the release/acquire pair the locked deque gets from its
//!   lock word.
//! * **ULI request/response delivery**: `UliReqSend -> HandlerEnter` and
//!   `UliRespSend -> UliRespRecv` each carry the sender's clock to the
//!   receiver (the mesh delivers ULI messages point-to-point in order).
//! * **Join-counter spins**: a [`RacyTag::RcWaitLoop`] load additionally
//!   acquires its word's sync clock — the paper's argument for why the
//!   plain spin is safe is exactly that the terminal read synchronizes
//!   with the child's releasing AMO decrement.
//!
//! Audited benign-race loads ([`MemOp::Load`] with `racy: Some(_)`) are
//! exempt: they neither race nor record a read epoch.

use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;

use bigtiny_coherence::Addr;
use bigtiny_engine::{MemEvent, MemOp, RacyTag, SyncNote};

use crate::{Collector, ViolationKind, WordHasher};

/// A vector clock over all cores (empty for a word nothing released on).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct Vc(Vec<u64>);

impl Vc {
    fn join(&mut self, other: &Vc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }
}

/// One access: which core, at which tick of its own clock, at which
/// simulated cycle (diagnostics only).
#[derive(Clone, Copy)]
struct Epoch {
    core: usize,
    clock: u64,
    cycle: u64,
}

/// Each core's latest plain read of a word since its last write, sorted by
/// core: the first in place, as most words have one reader at a time.
#[derive(Default)]
struct Reads(Option<Epoch>, Vec<Epoch>);

/// Last-access metadata for one word. An epoch is unordered before a
/// clock whose entry for the epoch's core is below the epoch's clock.
#[derive(Default)]
struct WordState {
    /// Last write epoch, and whether that write was atomic.
    write: Option<(Epoch, bool)>,
    reads: Reads,
    /// Sync clock: release stores and AMOs publish here.
    sync: Vc,
    /// The core whose clock `sync` is a copy of, if it is one. Every clock
    /// that has seen a core's tick has seen that core's whole clock at
    /// the tick (each publish bumps the publisher), so a core whose entry
    /// for this one is at least the copy's own tick has seen all of it.
    sync_of: Option<usize>,
}

/// The happens-before pass.
pub(crate) struct HbPass {
    /// Per-core vector clock.
    vc: Vec<Vc>,
    /// Per-word state, indexed by the dense word id `check_events` assigns.
    words: Vec<WordState>,
    /// Armed by a `DequeRelease` note: the next store to this word by this
    /// core is the release store.
    pending_release: Vec<Option<u64>>,
    /// In-flight ULI message clocks, keyed `(from, to, kind)` where kind 0
    /// is a request and 1 a response. FIFO per key (mesh delivers ULI
    /// point-to-point in order).
    uli: HashMap<(usize, usize, u8), VecDeque<Vc>, BuildHasherDefault<WordHasher>>,
}

impl HbPass {
    /// A pass over `ncores` cores, with room for `words` word ids.
    pub(crate) fn new(ncores: usize, words: usize) -> Self {
        let vc = (0..ncores).map(|i| Vc((0..ncores).map(|j| u64::from(i == j)).collect()));
        HbPass {
            vc: vc.collect(),
            words: Vec::with_capacity(words),
            pending_release: vec![None; ncores],
            uli: HashMap::default(),
        }
    }

    /// Makes room for the next dense word id.
    pub(crate) fn add_word(&mut self) {
        self.words.push(WordState::default());
    }

    fn bump(&mut self, core: usize) {
        self.vc[core].0[core] += 1;
    }

    /// Acquire: join the word's sync clock into the core's clock, unless
    /// the core has already seen all of it.
    fn acquire(&mut self, core: usize, id: usize) {
        let (vc, st) = (&mut self.vc[core], &self.words[id]);
        if st.sync_of.is_none_or(|of| vc.0[of] < st.sync.0[of]) {
            vc.join(&st.sync);
        }
    }

    /// Release: publish the core's clock on the word's sync clock, then
    /// bump. A sync clock the core has `seen` all of is overwritten in
    /// place; any other is joined, so that an interleaved foreign release
    /// — impossible under correct locking — cannot erase edges.
    fn release(&mut self, core: usize, id: usize, seen: bool) {
        let (vc, st) = (&self.vc[core], &mut self.words[id]);
        let of = st.sync_of;
        if seen || st.sync.0.is_empty() || of.is_some_and(|of| vc.0[of] >= st.sync.0[of]) {
            st.sync.0.clone_from(&vc.0);
            st.sync_of = Some(core);
        } else {
            st.sync.join(vc);
            st.sync_of = None;
        }
        self.bump(core);
    }

    /// Records a write epoch after checking it against the last write and
    /// every unordered plain read since. An atomic write (AMO, release
    /// store or audited racy store) races only with plain accesses.
    fn write(&mut self, ev: &MemEvent, addr: Addr, id: usize, atomic: bool, col: &mut Collector) {
        let (core, vc, st) = (ev.core, &self.vc[ev.core], &mut self.words[id]);
        let what = if atomic { "atomic write" } else { "plain store" };
        if let Some((w, w_atomic)) = st.write {
            if !(atomic && w_atomic) && w.core != core && vc.0[w.core] < w.clock {
                let other = if w_atomic {
                    "atomic write"
                } else if atomic {
                    "plain store"
                } else {
                    "plain write"
                };
                let detail =
                    format!("{what} races with {other} by core {} at cycle {}", w.core, w.cycle);
                col.report(ViolationKind::HbRace, core, ev.cycle, Some(addr), addr.0, detail);
            }
        }
        for r in st.reads.0.iter().chain(&st.reads.1) {
            if r.core != core && vc.0[r.core] < r.clock {
                let detail =
                    format!("{what} races with plain load by core {} at cycle {}", r.core, r.cycle);
                col.report(ViolationKind::HbRace, core, ev.cycle, Some(addr), addr.0, detail);
            }
        }
        st.write = Some((Epoch { core, clock: vc.0[core], cycle: ev.cycle }, atomic));
        st.reads.0 = None;
        st.reads.1.clear();
    }

    fn plain_read(&mut self, ev: &MemEvent, addr: Addr, id: usize, col: &mut Collector) {
        let (core, vc, st) = (ev.core, &self.vc[ev.core], &mut self.words[id]);
        if let Some((w, atomic)) = st.write {
            if w.core != core && vc.0[w.core] < w.clock {
                let (kind, c, cy) = (if atomic { "atomic" } else { "plain" }, w.core, w.cycle);
                let detail =
                    format!("plain load races with {kind} write by core {c} at cycle {cy}");
                col.report(ViolationKind::HbRace, core, ev.cycle, Some(addr), addr.0, detail);
            }
        }
        let read = Epoch { core, clock: vc.0[core], cycle: ev.cycle };
        let Reads(first, rest) = &mut st.reads;
        match first {
            Some(f) if f.core < core => match rest.binary_search_by_key(&core, |r| r.core) {
                Ok(i) => rest[i] = read,
                Err(i) => rest.insert(i, read),
            },
            Some(f) if f.core > core => rest.insert(0, std::mem::replace(f, read)),
            _ => *first = Some(read),
        }
    }

    /// ULI send: enqueue a copy of the sender's clock, then bump so the
    /// sender's subsequent work is not retroactively ordered.
    fn uli_send(&mut self, from: usize, to: usize, kind: u8) {
        let clock = self.vc[from].clone();
        self.uli.entry((from, to, kind)).or_default().push_back(clock);
        self.bump(from);
    }

    /// ULI receive: dequeue the matching send clock and join it.
    fn uli_recv(&mut self, ev: &MemEvent, from: usize, kind: u8, col: &mut Collector) {
        let to = ev.core;
        match self.uli.get_mut(&(from, to, kind)).and_then(VecDeque::pop_front) {
            // The message clock is a copy of the sender's (see `sync_of`).
            Some(clock) if self.vc[to].0[from] < clock.0[from] => self.vc[to].join(&clock),
            Some(_) => {}
            None => {
                let what = ["handler entry", "response receipt"][usize::from(kind)];
                let detail = format!("{what} from core {from} with no matching send in the stream");
                col.report(ViolationKind::ProtocolStream, to, ev.cycle, None, to as u64, detail);
            }
        }
    }

    /// Replays one event; `id` is the dense id of the word an addressed op
    /// touches (unused by the others).
    pub(crate) fn step(&mut self, ev: &MemEvent, id: usize, col: &mut Collector) {
        let core = ev.core;
        match ev.op {
            MemOp::Load { addr, racy } => {
                match racy {
                    None => self.plain_read(ev, addr, id, col),
                    // The join-counter spin read acquires the counter's
                    // sync clock (published by the child's AMO decrement),
                    // and a thief's deque peek acquires the word's clock
                    // (published by the owner's `DequeTailPublish` push
                    // store), ordering the stolen task's descriptor reads
                    // after the owner's pre-push writes. Other audited
                    // racy loads are simply exempt.
                    Some(RacyTag::RcWaitLoop | RacyTag::DequeThiefPeek) => self.acquire(core, id),
                    Some(_) => {}
                }
            }
            MemOp::Store { addr, racy } => {
                if racy == Some(RacyTag::DequeTailPublish) {
                    // Lock-free push's release-publish on the `tail` word:
                    // like the deque-lock release store, but keyed by tag
                    // (there is no lock word to hang a note on).
                    self.write(ev, addr, id, true, col);
                    self.release(core, id, false);
                } else if racy.is_some() {
                    // Audited benign write-write race (same-value
                    // idempotent stores): recorded as an atomic-like write
                    // epoch, so concurrent audited stores and exempt racy
                    // loads never race with it, while an unordered plain
                    // access still does.
                    self.write(ev, addr, id, true, col);
                } else if self.pending_release[core] == Some(addr.0) {
                    // The release store: publish the core's clock on the
                    // lock word and record it as an atomic write.
                    self.pending_release[core] = None;
                    self.write(ev, addr, id, true, col);
                    self.release(core, id, false);
                } else {
                    self.write(ev, addr, id, false, col);
                }
            }
            MemOp::Amo { addr } => {
                // Acquire-release: join the word's sync clock, record the
                // atomic write, publish, bump. After the acquire the core
                // has seen the whole sync clock.
                self.acquire(core, id);
                self.write(ev, addr, id, true, col);
                self.release(core, id, true);
            }
            MemOp::InvalidateAll | MemOp::FlushAll => {}
            MemOp::Sync(note) => match note {
                SyncNote::DequeAcquire { .. } => {
                    // The successful try_lock AMO that precedes this note
                    // already acquired the lock word's sync clock.
                }
                SyncNote::DequeRelease { lock } => {
                    self.pending_release[core] = Some(lock.0);
                }
                SyncNote::HscSet { .. } | SyncNote::HscElide { .. } => {}
                SyncNote::UliReqSend { to } => self.uli_send(core, to, 0),
                SyncNote::HandlerEnter { from } => self.uli_recv(ev, from, 0, col),
                SyncNote::UliRespSend { to } => self.uli_send(core, to, 1),
                SyncNote::UliRespRecv { from } => self.uli_recv(ev, from, 1, col),
            },
        }
    }
}
