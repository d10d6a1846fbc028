//! Happens-before race detection over the op stream.
//!
//! A FastTrack-flavoured vector-clock pass. The stream is replayed in
//! merged `(cycle, core)` order — which the engine guarantees equals grant
//! order — and each core carries a full vector clock. Synchronization
//! edges come from five sources, all explicit in the stream:
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

use std::collections::HashMap;

use bigtiny_coherence::Addr;
use bigtiny_engine::{MemEvent, MemOp, RacyTag, SyncNote};

use crate::{Collector, ViolationKind, WordMap};

/// A vector clock over all cores.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Vc(Vec<u64>);

impl Vc {
    fn new(n: usize) -> Self {
        Vc(vec![0; n])
    }

    fn join(&mut self, other: &Vc) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// `true` iff an event at `(core, clock)` happens-before this clock.
    fn covers(&self, core: usize, clock: u64) -> bool {
        self.0[core] >= clock
    }
}

/// Last-access metadata for one word.
#[derive(Default)]
struct WordState {
    /// Last write epoch: `(core, clock, cycle, atomic)`.
    write: Option<(usize, u64, u64, bool)>,
    /// Per-core last plain-read clocks (lazily allocated: most words are
    /// written before they are ever read by a second core).
    reads: Option<Box<[u64]>>,
    /// Cycle of the most recent plain read per core (diagnostics only).
    read_cycles: Option<Box<[u64]>>,
}

/// The happens-before pass.
pub(crate) struct HbPass {
    ncores: usize,
    /// Per-core vector clock.
    vc: Vec<Vc>,
    /// Per-word sync clock (release stores and AMOs publish here).
    sync: WordMap<Vc>,
    /// Per-word last-access state for the race check.
    words: WordMap<WordState>,
    /// Armed by a `DequeRelease` note: the next store to this word by this
    /// core is the release store.
    pending_release: Vec<Option<u64>>,
    /// In-flight ULI message clocks, keyed `(from, to, kind)` where kind 0
    /// is a request and 1 a response. FIFO per key (mesh delivers ULI
    /// point-to-point in order).
    uli: HashMap<(usize, usize, u8), Vec<Vc>>,
}

impl HbPass {
    pub(crate) fn new(ncores: usize) -> Self {
        let mut vc = vec![Vc::new(ncores); ncores];
        for (i, c) in vc.iter_mut().enumerate() {
            c.0[i] = 1;
        }
        HbPass {
            ncores,
            vc,
            sync: WordMap::default(),
            words: WordMap::default(),
            pending_release: vec![None; ncores],
            uli: HashMap::new(),
        }
    }

    fn bump(&mut self, core: usize) {
        self.vc[core].0[core] += 1;
    }

    /// Acquire: join the word's sync clock into the core's clock.
    fn acquire(&mut self, core: usize, word: u64) {
        if let Some(s) = self.sync.get(&word) {
            self.vc[core].join(s);
        }
    }

    /// Record an atomic write epoch on `word` (no race versus other
    /// atomics; still races with unordered plain accesses).
    fn atomic_write(&mut self, core: usize, cycle: u64, word: u64, col: &mut Collector) {
        let clock = self.vc[core].0[core];
        let st = self.words.entry(word).or_default();
        // Versus the previous plain write.
        if let Some((wc, wk, wcy, atomic)) = st.write {
            if !atomic && wc != core && !self.vc[core].covers(wc, wk) {
                col.report(
                    ViolationKind::HbRace,
                    core,
                    cycle,
                    Some(Addr(word)),
                    word,
                    format!("atomic write races with plain store by core {wc} at cycle {wcy}"),
                );
            }
        }
        // Versus unordered plain reads.
        if let Some(reads) = &st.reads {
            for rc in 0..self.ncores {
                if rc != core && reads[rc] > 0 && !self.vc[core].covers(rc, reads[rc]) {
                    let rcy = st.read_cycles.as_ref().map_or(0, |c| c[rc]);
                    col.report(
                        ViolationKind::HbRace,
                        core,
                        cycle,
                        Some(Addr(word)),
                        word,
                        format!("atomic write races with plain load by core {rc} at cycle {rcy}"),
                    );
                }
            }
        }
        st.write = Some((core, clock, cycle, true));
        st.reads = None;
        st.read_cycles = None;
    }

    fn plain_read(&mut self, core: usize, cycle: u64, word: u64, col: &mut Collector) {
        let st = self.words.entry(word).or_default();
        if let Some((wc, wk, wcy, atomic)) = st.write {
            if wc != core && !self.vc[core].covers(wc, wk) {
                let kind = if atomic { "atomic" } else { "plain" };
                col.report(
                    ViolationKind::HbRace,
                    core,
                    cycle,
                    Some(Addr(word)),
                    word,
                    format!("plain load races with {kind} write by core {wc} at cycle {wcy}"),
                );
            }
        }
        let clock = self.vc[core].0[core];
        st.reads.get_or_insert_with(|| vec![0; self.ncores].into_boxed_slice())[core] = clock;
        st.read_cycles.get_or_insert_with(|| vec![0; self.ncores].into_boxed_slice())[core] = cycle;
    }

    fn plain_write(&mut self, core: usize, cycle: u64, word: u64, col: &mut Collector) {
        let clock = self.vc[core].0[core];
        let st = self.words.entry(word).or_default();
        if let Some((wc, wk, wcy, atomic)) = st.write {
            if wc != core && !self.vc[core].covers(wc, wk) {
                let kind = if atomic { "atomic" } else { "plain" };
                col.report(
                    ViolationKind::HbRace,
                    core,
                    cycle,
                    Some(Addr(word)),
                    word,
                    format!("plain store races with {kind} write by core {wc} at cycle {wcy}"),
                );
            }
        }
        if let Some(reads) = &st.reads {
            for rc in 0..self.ncores {
                if rc != core && reads[rc] > 0 && !self.vc[core].covers(rc, reads[rc]) {
                    let rcy = st.read_cycles.as_ref().map_or(0, |c| c[rc]);
                    col.report(
                        ViolationKind::HbRace,
                        core,
                        cycle,
                        Some(Addr(word)),
                        word,
                        format!("plain store races with plain load by core {rc} at cycle {rcy}"),
                    );
                }
            }
        }
        st.write = Some((core, clock, cycle, false));
        st.reads = None;
        st.read_cycles = None;
    }

    /// ULI send: enqueue a copy of the sender's clock, then bump so the
    /// sender's subsequent work is not retroactively ordered.
    fn uli_send(&mut self, from: usize, to: usize, kind: u8) {
        let clock = self.vc[from].clone();
        self.uli.entry((from, to, kind)).or_default().push(clock);
        self.bump(from);
    }

    /// ULI receive: dequeue the matching send clock and join it.
    fn uli_recv(
        &mut self,
        from: usize,
        to: usize,
        kind: u8,
        cycle: u64,
        col: &mut Collector,
        what: &str,
    ) {
        let q = self.uli.entry((from, to, kind)).or_default();
        if q.is_empty() {
            col.report(
                ViolationKind::ProtocolStream,
                to,
                cycle,
                None,
                to as u64,
                format!("{what} from core {from} with no matching send in the stream"),
            );
            return;
        }
        let clock = q.remove(0);
        self.vc[to].join(&clock);
    }

    pub(crate) fn step(&mut self, ev: &MemEvent, col: &mut Collector) {
        let (core, cycle) = (ev.core, ev.cycle);
        match ev.op {
            MemOp::Load { addr, racy } => {
                match racy {
                    None => self.plain_read(core, cycle, addr.0, col),
                    // The join-counter spin read acquires the counter's
                    // sync clock (published by the child's AMO decrement),
                    // and a thief's deque peek acquires the word's clock
                    // (published by the owner's `DequeTailPublish` push
                    // store), ordering the stolen task's descriptor reads
                    // after the owner's pre-push writes. Other audited
                    // racy loads are simply exempt.
                    Some(RacyTag::RcWaitLoop | RacyTag::DequeThiefPeek) => {
                        self.acquire(core, addr.0);
                    }
                    Some(_) => {}
                }
            }
            MemOp::Store { addr, racy } => {
                if racy == Some(RacyTag::DequeTailPublish) {
                    // Lock-free push's release-publish on the `tail` word:
                    // like the deque-lock release store, but keyed by tag
                    // (there is no lock word to hang a note on).
                    self.atomic_write(core, cycle, addr.0, col);
                    let vc = self.vc[core].clone();
                    self.sync.entry(addr.0).or_insert_with(|| Vc::new(self.ncores)).join(&vc);
                    self.bump(core);
                } else if racy.is_some() {
                    // Audited benign write-write race (same-value
                    // idempotent stores): recorded as an atomic-like write
                    // epoch, so concurrent audited stores and exempt racy
                    // loads never race with it, while an unordered plain
                    // access still does.
                    self.atomic_write(core, cycle, addr.0, col);
                } else if self.pending_release[core] == Some(addr.0) {
                    // The release store: publish the core's clock on the
                    // lock word (join, so an interleaved foreign release —
                    // impossible under correct locking — cannot erase
                    // edges) and record it as an atomic write.
                    self.pending_release[core] = None;
                    self.atomic_write(core, cycle, addr.0, col);
                    let vc = self.vc[core].clone();
                    self.sync.entry(addr.0).or_insert_with(|| Vc::new(self.ncores)).join(&vc);
                    self.bump(core);
                } else {
                    self.plain_write(core, cycle, addr.0, col);
                }
            }
            MemOp::Amo { addr } => {
                // Acquire-release: join the word's sync clock, record the
                // atomic write, publish, bump.
                self.acquire(core, addr.0);
                self.atomic_write(core, cycle, addr.0, col);
                self.sync.insert(addr.0, self.vc[core].clone());
                self.bump(core);
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
                SyncNote::HandlerEnter { from } => {
                    self.uli_recv(from, core, 0, cycle, col, "handler entry")
                }
                SyncNote::UliRespSend { to } => self.uli_send(core, to, 1),
                SyncNote::UliRespRecv { from } => {
                    self.uli_recv(from, core, 1, cycle, col, "response receipt")
                }
            },
        }
    }
}
