//! The per-worker task deque in simulated shared memory.
//!
//! The paper's runtimes use a lock-protected double-ended queue per worker
//! (Figure 3): the owner pushes and pops at the tail in LIFO order and
//! thieves steal from the head in FIFO order. The deque's lock word, head,
//! tail, and slot array all live at simulated addresses, so deque accesses
//! produce exactly the coherence behaviour the paper studies — lock AMOs,
//! line bouncing between thief and victim under MESI, and the
//! invalidate/flush pairs HCC adds around each access.

use bigtiny_engine::sync::RwLock;

use bigtiny_coherence::Addr;
use bigtiny_engine::{AddrSpace, CorePort, FlightKind, RacyTag, SyncNote, TimeCategory};

use crate::config::DequeKind;
use crate::task::TaskId;

#[derive(Debug)]
struct DequeState {
    locked: bool,
    head: u64,
    tail: u64,
    /// The ring: task id + 1, or 0 for a never-written slot. Plain zeroable
    /// words so the array is a zeroed allocation the host only pays for
    /// slot by slot as the ring advances.
    slots: Vec<u64>,
}

impl DequeState {
    /// The task in ring position `index % capacity`.
    fn slot(&self, index: u64) -> Option<TaskId> {
        let word = self.slots[(index % self.slots.len() as u64) as usize];
        word.checked_sub(1).map(|id| TaskId(id as u32))
    }

    fn set_slot(&mut self, index: u64, task: TaskId) {
        let capacity = self.slots.len() as u64;
        self.slots[(index % capacity) as usize] = u64::from(task.0) + 1;
    }
}

/// A lock-based work-stealing deque in simulated memory.
///
/// The control words (`lock`, `head`, `tail`) share the deque's first cache
/// line — like the straightforward C++ struct the paper describes — and the
/// slot array follows, line-aligned.
#[derive(Debug)]
pub struct SimDeque {
    lock_addr: Addr,
    head_addr: Addr,
    tail_addr: Addr,
    slots_addr: Addr,
    capacity: u64,
    state: RwLock<DequeState>,
}

impl SimDeque {
    /// Allocates a deque with `capacity` slots in `space`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(space: &mut AddrSpace, capacity: usize) -> Self {
        assert!(capacity > 0, "deque capacity must be nonzero");
        let base = space.reserve_lines(64 + capacity as u64 * 8);
        SimDeque {
            lock_addr: base,
            head_addr: base.offset(8),
            tail_addr: base.offset(16),
            slots_addr: base.offset(64),
            capacity: capacity as u64,
            state: RwLock::new(DequeState {
                locked: false,
                head: 0,
                tail: 0,
                slots: vec![0; capacity],
            }),
        }
    }

    fn slot_addr(&self, index: u64) -> Addr {
        self.slots_addr.offset((index % self.capacity) * 8)
    }

    // ------------------------------------------------------------------
    // Policy dispatch: the one place that knows which primitives implement
    // which [`DequeKind`]. Under `Locked` these are the bare queue
    // operations of Figure 3 — the caller holds the lock whenever another
    // core can reach the deque ([`DequeKind::takes_lock`]); the lock-free
    // policies synchronise themselves.
    // ------------------------------------------------------------------

    /// Owner-side push under `policy`. Returns `false` if full.
    pub fn push(&self, port: &mut CorePort, policy: DequeKind, task: TaskId) -> bool {
        match policy {
            DequeKind::Locked => self.push_tail(port, task),
            DequeKind::ChaseLev => self.cl_push_tail(port, task),
            DequeKind::FenceFree | DequeKind::Idempotent => self.mp_push_tail(port, task),
        }
    }

    /// Owner-side take under `policy`. Returns `(task, duplicate)`;
    /// `duplicate` is only ever set by the multiplicity policies (see
    /// [`SimDeque::ff_pop_tail`]).
    pub fn pop(&self, port: &mut CorePort, policy: DequeKind) -> (Option<TaskId>, bool) {
        match policy {
            DequeKind::Locked => (self.pop_tail(port), false),
            DequeKind::ChaseLev => (self.cl_pop_tail(port), false),
            DequeKind::FenceFree => self.ff_pop_tail(port),
            DequeKind::Idempotent => self.idem_take_head(port),
        }
    }

    /// Thief-side steal (oldest task) under `policy`.
    pub fn steal(&self, port: &mut CorePort, policy: DequeKind) -> Option<TaskId> {
        match policy {
            DequeKind::Locked => self.pop_head(port),
            DequeKind::ChaseLev => self.cl_steal(port),
            DequeKind::FenceFree | DequeKind::Idempotent => self.mp_steal(port),
        }
    }

    /// One attempt to acquire the deque lock (an AMO on the lock word).
    pub fn try_lock(&self, port: &mut CorePort) -> bool {
        let got = port.amo_word(self.lock_addr, || {
            let mut st = self.state.write();
            if st.locked {
                false
            } else {
                st.locked = true;
                true
            }
        });
        if got {
            port.annotate_sync(SyncNote::DequeAcquire { lock: self.lock_addr });
        }
        got
    }

    /// Acquires the deque lock, spinning with a small back-off.
    pub fn lock(&self, port: &mut CorePort) {
        while !self.try_lock(port) {
            port.wait_cycles(8, TimeCategory::Atomic);
        }
    }

    /// Releases the deque lock (a plain store: release on these systems is a
    /// store preceded by the caller's flush where required).
    pub fn unlock(&self, port: &mut CorePort) {
        // The note marks the *next* store to the lock word by this core as
        // the release store, so the checker gives it atomic-release (not
        // plain-store) semantics in the happens-before pass.
        port.annotate_sync(SyncNote::DequeRelease { lock: self.lock_addr });
        port.store_words(self.lock_addr, 1, || {
            let mut st = self.state.write();
            debug_assert!(st.locked, "unlock of an unlocked deque");
            st.locked = false;
        });
    }

    /// Pushes `task` at the tail (owner side). Returns `false` if full.
    pub fn push_tail(&self, port: &mut CorePort, task: TaskId) -> bool {
        port.flight_note(FlightKind::DequePush);
        // head (capacity check) + tail loads, slot + tail stores.
        port.load(self.head_addr);
        let (full, tail) = {
            let st = self.state.read();
            (st.tail - st.head >= self.capacity, st.tail)
        };
        port.load(self.tail_addr);
        if full {
            return false;
        }
        port.store_words(self.slot_addr(tail), 1, || {
            self.state.write().set_slot(tail, task);
        });
        port.store_words(self.tail_addr, 1, || {
            self.state.write().tail += 1;
        });
        true
    }

    /// Pops from the tail in LIFO order (owner side).
    pub fn pop_tail(&self, port: &mut CorePort) -> Option<TaskId> {
        port.flight_note(FlightKind::DequePop);
        port.load(self.tail_addr);
        port.load(self.head_addr);
        let tail = {
            let st = self.state.read();
            if st.tail == st.head {
                return None;
            }
            st.tail - 1
        };
        let task = port.load_words(self.slot_addr(tail), 1, || self.state.read().slot(tail));
        port.store_words(self.tail_addr, 1, || {
            self.state.write().tail = tail;
        });
        task
    }

    /// Pops from the head in FIFO order (thief side).
    pub fn pop_head(&self, port: &mut CorePort) -> Option<TaskId> {
        port.flight_note(FlightKind::DequeSteal);
        port.load(self.head_addr);
        port.load(self.tail_addr);
        let head = {
            let st = self.state.read();
            if st.tail == st.head {
                return None;
            }
            st.head
        };
        let task = port.load_words(self.slot_addr(head), 1, || self.state.read().slot(head));
        port.store_words(self.head_addr, 1, || {
            self.state.write().head = head + 1;
        });
        task
    }

    // ------------------------------------------------------------------
    // Chase-Lev-style lock-free operations (Chase & Lev, SPAA'05) — the
    // classic alternative to the paper's lock-based deque, usable on
    // hardware-coherent systems. Owner pushes/pops without atomics except
    // for the single-element race; thieves steal with one CAS.
    // ------------------------------------------------------------------

    /// Lock-free owner push: slot store + tail store. Returns `false` when
    /// full.
    pub fn cl_push_tail(&self, port: &mut CorePort, task: TaskId) -> bool {
        port.flight_note(FlightKind::DequePush);
        port.load(self.tail_addr);
        // The owner's capacity check peeks at the thief-owned `head`
        // without synchronization (audited racy): `head` is monotone, so a
        // stale value only over-estimates occupancy. The check binds at
        // this load's sequenced grant — sampling it off the host lock
        // between ops would make `full` depend on host thread timing.
        let (full, tail) = port.load_words_racy(self.head_addr, 1, RacyTag::DequeOwnerPeek, || {
            let st = self.state.read();
            (st.tail - st.head >= self.capacity, st.tail)
        });
        if full {
            return false;
        }
        port.store_words(self.slot_addr(tail), 1, || {
            self.state.write().set_slot(tail, task);
        });
        // Release-publish: a thief's acquiring `tail` peek orders the
        // stolen task's descriptor reads after everything the owner wrote
        // before this push (the lock-free analog of the unlock store).
        port.store_words_racy(self.tail_addr, 1, RacyTag::DequeTailPublish, || {
            self.state.write().tail += 1;
        });
        true
    }

    /// Lock-free owner pop: reserve the tail with a store; on the last
    /// element the owner races thieves with a CAS on `head`.
    ///
    /// The functional claim linearizes at the tail store (the algorithm's
    /// linearization point); the remaining accesses model the head read and
    /// the last-element CAS.
    pub fn cl_pop_tail(&self, port: &mut CorePort) -> Option<TaskId> {
        port.flight_note(FlightKind::DequePop);
        port.load(self.tail_addr);
        // Linearization: decrement tail and claim the slot atomically.
        let (task, was_last) = port.store_words(self.tail_addr, 1, || {
            let mut st = self.state.write();
            if st.tail == st.head {
                (None, false)
            } else {
                st.tail -= 1;
                let t = st.slot(st.tail);
                (t, st.tail == st.head)
            }
        });
        // Post-claim peek at the thief-owned `head` (audited racy: thieves
        // AMO it concurrently; the claim above already linearized).
        port.load_words_racy(self.head_addr, 1, RacyTag::DequeOwnerPeek, || ());
        if task.is_some() {
            port.load(self.slot_addr(0)); // slot read (already claimed)
        }
        if was_last {
            // Fight a concurrent thief for the final element and reset the
            // deque to a canonical empty state (timing of the CAS + store).
            port.amo_word(self.head_addr, || ());
            port.store(self.tail_addr);
        }
        task
    }

    /// Lock-free thief steal: read head/tail, then CAS `head` forward. The
    /// functional claim linearizes at the CAS.
    ///
    /// The pre-CAS reads are the thief's unsynchronized peeks (audited
    /// racy): a stale `tail` only costs a missed steal, and the
    /// speculative slot value is discarded unless the CAS validates it.
    /// The claim is validated against the *sequenced* reads — the CAS
    /// succeeds only if `head` still equals the peeked value and the
    /// peeked `tail` showed the slot occupied — exactly Chase-Lev's
    /// `CAS(head, h, h+1)` after `h < t`. Claiming from fresher host state
    /// would let the thief take a task pushed *after* its acquiring `tail`
    /// peek, breaking the descriptor happens-before edge.
    pub fn cl_steal(&self, port: &mut CorePort) -> Option<TaskId> {
        port.flight_note(FlightKind::DequeSteal);
        let head_now = port
            .load_words_racy(self.head_addr, 1, RacyTag::DequeThiefPeek, || self.state.read().head);
        let tail_now = port
            .load_words_racy(self.tail_addr, 1, RacyTag::DequeThiefPeek, || self.state.read().tail);
        port.load_words_racy(self.slot_addr(head_now), 1, RacyTag::DequeThiefPeek, || ());
        port.amo_word(self.head_addr, || {
            let mut st = self.state.write();
            // Three-way validation: `head` unmoved since the peek (the CAS
            // guard), the peeked `tail` showed the slot occupied (the
            // happens-before guard: the push publish predates the thief's
            // acquiring peek), and the deque is *still* non-empty (the
            // owner's claim linearized since the peek loses the race).
            if st.head != head_now || head_now >= tail_now || st.head >= st.tail {
                None
            } else {
                let t = st.slot(st.head);
                st.head += 1;
                t
            }
        })
    }

    // ------------------------------------------------------------------
    // Multiplicity deques (Castañeda & Piña: fully read/write fence-free
    // work stealing with multiplicity; Michael et al.: idempotent work
    // stealing). The owner's fast path issues *no* AMO at all; the price
    // is that exactly-once relaxes to at-most-twice — a slot can be
    // claimed by both the owner and a thief, and the caller re-executes
    // the double-claimed task as an audited duplicate. The checker's
    // `Multiplicity` audit mode verifies the at-most-twice bound and the
    // kernel-idempotence requirement.
    // ------------------------------------------------------------------

    /// Fence-free owner push (both multiplicity policies): slot store +
    /// tail store, with only an audited racy peek at `head` for the
    /// capacity check. Returns `false` when full.
    pub fn mp_push_tail(&self, port: &mut CorePort, task: TaskId) -> bool {
        // Same operations as Chase-Lev's push, release-publish included:
        // the multiplicity policies drop the owner's claim-side fences, not
        // the push-side ordering a thief needs to read the stolen
        // descriptor safely.
        self.cl_push_tail(port, task)
    }

    /// Fence-free owner pop (LIFO): the claim is a plain `tail` store —
    /// no AMO even on the last element, unlike Chase-Lev. Returns
    /// `(task, duplicate)`: `duplicate` means a thief claimed the same
    /// slot concurrently, and the caller must run the task as an audited
    /// duplicate (the thief's copy is the primary). A double claim can
    /// only hit the *last* element: thieves never advance `head` past
    /// `tail`, so every earlier slot has a single claimant.
    pub fn ff_pop_tail(&self, port: &mut CorePort) -> (Option<TaskId>, bool) {
        port.flight_note(FlightKind::DequePop);
        port.load(self.tail_addr);
        // The owner's emptiness test uses the `head` it reads *here* — by
        // the time the claim below is granted, a thief's CAS may have
        // advanced `head` past it. That stale window is the multiplicity
        // mechanism: the owner still claims the slot, and the fresh `head`
        // at the claim decides whether the task was double-claimed
        // (duplicated) — it is never lost.
        let seen_head = port
            .load_words_racy(self.head_addr, 1, RacyTag::DequeOwnerPeek, || self.state.read().head);
        // Linearization: claim the tail slot with a plain store.
        port.store_words(self.tail_addr, 1, || {
            let mut st = self.state.write();
            if seen_head >= st.tail {
                (None, false)
            } else {
                st.tail -= 1;
                let idx = st.tail;
                let t = st.slot(idx);
                let dup = idx < st.head;
                if dup {
                    // The thief also won the last element; reset to
                    // canonical empty so indices stay `head <= tail`.
                    st.tail = st.head;
                }
                (t, dup)
            }
        })
    }

    /// Idempotent-FIFO owner take: reads `head`, claims the slot it points
    /// at, and publishes the advance with a plain racy store — no AMO, no
    /// fence. Returns `(task, duplicate)`: `duplicate` means a thief's CAS
    /// claimed the same index inside the owner's read-to-store window. The
    /// store merges by `max`, so `head` stays monotone, each index is
    /// owner-claimed at most once (the next take re-reads a `head` past
    /// it), and every task executes at most twice.
    pub fn idem_take_head(&self, port: &mut CorePort) -> (Option<TaskId>, bool) {
        port.flight_note(FlightKind::DequeSteal);
        port.load(self.tail_addr);
        // The index the owner will claim binds *here*; a thief CAS granted
        // between this load and the store below claims the same index —
        // that is the multiplicity window.
        let seen_head = port
            .load_words_racy(self.head_addr, 1, RacyTag::DequeOwnerPeek, || self.state.read().head);
        port.load(self.slot_addr(seen_head));
        port.store_words_racy(self.head_addr, 1, RacyTag::DequeOwnerCommit, || {
            let mut st = self.state.write();
            let idx = seen_head;
            if idx >= st.tail {
                (None, false)
            } else {
                let t = st.slot(idx);
                let dup = idx < st.head;
                st.head = st.head.max(idx + 1);
                (t, dup)
            }
        })
    }

    /// Multiplicity thief steal (both policies): peek `head`/`tail`/slot
    /// (audited racy), claim exactly at the `head` CAS. The thief is
    /// always the primary claimant — duplicates are only ever the owner's
    /// re-execution. As in [`SimDeque::cl_steal`], the CAS validates
    /// against the sequenced peeks so a claimed task's push-publish
    /// happens-before the thief's acquiring `tail` peek.
    pub fn mp_steal(&self, port: &mut CorePort) -> Option<TaskId> {
        // Same three-way validation as `cl_steal`; its fresh non-emptiness
        // conjunct is what keeps the thief the *primary* claimant — an
        // owner claim that linearized since the peek wins outright instead
        // of creating a thief-side duplicate.
        self.cl_steal(port)
    }

    /// Current length (host-side, for tests and assertions).
    pub fn host_len(&self) -> usize {
        let st = self.state.read();
        (st.tail - st.head) as usize
    }

    /// Whether the lock is held (host-side, for tests).
    pub fn host_locked(&self) -> bool {
        self.state.read().locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_engine::{run_system, SystemConfig, Worker};
    use std::sync::Arc;

    fn on_one_core(f: impl FnOnce(&mut CorePort) + Send + 'static) {
        let config = SystemConfig::o3(1);
        let workers: Vec<Worker> = vec![Box::new(move |port| {
            f(port);
            port.set_done();
        })];
        run_system(&config, workers);
    }

    #[test]
    fn slot_words_distinguish_every_task_id_from_never_written() {
        let mut st = DequeState { locked: false, head: 0, tail: 0, slots: vec![0; 4] };
        assert_eq!(st.slot(2), None, "a zeroed slot holds no task");
        for id in [0, 1, u32::MAX] {
            st.set_slot(6, TaskId(id)); // ring position 6 % 4
            assert_eq!(st.slot(2), Some(TaskId(id)));
        }
        assert_eq!(st.slot(3), None);
    }

    #[test]
    fn lifo_owner_fifo_thief() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 8));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            for i in 0..4 {
                assert!(d.push_tail(port, TaskId(i)));
            }
            assert_eq!(d.host_len(), 4);
            // Owner pops newest.
            assert_eq!(d.pop_tail(port), Some(TaskId(3)));
            // Thief steals oldest.
            assert_eq!(d.pop_head(port), Some(TaskId(0)));
            assert_eq!(d.pop_head(port), Some(TaskId(1)));
            assert_eq!(d.pop_tail(port), Some(TaskId(2)));
            assert_eq!(d.pop_tail(port), None);
            assert_eq!(d.pop_head(port), None);
        });
    }

    #[test]
    fn capacity_limit_reports_full() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 2));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            assert!(d.push_tail(port, TaskId(0)));
            assert!(d.push_tail(port, TaskId(1)));
            assert!(!d.push_tail(port, TaskId(2)), "full deque rejects");
            d.pop_head(port);
            assert!(d.push_tail(port, TaskId(2)), "wraps around after pop");
        });
    }

    #[test]
    fn lock_is_exclusive() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 4));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            assert!(d.try_lock(port));
            assert!(d.host_locked());
            assert!(!d.try_lock(port), "second acquire fails");
            d.unlock(port);
            assert!(!d.host_locked());
            d.lock(port);
            assert!(d.host_locked());
            d.unlock(port);
        });
    }

    #[test]
    fn chase_lev_lifo_fifo_semantics() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 8));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            for i in 0..4 {
                assert!(d.cl_push_tail(port, TaskId(i)));
            }
            assert_eq!(d.cl_pop_tail(port), Some(TaskId(3)), "owner pops newest");
            assert_eq!(d.cl_steal(port), Some(TaskId(0)), "thief steals oldest");
            assert_eq!(d.cl_pop_tail(port), Some(TaskId(2)));
            assert_eq!(d.cl_steal(port), Some(TaskId(1)));
            assert_eq!(d.cl_pop_tail(port), None);
            assert_eq!(d.cl_steal(port), None);
            assert_eq!(d.host_len(), 0);
        });
    }

    #[test]
    fn chase_lev_last_element_race_path() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 4));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            d.cl_push_tail(port, TaskId(9));
            // Single element: the owner takes it through the CAS path and
            // the deque is consistent afterwards.
            assert_eq!(d.cl_pop_tail(port), Some(TaskId(9)));
            assert_eq!(d.host_len(), 0);
            assert!(d.cl_push_tail(port, TaskId(10)), "reusable after the race path");
            assert_eq!(d.cl_steal(port), Some(TaskId(10)));
        });
    }

    #[test]
    fn chase_lev_interoperates_with_ring_capacity() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 2));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            assert!(d.cl_push_tail(port, TaskId(0)));
            assert!(d.cl_push_tail(port, TaskId(1)));
            assert!(!d.cl_push_tail(port, TaskId(2)), "full");
            d.cl_steal(port);
            assert!(d.cl_push_tail(port, TaskId(2)));
        });
    }

    #[test]
    fn fence_free_lifo_fifo_semantics() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 8));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            for i in 0..4 {
                assert!(d.mp_push_tail(port, TaskId(i)));
            }
            assert_eq!(d.ff_pop_tail(port), (Some(TaskId(3)), false), "owner pops newest");
            assert_eq!(d.mp_steal(port), Some(TaskId(0)), "thief steals oldest");
            assert_eq!(d.ff_pop_tail(port), (Some(TaskId(2)), false));
            assert_eq!(d.mp_steal(port), Some(TaskId(1)));
            assert_eq!(d.ff_pop_tail(port), (None, false));
            assert_eq!(d.mp_steal(port), None);
            assert_eq!(d.host_len(), 0);
        });
    }

    #[test]
    fn idempotent_fifo_semantics() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 8));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            for i in 0..3 {
                assert!(d.mp_push_tail(port, TaskId(i)));
            }
            // Owner takes FIFO from the head, same end thieves steal from.
            assert_eq!(d.idem_take_head(port), (Some(TaskId(0)), false));
            assert_eq!(d.mp_steal(port), Some(TaskId(1)));
            // The owner's next take re-reads the post-steal head.
            assert_eq!(d.idem_take_head(port), (Some(TaskId(2)), false));
            assert_eq!(d.idem_take_head(port), (None, false));
            assert_eq!(d.host_len(), 0);
        });
    }

    #[test]
    fn multiplicity_capacity_check_reports_full() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 2));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            assert!(d.mp_push_tail(port, TaskId(0)));
            assert!(d.mp_push_tail(port, TaskId(1)));
            assert!(!d.mp_push_tail(port, TaskId(2)), "full");
            d.mp_steal(port);
            assert!(d.mp_push_tail(port, TaskId(2)), "wraps after a steal");
        });
    }

    /// Sweeps the thief's arrival time across the owner's pop window. In
    /// every interleaving the single task is claimed at least once and at
    /// most twice, the duplicate flag fires exactly when both sides won
    /// it, and the sweep must actually hit both a clean pop and the
    /// last-element double claim (the thief's CAS landing between the
    /// owner's `head` read and its `tail`-store claim).
    #[test]
    fn fence_free_double_claims_duplicate_never_lose() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut saw_dup, mut saw_clean_pop) = (false, false);
        for delay in 0..400u64 {
            let mut space = AddrSpace::new();
            let dq = Arc::new(SimDeque::new(&mut space, 4));
            let (owner, thief) = (Arc::clone(&dq), Arc::clone(&dq));
            let stolen = Arc::new(AtomicBool::new(false));
            let stolen_w = Arc::clone(&stolen);
            let owner_claim = Arc::new(std::sync::Mutex::new((None, false)));
            let owner_claim_w = Arc::clone(&owner_claim);
            let config = SystemConfig::o3(2);
            let workers: Vec<Worker> = vec![
                Box::new(move |port| {
                    owner.mp_push_tail(port, TaskId(7));
                    port.wait_cycles(320, TimeCategory::Idle);
                    *owner_claim_w.lock().unwrap() = owner.ff_pop_tail(port);
                    port.set_done();
                }),
                Box::new(move |port| {
                    port.wait_cycles(delay, TimeCategory::Idle);
                    if thief.mp_steal(port) == Some(TaskId(7)) {
                        stolen_w.store(true, Ordering::Relaxed);
                    }
                    port.set_done();
                }),
            ];
            run_system(&config, workers);
            let (task, dup) = *owner_claim.lock().unwrap();
            let thief_won = stolen.load(Ordering::Relaxed);
            let owner_won = task == Some(TaskId(7));
            assert!(owner_won || thief_won, "delay {delay}: the task was lost");
            assert_eq!(
                dup,
                owner_won && thief_won,
                "delay {delay}: duplicate flag must mean a double claim"
            );
            saw_dup |= dup;
            saw_clean_pop |= owner_won && !thief_won;
        }
        assert!(saw_dup, "the sweep never hit the double-claim window");
        assert!(saw_clean_pop, "the sweep never hit a clean owner pop");
    }

    /// Sweeps the thief's arrival across the idempotent owner's take
    /// window: a thief CAS granted between the owner's `head` read and its
    /// fence-free `head` store claims the same index, which the owner's
    /// store must report as a duplicate — never a loss, never a skip.
    #[test]
    fn idempotent_stale_window_double_claim_duplicates() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let (mut saw_dup, mut saw_clean_take) = (false, false);
        for delay in 0..400u64 {
            let mut space = AddrSpace::new();
            let dq = Arc::new(SimDeque::new(&mut space, 4));
            let (owner, thief) = (Arc::clone(&dq), Arc::clone(&dq));
            let stolen = Arc::new(AtomicBool::new(false));
            let stolen_w = Arc::clone(&stolen);
            let owner_claim = Arc::new(std::sync::Mutex::new((None, false)));
            let owner_claim_w = Arc::clone(&owner_claim);
            let config = SystemConfig::o3(2);
            let workers: Vec<Worker> = vec![
                Box::new(move |port| {
                    owner.mp_push_tail(port, TaskId(7));
                    port.wait_cycles(320, TimeCategory::Idle);
                    *owner_claim_w.lock().unwrap() = owner.idem_take_head(port);
                    port.set_done();
                }),
                Box::new(move |port| {
                    port.wait_cycles(delay, TimeCategory::Idle);
                    if thief.mp_steal(port) == Some(TaskId(7)) {
                        stolen_w.store(true, Ordering::Relaxed);
                    }
                    port.set_done();
                }),
            ];
            run_system(&config, workers);
            let (task, dup) = *owner_claim.lock().unwrap();
            let thief_won = stolen.load(Ordering::Relaxed);
            let owner_won = task == Some(TaskId(7));
            assert!(owner_won || thief_won, "delay {delay}: the task was lost");
            assert_eq!(
                dup,
                owner_won && thief_won,
                "delay {delay}: duplicate flag must mean a double claim"
            );
            saw_dup |= dup;
            saw_clean_take |= owner_won && !thief_won;
        }
        assert!(saw_dup, "the sweep never hit the double-claim window");
        assert!(saw_clean_take, "the sweep never hit a clean owner take");
    }

    #[test]
    fn ring_wraps_many_times() {
        let mut space = AddrSpace::new();
        let dq = Arc::new(SimDeque::new(&mut space, 3));
        let d = Arc::clone(&dq);
        on_one_core(move |port| {
            for round in 0..10u32 {
                d.push_tail(port, TaskId(round));
                assert_eq!(d.pop_head(port), Some(TaskId(round)));
            }
            assert_eq!(d.host_len(), 0);
        });
    }
}
