//! The addressed per-op event stream consumed by the DRF conformance
//! checker (`bigtiny-checker`).
//!
//! When [`CheckMode`](crate::CheckMode) is armed, every [`CorePort`]
//! buffers one [`MemEvent`] per sequenced memory operation plus
//! zero-cost [`SyncNote`] annotations the runtime inserts at its
//! synchronization points (deque lock/unlock, `has_stolen_child`
//! transitions, ULI sends/receives). Emission never takes the sequencer
//! token and never charges a cycle, so an armed run replays the exact
//! sequenced-op stream of an unarmed one — the golden hashes pin this.
//!
//! Events carry the core's local clock at the moment the underlying
//! operation was *granted* (for sync notes: the clock at the annotation
//! point). Per-core clocks are nondecreasing and the sequencer grants in
//! `(time, core)` order, so sorting the merged stream by
//! `(cycle, core, per-core index)` reproduces grant order exactly.

use bigtiny_coherence::Addr;

/// What the checker should verify. `Off` is the default and is bit-for-bit
/// invisible: no events are buffered, no branches in the hot path beyond a
/// `None` check on an `Option` that is never `Some`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckMode {
    /// No event collection, no checking. The only mode timed runs may use.
    #[default]
    Off,
    /// Collect events; run all three passes (happens-before races,
    /// protocol staleness oracle, Figure-3 sync-discipline lint).
    Full,
}

impl CheckMode {
    /// Whether event collection is armed.
    pub fn armed(self) -> bool {
        self != CheckMode::Off
    }
}

/// A named, audited benign-race annotation for a `load_words_racy` or
/// `store_words_racy` call site. The HB pass treats tagged loads as
/// race-exempt and tagged stores as atomic-like write epochs (no race
/// against other audited accesses, still a race against unordered plain
/// accesses); the checker counts tagged loads per tag so the audit is
/// visible in reports. The checker's whitelist and the set of tags used in
/// the source tree are pinned against each other by a test — adding a racy
/// access without a tag (or a tag without a call site) fails the suite.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum RacyTag {
    /// Runtime join-counter wait loop: a stale (over-large) `rc` only costs
    /// an extra polling iteration; the terminal read is an AMO or is
    /// ordered by the steal-free join argument (Figure 3(c) line 8).
    RcWaitLoop,
    /// Ligra frontier dedup flag (probe *and* insert): a missed concurrent
    /// insert only means a duplicate visit attempt, and concurrent inserts
    /// all store the same value (flags only go 0 -> 1 within a round).
    LigraDedupFlag,
    /// Ligra `edge_map` condition probe (visited/claimed test): stale
    /// "unclaimed" answers are repaired by the CAS in the update function.
    LigraCondProbe,
    /// Ligra read-back of a per-round claim slot right after the CAS: every
    /// same-round writer stores the same value, so any outcome is correct.
    LigraClaimedLevel,
    /// Ligra monotone relaxation source read (CC labels, Bellman-Ford
    /// distances): a stale value is a valid earlier state; a later round
    /// repairs it and an AMO min decides the winner.
    LigraMonotoneSrc,
    /// Deque owner's unsynchronized peek at the thief-owned `head` word
    /// (Chase-Lev and the multiplicity deques). `head` is monotone, so a
    /// stale value only *over*-estimates occupancy; every claim the owner
    /// makes from a stale view still linearizes at a later sequenced
    /// `tail` store or AMO, where the multiplicity/emptiness verdict is
    /// decided against the fresh state.
    DequeOwnerPeek,
    /// Thief's unsynchronized peek at the owner-owned `tail` word and its
    /// speculative read of the slot it hopes to claim. A stale `tail` only
    /// costs a missed steal; the speculative slot value is discarded unless
    /// the claiming `head` AMO (which re-reads fresh state) validates it.
    DequeThiefPeek,
    /// Idempotent-deque owner's fence-free `head` advance: a plain racy
    /// store that publishes the owner's FIFO claim without an AMO. Racing
    /// thief AMOs can overlap one claim — the claim is then re-executed as
    /// an audited duplicate, never lost (`head` merges by max, monotone).
    DequeOwnerCommit,
    /// Lock-free owner push's `tail` store (Chase-Lev and the multiplicity
    /// deques): a release-publish. The happens-before pass gives it
    /// store-release semantics — a thief's later acquiring `tail` peek
    /// ([`RacyTag::DequeThiefPeek`]) picks up everything the owner did
    /// before the push, which is what makes the stolen task's descriptor
    /// reads race-free without a deque lock.
    DequeTailPublish,
}

impl RacyTag {
    /// Every tag, in whitelist order.
    pub const ALL: [RacyTag; 9] = [
        RacyTag::RcWaitLoop,
        RacyTag::LigraDedupFlag,
        RacyTag::LigraCondProbe,
        RacyTag::LigraClaimedLevel,
        RacyTag::LigraMonotoneSrc,
        RacyTag::DequeOwnerPeek,
        RacyTag::DequeThiefPeek,
        RacyTag::DequeOwnerCommit,
        RacyTag::DequeTailPublish,
    ];

    /// Stable label used in reports and the source-audit test.
    pub fn label(self) -> &'static str {
        match self {
            RacyTag::RcWaitLoop => "RcWaitLoop",
            RacyTag::LigraDedupFlag => "LigraDedupFlag",
            RacyTag::LigraCondProbe => "LigraCondProbe",
            RacyTag::LigraClaimedLevel => "LigraClaimedLevel",
            RacyTag::LigraMonotoneSrc => "LigraMonotoneSrc",
            RacyTag::DequeOwnerPeek => "DequeOwnerPeek",
            RacyTag::DequeThiefPeek => "DequeThiefPeek",
            RacyTag::DequeOwnerCommit => "DequeOwnerCommit",
            RacyTag::DequeTailPublish => "DequeTailPublish",
        }
    }
}

/// A zero-cost synchronization annotation from the runtime. Sync notes are
/// pure metadata: emitting one takes no sequencer grant and charges no
/// cycles, so they exist only in armed runs' event streams.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SyncNote {
    /// A deque lock was just acquired (the successful `try_lock` AMO on
    /// `lock` immediately precedes this note). Figure 3(b) line 2/7.
    DequeAcquire {
        /// Address of the lock word.
        lock: Addr,
    },
    /// A deque lock is about to be released: the next plain store to
    /// `lock` by this core is the release store and carries release
    /// semantics in the HB pass. Figure 3(b) line 5/10.
    DequeRelease {
        /// Address of the lock word.
        lock: Addr,
    },
    /// A steal marked `has_stolen_child` on the victim's current task.
    HscSet {
        /// Runtime task id whose flag was set.
        task: u32,
    },
    /// A join elided its invalidate/AMO because `has_stolen_child` read
    /// false (Figure 3(c) line 8-10). Legal only if no steal of this
    /// task's children ever happened.
    HscElide {
        /// Runtime task id whose flag was consulted.
        task: u32,
    },
    /// A ULI steal request was sent (and not dropped by fault injection).
    UliReqSend {
        /// Receiving (victim) core.
        to: usize,
    },
    /// A ULI response was sent back to a waiting thief.
    UliRespSend {
        /// Receiving (thief) core.
        to: usize,
    },
    /// A ULI response was received by the thief that polled for it.
    UliRespRecv {
        /// Responding (victim) core.
        from: usize,
    },
    /// The victim's ULI handler began executing a received request.
    HandlerEnter {
        /// Requesting (thief) core.
        from: usize,
    },
}

/// The memory-model-relevant payload of one event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemOp {
    /// A sequenced word load. `racy: Some(tag)` marks an audited
    /// benign-race load the HB pass exempts.
    Load {
        /// Word address loaded.
        addr: Addr,
        /// Benign-race annotation, if any.
        racy: Option<RacyTag>,
    },
    /// A sequenced word store. `racy: Some(tag)` marks an audited
    /// benign-race store (same-value idempotent writes) the HB pass treats
    /// as an atomic-like write.
    Store {
        /// Word address stored.
        addr: Addr,
        /// Benign-race annotation, if any.
        racy: Option<RacyTag>,
    },
    /// A sequenced atomic read-modify-write (acquire-release in HB).
    Amo {
        /// Word address operated on.
        addr: Addr,
    },
    /// Bulk self-invalidation of the core's clean cached data
    /// (`cache_invalidate`, Figure 3(b) line 3).
    InvalidateAll,
    /// Bulk write-back of the core's dirty data (`cache_flush`,
    /// Figure 3(b) line 4/9).
    FlushAll,
    /// A runtime synchronization annotation (no memory traffic).
    Sync(SyncNote),
}

/// One entry of the checker's event stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemEvent {
    /// The emitting core's local clock when the operation was granted.
    pub cycle: u64,
    /// The emitting core.
    pub core: usize,
    /// What happened.
    pub op: MemOp,
}
