#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! DRF conformance checker for the big.TINY op stream.
//!
//! The paper's correctness argument (Section III) is that the runtimes of
//! Figure 3 are data-race-free *given* their sync discipline: every deque
//! acquire is followed by a `cache_invalidate`, every release preceded by a
//! `cache_flush`, and DTS's `has_stolen_child` elision only skips them on
//! steal-free joins. This crate is the oracle that checks an actual
//! execution against that argument. It consumes the addressed per-op event
//! stream a [`CheckMode`]-armed run records
//! ([`bigtiny_engine::RunReport::mem_events`]) and replays it through three
//! cooperating passes:
//!
//! 1. **Happens-before** ([`ViolationKind::HbRace`]) — a vector-clock
//!    race detector. Sync edges come from AMOs
//!    (acquire-release on the word's sync clock), deque release stores
//!    (marked by [`SyncNote::DequeRelease`](bigtiny_engine::SyncNote::DequeRelease)), ULI request/response
//!    delivery, and the join-counter spin (a [`RacyTag::RcWaitLoop`] load
//!    acquires the counter's sync clock — the paper's argument for why the
//!    plain spin is safe). Audited benign-race loads are race-exempt.
//! 2. **Staleness** ([`ViolationKind::StaleMissingInvalidate`],
//!    [`ViolationKind::StaleMissingFlush`]) — a word-granular replay of
//!    each protocol's visibility rules from `bigtiny-coherence`, flagging
//!    every non-racy load that could legally observe stale data on real
//!    hardware: a cached copy outliving a remote write with no invalidate
//!    on the reader, or a miss served while the latest write sits
//!    unflushed in a GPU-WB cache.
//! 3. **Sync-discipline lint** ([`ViolationKind::LintAcquireNoInvalidate`],
//!    [`ViolationKind::LintReleaseNoFlush`],
//!    [`ViolationKind::LintHscElideAfterSteal`]) — the Figure 3 structure,
//!    checked literally against the runtime's own annotations.
//!
//! The checker is deterministic: the event stream is a pure function of
//! the simulated schedule (which is deterministic), and the passes do no
//! hashing-order-dependent iteration, so the same run always yields the
//! same report and the same [`CheckReport::verdict_hash`].

pub mod audit;
pub mod explore;
mod hb;
mod lint;
mod stale;

pub use audit::{
    audit_task_events, audit_task_events_mode, kernel_is_duplicate_safe, kernel_is_idempotent,
    AuditMode, AuditReport, AuditViolation, AuditViolationKind, DUPLICATE_SAFE_KERNELS,
    IDEMPOTENT_KERNELS,
};

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use bigtiny_coherence::{Addr, Protocol};
use bigtiny_engine::{hash, CheckMode, MemEvent, MemOp, RacyTag, RunReport, SystemConfig};

/// Deterministic single-round multiply-xor hasher for the checker's maps.
/// Their keys are dense word ids, page numbers and core ids of the
/// simulated machine, never attacker-chosen, so SipHash's DoS resistance
/// buys nothing here. No verdict may depend on a map's order: where the
/// staleness pass iterates a map (bulk invalidate/flush) each word is
/// handled independently of the others.
#[derive(Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

/// A map keyed by dense word id or page number.
pub(crate) type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

/// Dense word ids in first-touch order, for the passes' per-word vectors.
/// The ids sit in 64-word pages: neighbouring words share a page, and the
/// page map stays in cache where a map over every word would not.
#[derive(Default)]
struct WordIds {
    pages: WordMap<Box<[Option<u32>; 64]>>,
    len: u32,
}

impl WordIds {
    /// The id of the word at `addr`, and whether it was just assigned.
    fn get(&mut self, addr: u64) -> (usize, bool) {
        // A misaligned address gets a page of its own kind.
        let page = addr >> 9 | (addr & 7) << 61;
        let page = self.pages.entry(page).or_insert_with(|| Box::new([None; 64]));
        let slot = &mut page[(addr >> 3) as usize % 64];
        let fresh = slot.is_none();
        let id = *slot.get_or_insert(self.len);
        self.len += u32::from(fresh);
        (id as usize, fresh)
    }
}

/// What kind of conformance violation a finding reports.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ViolationKind {
    /// Two conflicting accesses (at least one a plain, non-exempt access)
    /// with no happens-before edge between them.
    HbRace,
    /// A load hit a cached copy that a remote write had made stale, with no
    /// `cache_invalidate` on the reader in between (the acquire-side half
    /// of Figure 3's discipline).
    StaleMissingInvalidate,
    /// A load missed while the latest write to the word sat unflushed in a
    /// remote GPU-WB cache (the release-side half: `cache_flush` before
    /// publishing).
    StaleMissingFlush,
    /// A deque lock acquire was not followed by a `cache_invalidate`
    /// before the first data access (Figure 3(b) line 3), on a protocol
    /// where the invalidate is not a no-op.
    LintAcquireNoInvalidate,
    /// A deque lock release with dirty data since the last `cache_flush`
    /// (Figure 3(b) line 4/9), on a protocol where the flush is not a
    /// no-op.
    LintReleaseNoFlush,
    /// A `has_stolen_child` elision fired for a task that *did* have a
    /// stolen child (Figure 3(c) line 8 taken on a steal-tainted join).
    LintHscElideAfterSteal,
    /// The event stream itself is malformed (e.g. a ULI handler entry with
    /// no matching request send) — a harness bug, not a runtime bug.
    ProtocolStream,
}

impl ViolationKind {
    /// Every kind, in severity/report order.
    pub const ALL: [ViolationKind; 7] = [
        ViolationKind::HbRace,
        ViolationKind::StaleMissingInvalidate,
        ViolationKind::StaleMissingFlush,
        ViolationKind::LintAcquireNoInvalidate,
        ViolationKind::LintReleaseNoFlush,
        ViolationKind::LintHscElideAfterSteal,
        ViolationKind::ProtocolStream,
    ];

    /// Stable label used in reports and verdict JSON.
    pub fn label(self) -> &'static str {
        match self {
            ViolationKind::HbRace => "hb-race",
            ViolationKind::StaleMissingInvalidate => "stale-missing-invalidate",
            ViolationKind::StaleMissingFlush => "stale-missing-flush",
            ViolationKind::LintAcquireNoInvalidate => "lint-acquire-no-invalidate",
            ViolationKind::LintReleaseNoFlush => "lint-release-no-flush",
            ViolationKind::LintHscElideAfterSteal => "lint-hsc-elide-after-steal",
            ViolationKind::ProtocolStream => "protocol-stream",
        }
    }
}

/// One conformance finding, with the diagnostics the ISSUE demands:
/// which core, at which simulated cycle, on which address.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Core whose access exposed the violation.
    pub core: usize,
    /// That core's local clock when the offending operation was granted.
    pub cycle: u64,
    /// Word address involved, when the violation is addressed.
    pub addr: Option<Addr>,
    /// Human-readable specifics (the other side of the race, version
    /// numbers, the lock or task involved).
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] core {} cycle {}", self.kind.label(), self.core, self.cycle)?;
        if let Some(a) = self.addr {
            write!(f, " addr {a}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// The result of checking one run's event stream.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Mode the check ran under.
    pub mode: CheckMode,
    /// Events consumed.
    pub events: u64,
    /// Findings, sorted by `(cycle, core)` — `violations.first()` is the
    /// earliest violation of the run. Deduplicated per `(kind, subject)`:
    /// one stale word produces one finding, however often it is re-read.
    pub violations: Vec<Violation>,
    /// Findings suppressed by deduplication.
    pub suppressed: u64,
    /// Audited benign-race load counts, per [`RacyTag`] (whitelist order).
    /// The staleness pass never flags these, but the audit keeps them
    /// visible: a verdict is "clean, with N declared benign races".
    pub racy_loads: [u64; RacyTag::ALL.len()],
}

impl CheckReport {
    /// No violations of any kind.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The earliest finding (by cycle, then core), if any.
    pub fn first(&self) -> Option<&Violation> {
        self.violations.first()
    }

    /// Number of findings of one kind (after deduplication).
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// Total audited benign-race loads.
    pub fn racy_total(&self) -> u64 {
        self.racy_loads.iter().sum()
    }

    /// FNV-1a fingerprint of the verdict: folds every finding's kind,
    /// core, cycle and address plus the racy-load audit. Two runs with the
    /// same schedule produce the same hash; a mutation that changes any
    /// finding changes it.
    pub fn verdict_hash(&self) -> u64 {
        let mut h = hash::FNV_OFFSET;
        for v in &self.violations {
            h = hash::fnv1a_continue(h, v.kind.label().as_bytes());
            h = hash::fnv1a_continue(h, &(v.core as u64).to_le_bytes());
            h = hash::fnv1a_continue(h, &v.cycle.to_le_bytes());
            h = hash::fnv1a_continue(h, &v.addr.map_or(u64::MAX, |a| a.0).to_le_bytes());
        }
        for n in self.racy_loads {
            h = hash::fnv1a_continue(h, &n.to_le_bytes());
        }
        h
    }

    /// Renders a short human-readable summary (first finding + counts).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.is_clean() {
            out.push_str(&format!(
                "clean: {} events, {} audited benign-race loads\n",
                self.events,
                self.racy_total()
            ));
        } else {
            out.push_str(&format!(
                "{} violation(s) (+{} deduplicated) in {} events\n",
                self.violations.len(),
                self.suppressed,
                self.events
            ));
            for kind in ViolationKind::ALL {
                let n = self.count(kind);
                if n > 0 {
                    out.push_str(&format!("  {:>5} x {}\n", n, kind.label()));
                }
            }
            out.push_str(&format!("  first: {}\n", self.violations[0]));
        }
        out
    }
}

/// Deduplicating violation collector shared by the three passes.
pub(crate) struct Collector {
    violations: Vec<Violation>,
    seen: std::collections::HashSet<(ViolationKind, u64)>,
    suppressed: u64,
}

impl Collector {
    fn new() -> Self {
        Collector { violations: Vec::new(), seen: std::collections::HashSet::new(), suppressed: 0 }
    }

    /// Records a finding unless an equal `(kind, subject)` was already
    /// reported; `subject` is the word address for addressed findings, the
    /// task id for `has_stolen_child` findings, the core for stream errors.
    pub(crate) fn report(
        &mut self,
        kind: ViolationKind,
        core: usize,
        cycle: u64,
        addr: Option<Addr>,
        subject: u64,
        detail: String,
    ) {
        if self.seen.insert((kind, subject)) {
            self.violations.push(Violation { kind, core, cycle, addr, detail });
        } else {
            self.suppressed += 1;
        }
    }
}

/// Checks an event stream recorded by an armed run.
///
/// `protocols` gives the per-core L1 protocol, in core-id order (the
/// stream's `core` fields index into it; an event naming a core outside
/// it is reported as a [`ViolationKind::ProtocolStream`] finding and
/// skipped). [`CheckMode::Full`] runs all three passes;
/// [`CheckMode::Off`] returns an empty, clean report.
pub fn check_events(protocols: &[Protocol], mode: CheckMode, events: &[MemEvent]) -> CheckReport {
    let mut col = Collector::new();
    let mut racy = [0u64; RacyTag::ALL.len()];
    if mode.armed() {
        // Real streams touch about one new word per four to fifteen events.
        let words = events.len() / 4;
        let mut hb = hb::HbPass::new(protocols.len(), words);
        let mut stale = stale::StalePass::new(protocols, words);
        let mut lint = lint::LintPass::new(protocols);
        // One lookup per addressed event; both passes index vectors by id.
        let mut ids = WordIds::default();
        for ev in events {
            if ev.core >= protocols.len() {
                let (c, n) = (ev.core, protocols.len());
                let detail = format!("event names core {c} of a {n}-core machine");
                col.report(ViolationKind::ProtocolStream, c, ev.cycle, None, c as u64, detail);
                continue;
            }
            let id = match ev.op {
                MemOp::Load { addr, .. } | MemOp::Store { addr, .. } | MemOp::Amo { addr } => {
                    let (id, fresh) = ids.get(addr.0);
                    if fresh {
                        hb.add_word();
                        stale.add_word();
                    }
                    id
                }
                _ => 0,
            };
            if let MemOp::Load { racy: Some(tag), .. } = ev.op {
                racy[RacyTag::ALL.iter().position(|t| *t == tag).expect("tag in whitelist")] += 1;
            }
            hb.step(ev, id, &mut col);
            stale.step(ev, id, &mut col);
            lint.step(ev, &mut col);
        }
    }
    let mut violations = col.violations;
    violations.sort_by_key(|v| (v.cycle, v.core));
    CheckReport {
        mode,
        events: events.len() as u64,
        violations,
        suppressed: col.suppressed,
        racy_loads: racy,
    }
}

/// Convenience wrapper: checks a finished run against its own system
/// configuration (per-core protocols and armed [`CheckMode`] are taken
/// from `sys`; the event stream from `report.mem_events`).
pub fn check_run(sys: &SystemConfig, report: &RunReport) -> CheckReport {
    let protocols: Vec<Protocol> = sys.cores.iter().map(|c| c.mem.protocol).collect();
    check_events(&protocols, sys.check, &report.mem_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_engine::SyncNote;

    fn ev(cycle: u64, core: usize, op: MemOp) -> MemEvent {
        MemEvent { cycle, core, op }
    }

    fn load(a: u64) -> MemOp {
        MemOp::Load { addr: Addr(a), racy: None }
    }

    fn racy_load(a: u64, tag: RacyTag) -> MemOp {
        MemOp::Load { addr: Addr(a), racy: Some(tag) }
    }

    fn store(a: u64) -> MemOp {
        MemOp::Store { addr: Addr(a), racy: None }
    }

    fn racy_store(a: u64, tag: RacyTag) -> MemOp {
        MemOp::Store { addr: Addr(a), racy: Some(tag) }
    }

    fn amo(a: u64) -> MemOp {
        MemOp::Amo { addr: Addr(a) }
    }

    const MESI2: [Protocol; 2] = [Protocol::Mesi, Protocol::Mesi];
    const GWB2: [Protocol; 2] = [Protocol::GpuWb, Protocol::GpuWb];
    const DNV2: [Protocol; 2] = [Protocol::DeNovo, Protocol::DeNovo];

    #[test]
    fn off_mode_reports_nothing() {
        let events = [ev(0, 0, store(64)), ev(1, 1, load(64))];
        let r = check_events(&MESI2, CheckMode::Off, &events);
        assert!(r.is_clean());
        assert_eq!(r.events, 2);
    }

    #[test]
    fn unsynchronized_read_write_is_a_race() {
        let events = [ev(0, 0, store(64)), ev(5, 1, load(64))];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::HbRace), 1);
        assert_eq!(r.violations.len(), 1, "MESI: staleness and lint add nothing");
        let v = r.first().unwrap();
        assert_eq!((v.core, v.cycle, v.addr), (1, 5, Some(Addr(64))));
    }

    #[test]
    fn amo_chain_orders_accesses() {
        // Core 0 writes data, releases via AMO on a flag; core 1 acquires
        // via AMO on the same flag, then reads the data: no race.
        let events =
            [ev(0, 0, store(64)), ev(1, 0, amo(128)), ev(5, 1, amo(128)), ev(6, 1, load(64))];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn release_store_publishes_like_an_atomic() {
        // Lock handoff: core 0 holds the lock (AMO), writes data, flushes,
        // marks + stores the release; core 1 re-acquires with an AMO and
        // reads the data. The plain release store must carry release
        // semantics or this would (falsely) race.
        let events = [
            ev(0, 0, amo(8)),
            ev(1, 0, store(64)),
            ev(2, 0, MemOp::FlushAll),
            ev(3, 0, MemOp::Sync(SyncNote::DequeRelease { lock: Addr(8) })),
            ev(3, 0, store(8)),
            ev(9, 1, amo(8)),
            ev(10, 1, MemOp::InvalidateAll),
            ev(11, 1, load(64)),
        ];
        let r = check_events(&GWB2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn racy_loads_are_exempt_but_audited() {
        let events = [
            ev(0, 0, store(64)),
            ev(5, 1, racy_load(64, RacyTag::LigraCondProbe)),
            ev(6, 1, racy_load(64, RacyTag::LigraCondProbe)),
        ];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.racy_total(), 2);
        let idx = RacyTag::ALL.iter().position(|t| *t == RacyTag::LigraCondProbe).unwrap();
        assert_eq!(r.racy_loads[idx], 2);
    }

    #[test]
    fn racy_stores_spare_each_other_but_convict_plain_accesses() {
        // Two cores concurrently set the same dedup flag to the same
        // value (Ligra insert): audited, no race — including against a
        // concurrent racy probe.
        let events = [
            ev(0, 0, racy_store(64, RacyTag::LigraDedupFlag)),
            ev(1, 1, racy_store(64, RacyTag::LigraDedupFlag)),
            ev(2, 1, racy_load(64, RacyTag::LigraDedupFlag)),
        ];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
        // An unordered *plain* access still races with the audited store.
        let events = [ev(0, 0, racy_store(64, RacyTag::LigraDedupFlag)), ev(5, 1, store(64))];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::HbRace), 1, "{}", r.render());
        assert_eq!(r.violations.len(), 1, "{}", r.render());
    }

    #[test]
    fn rc_wait_loop_load_acquires_the_counter_clock() {
        // Child decrements the join counter with an AMO; the parent's
        // tagged spin read of zero synchronizes with it, ordering the
        // parent's read of the child's data (the Figure 3(c) join
        // argument).
        let events = [
            ev(0, 1, store(64)),                           // child result
            ev(1, 1, amo(128)),                            // rc decrement (release)
            ev(5, 0, racy_load(128, RacyTag::RcWaitLoop)), // spin read sees 0
            ev(6, 0, MemOp::InvalidateAll),
            ev(7, 0, load(64)), // parent reads result
        ];
        let r = check_events(&DNV2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn stale_cached_copy_without_invalidate_is_flagged() {
        // Core 1 caches the word, core 0 rewrites it (DeNovo: commits +
        // owns, no remote invalidation), core 1 re-reads its cached copy
        // with sync (AMO) but *without* an invalidate.
        let events = [
            ev(0, 0, store(64)),
            ev(1, 0, amo(128)),  // release
            ev(2, 1, amo(128)),  // acquire
            ev(3, 1, load(64)),  // fill: committed v1
            ev(4, 1, amo(256)),  // release (publish the read)
            ev(5, 0, amo(256)),  // acquire
            ev(6, 0, store(64)), // v2; core 1's copy now stale
            ev(7, 0, amo(192)),  // release on another flag
            ev(9, 1, amo(192)),  // acquire — but no InvalidateAll
            ev(10, 1, load(64)), // stale hit
        ];
        let r = check_events(&DNV2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::StaleMissingInvalidate), 1, "{}", r.render());
        assert_eq!(r.violations.len(), 1, "HB-clean by design: {}", r.render());
        let v = r.first().unwrap();
        assert_eq!((v.core, v.cycle, v.addr), (1, 10, Some(Addr(64))));
        // The same schedule with the invalidate inserted is fully clean.
        let mut fixed = events.to_vec();
        fixed.insert(9, ev(9, 1, MemOp::InvalidateAll));
        let r = check_events(&DNV2, CheckMode::Full, &fixed);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn unflushed_gwb_write_read_remotely_is_flagged() {
        // Core 0 writes under GPU-WB (dirty, uncommitted), releases the
        // lock WITHOUT flushing; core 1 acquires, invalidates, and misses:
        // the L2 can only supply the stale committed version.
        let events = [
            ev(0, 0, amo(8)),
            ev(1, 0, store(64)),
            ev(2, 0, MemOp::Sync(SyncNote::DequeRelease { lock: Addr(8) })),
            ev(2, 0, store(8)),
            ev(9, 1, amo(8)),
            ev(10, 1, MemOp::InvalidateAll),
            ev(11, 1, load(64)),
        ];
        let r = check_events(&GWB2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::StaleMissingFlush), 1, "{}", r.render());
        let v = r.violations.iter().find(|v| v.kind == ViolationKind::StaleMissingFlush).unwrap();
        assert_eq!((v.core, v.cycle, v.addr), (1, 11, Some(Addr(64))));
        assert!(v.detail.contains("core 0"), "blames the unflushed writer: {}", v.detail);
        // The lint also notices the structural hole.
        assert_eq!(r.count(ViolationKind::LintReleaseNoFlush), 1, "{}", r.render());
    }

    #[test]
    fn mesi_tolerates_the_same_elision() {
        // Identical schedule, MESI cores: stores commit and invalidate
        // remote copies, so the flush-free handoff is safe — and the lint
        // knows the flush is a no-op.
        let events = [
            ev(0, 0, amo(8)),
            ev(1, 0, store(64)),
            ev(2, 0, MemOp::Sync(SyncNote::DequeRelease { lock: Addr(8) })),
            ev(2, 0, store(8)),
            ev(9, 1, amo(8)),
            ev(11, 1, load(64)),
        ];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn acquire_without_invalidate_lint() {
        let events = [
            ev(0, 0, amo(8)),
            ev(0, 0, MemOp::Sync(SyncNote::DequeAcquire { lock: Addr(8) })),
            ev(1, 0, load(16)), // first CS access with no InvalidateAll
        ];
        let r = check_events(&DNV2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::LintAcquireNoInvalidate), 1, "{}", r.render());
        let v = r.first().unwrap();
        assert_eq!((v.core, v.cycle, v.addr), (0, 1, Some(Addr(16))));
        // MESI: invalidate is a no-op, same stream is clean.
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::LintAcquireNoInvalidate), 0, "{}", r.render());
    }

    #[test]
    fn hsc_elide_after_steal_lint() {
        let events = [
            ev(0, 0, MemOp::Sync(SyncNote::HscSet { task: 7 })),
            ev(5, 0, MemOp::Sync(SyncNote::HscElide { task: 7 })),
        ];
        let r = check_events(&DNV2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::LintHscElideAfterSteal), 1);
        // Eliding a task that was never stolen is the optimization working.
        let events = [
            ev(0, 0, MemOp::Sync(SyncNote::HscSet { task: 3 })),
            ev(5, 0, MemOp::Sync(SyncNote::HscElide { task: 7 })),
        ];
        let r = check_events(&DNV2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn uli_edges_order_victim_and_thief() {
        // Victim (core 0) writes the mailbox in its handler and responds;
        // the thief's read of the mailbox after receiving the response is
        // ordered. Without the response edge this would race.
        let events = [
            ev(0, 1, MemOp::Sync(SyncNote::UliReqSend { to: 0 })),
            ev(4, 0, MemOp::Sync(SyncNote::HandlerEnter { from: 1 })),
            ev(5, 0, store(64)), // mailbox write
            ev(6, 0, MemOp::FlushAll),
            ev(7, 0, MemOp::Sync(SyncNote::UliRespSend { to: 1 })),
            ev(12, 1, MemOp::Sync(SyncNote::UliRespRecv { from: 0 })),
            ev(13, 1, MemOp::InvalidateAll),
            ev(14, 1, load(64)),
        ];
        let r = check_events(&GWB2, CheckMode::Full, &events);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn malformed_uli_stream_is_a_stream_error() {
        let events = [ev(4, 0, MemOp::Sync(SyncNote::HandlerEnter { from: 1 }))];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::ProtocolStream), 1);
        assert_eq!(r.violations.len(), 1, "{}", r.render());
    }

    #[test]
    fn an_event_on_an_unknown_core_is_a_stream_error() {
        let events =
            [ev(0, 0, store(64)), ev(3, 7, load(64)), ev(4, 7, store(8)), ev(5, 0, load(64))];
        let r = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(r.count(ViolationKind::ProtocolStream), 1, "{}", r.render());
        assert_eq!(r.violations.len(), 1, "the skipped events race with nothing: {}", r.render());
        assert_eq!(r.suppressed, 1);
        let v = r.first().unwrap();
        assert_eq!((v.core, v.cycle, v.addr), (7, 3, None));
        assert_eq!(v.detail, "event names core 7 of a 2-core machine");
    }

    #[test]
    fn dedup_and_verdict_hash_are_stable() {
        let events = [
            ev(0, 0, store(64)),
            ev(5, 1, load(64)),
            ev(6, 1, load(64)), // same race again: deduplicated
        ];
        let a = check_events(&MESI2, CheckMode::Full, &events);
        let b = check_events(&MESI2, CheckMode::Full, &events);
        assert_eq!(a.count(ViolationKind::HbRace), 1);
        assert_eq!(a.violations.len(), 1, "{}", a.render());
        assert_eq!(a.suppressed, 1);
        assert_eq!(a.verdict_hash(), b.verdict_hash());
        let clean = check_events(&MESI2, CheckMode::Off, &events);
        assert_ne!(a.verdict_hash(), clean.verdict_hash());
    }
}
