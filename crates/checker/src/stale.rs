//! Staleness oracle: replays each protocol's visibility rules from
//! `bigtiny-coherence` over the op stream and flags every non-exempt load
//! that could legally observe stale data.
//!
//! The model is word-granular and eviction-blind: each word has a global
//! `latest` version (bumped by every store/AMO), a `committed` version
//! (what the shared L2 would supply on a miss), a last `writer` for blame,
//! and an optional ownership pin (MESI Modified / DeNovo registration);
//! each core holds a set of word copies `{version, dirty}`. A MESI copy is
//! always the committed version — every commit drops the other MESI
//! copies, and a MESI fill revokes a DeNovo owner, whose later stores
//! would commit without a drop — so MESI copies are kept only as the
//! word's set of MESI holders. Protocol
//! effects mirror the memory model (`coherence`'s `ops.rs` for the L1 side,
//! `directory.rs` for the L2 side) but are restated here per protocol rather
//! than through its Table-I axis predicates: an independent reference must
//! not share the statement it checks.
//!
//! * **MESI** stores commit and invalidate other *MESI* copies (hardware
//!   tracks MESI sharers in the directory; software-centric caches are
//!   deliberately untracked — that is the whole reason Figure 3 needs
//!   self-invalidation).
//! * **DeNovo** stores commit and register ownership; the owned copy is
//!   immune to self-invalidation.
//! * **GPU-WT** stores commit (write-through) without allocating.
//! * **GPU-WB** stores only dirty the local copy; `committed` advances at
//!   the next `cache_flush` — so a remote miss in between is served stale.
//! * **AMOs** execute at the point of coherence (L1 for MESI/DeNovo, L2
//!   for the GPU protocols) and always commit. AMO reads are never
//!   staleness-checked: in the simulator the L2 AMO observes `latest`
//!   directly, so e.g. a GPU-WB lock handoff whose unlock store is still
//!   unflushed is correct, and flagging it would condemn every clean run.
//!
//! Two checks fire, matching the two halves of Figure 3's discipline:
//! a *hit* on an unpinned copy older than `latest` is a missing
//! invalidate (acquire side); a *miss* while `committed < latest` is a
//! missing flush (release side, blamed on the delinquent writer). The
//! miss check also covers MESI readers — the simulator skips it there
//! (`ops.rs::load_miss` trusts hardware-coherent fills), but a MESI big
//! core reading a word some tiny core left unflushed is the same runtime
//! bug, and clean runs never trip it because clean remote reads happen
//! only after a flush-and-release.
//!
//! Word granularity and eviction blindness can only *miss* violations
//! (a reused or evicted line hides a stale copy), never invent them, so
//! a clean verdict is trustworthy modulo that documented slack.

use bigtiny_coherence::{CoreSet, Protocol};
use bigtiny_engine::{MemEvent, MemOp};

use crate::{Collector, ViolationKind, WordMap};

/// One core's cached copy of a word.
#[derive(Clone, Copy)]
struct Copy {
    version: u64,
    dirty: bool,
}

/// Everything the pass knows about one word besides the cores' copies.
#[derive(Clone, Copy, Default)]
struct Word {
    /// Global version (every store/AMO bumps it).
    latest: u64,
    /// Version the shared L2 would supply on a miss.
    committed: u64,
    /// Last writer `(core, cycle)`, for blame.
    writer: Option<(usize, u64)>,
    /// Ownership pin: MESI Modified or DeNovo registration.
    owner: Option<usize>,
    /// The MESI cores holding a copy of the word (the directory's sharer
    /// list at word granularity), which is all there is of their copies.
    mesi_holders: CoreSet,
}

/// The staleness pass.
pub(crate) struct StalePass {
    protocols: Vec<Protocol>,
    /// Per-word record, indexed by the dense word id `check_events` assigns.
    words: Vec<Word>,
    /// Per-core word copies, keyed by dense word id (empty for MESI cores).
    copies: Vec<WordMap<Copy>>,
    /// Per core, every word it dirtied since its last flush (possibly
    /// twice, or since dropped by an AMO), so that neither a flush nor an
    /// invalidate has to scan the core's copies for dirty ones.
    dirtied: Vec<Vec<usize>>,
}

impl StalePass {
    /// A pass over cores with these protocols, with room for `words` word ids.
    pub(crate) fn new(protocols: &[Protocol], words: usize) -> Self {
        StalePass {
            protocols: protocols.to_vec(),
            words: Vec::with_capacity(words),
            copies: vec![WordMap::default(); protocols.len()],
            dirtied: vec![Vec::new(); protocols.len()],
        }
    }

    /// Makes room for the next dense word id.
    pub(crate) fn add_word(&mut self) {
        self.words.push(Word::default());
    }

    /// `core`'s copy of word `id`, if it holds one.
    fn copy(&self, core: usize, id: usize) -> Option<Copy> {
        let word = &self.words[id];
        if self.protocols[core] == Protocol::Mesi {
            let copy = Copy { version: word.committed, dirty: false };
            word.mesi_holders.contains(core).then_some(copy)
        } else {
            self.copies[core].get(&(id as u64)).copied()
        }
    }

    /// Gives `core` a copy of word `id`.
    fn install(&mut self, core: usize, id: usize, copy: Copy) {
        if self.protocols[core] == Protocol::Mesi {
            debug_assert!(copy.version == self.words[id].committed && !copy.dirty);
            self.words[id].mesi_holders.insert(core);
        } else {
            let old = self.copies[core].insert(id as u64, copy);
            if copy.dirty && old.is_none_or(|old| !old.dirty) {
                self.dirtied[core].push(id);
            }
        }
    }

    /// Invalidate other MESI cores' copies of word `id` (the directory
    /// tracks MESI sharers only) and clear a MESI ownership pin.
    fn drop_other_mesi(&mut self, id: usize, except: usize) {
        let word = &mut self.words[id];
        let kept = word.mesi_holders.contains(except);
        word.mesi_holders = CoreSet::EMPTY;
        if kept {
            word.mesi_holders.insert(except);
        }
        if word.owner.is_some_and(|o| o != except && self.protocols[o] == Protocol::Mesi) {
            word.owner = None;
        }
    }

    /// Post-commit effects of an L1-coherent write (MESI / DeNovo store,
    /// or an AMO on those protocols).
    fn own_after_commit(&mut self, core: usize, id: usize) {
        // Ownership is fetched only on the not-yet-owned path (a MESI owner
        // is already the only MESI holder). A software-centric owner is
        // unpinned (the directory recall commits nothing new) but keeps its
        // — now stale — copy; only its own invalidate can clear it.
        if self.words[id].owner != Some(core) {
            self.drop_other_mesi(id, core);
            self.words[id].owner = Some(core);
        }
        let version = self.words[id].latest;
        self.install(core, id, Copy { version, dirty: false });
    }

    /// Bumps word `id`'s version for a store or AMO by `ev.core`.
    fn bump(&mut self, ev: &MemEvent, id: usize) -> u64 {
        let word = &mut self.words[id];
        word.latest += 1;
        word.writer = Some((ev.core, ev.cycle));
        word.latest
    }

    /// Replays one event; `id` is the dense id of the word an addressed op
    /// touches (unused by the others).
    pub(crate) fn step(&mut self, ev: &MemEvent, id: usize, col: &mut Collector) {
        let (core, cycle) = (ev.core, ev.cycle);
        match ev.op {
            MemOp::Load { addr, racy } => {
                let Word { latest, committed, owner, .. } = self.words[id];
                // A finding names the word's last writer, for blame.
                let stale = match self.copy(core, id) {
                    // Pinned copies (owned, or dirty under GPU-WB) are the
                    // word's freshest value by construction.
                    Some(cp) => {
                        (owner != Some(core) && !cp.dirty && cp.version < latest).then(|| {
                            let v = cp.version;
                            let head =
                                format!("load hit cached version {v} but version {latest} was");
                            let tail = "with no cache_invalidate on this core since";
                            (ViolationKind::StaleMissingInvalidate, head, tail)
                        })
                    }
                    None => {
                        // Fill. A MESI reader revokes a software-centric
                        // owner (directory recall); a software-centric
                        // reader downgrades a MESI owner to Shared.
                        let mesi = |c: usize| self.protocols[c] == Protocol::Mesi;
                        if owner.is_some_and(|o| o != core && (mesi(core) || mesi(o))) {
                            self.words[id].owner = None;
                        }
                        self.install(core, id, Copy { version: committed, dirty: false });
                        (committed < latest).then(|| {
                            let head = format!(
                                "load missed and the L2 can only supply version {committed}, but \
                                 version {latest}"
                            );
                            (ViolationKind::StaleMissingFlush, head, "is still unflushed")
                        })
                    }
                };
                if let (None, Some((kind, head, tail))) = (racy, stale) {
                    let by = match self.words[id].writer {
                        Some((c, cy)) => format!("core {c} at cycle {cy}"),
                        None => "host initialization".to_string(),
                    };
                    let detail = format!("{head} written by {by} {tail}");
                    col.report(kind, core, cycle, Some(addr), addr.0, detail);
                }
            }
            MemOp::Store { .. } => {
                let latest = self.bump(ev, id);
                match self.protocols[core] {
                    Protocol::Mesi | Protocol::DeNovo => {
                        self.words[id].committed = latest;
                        self.own_after_commit(core, id);
                    }
                    Protocol::GpuWt => {
                        // Write-through, no-allocate: commits immediately,
                        // invalidates tracked (MESI) sharers, updates a
                        // resident copy but does not install one.
                        self.words[id].committed = latest;
                        self.drop_other_mesi(id, core);
                        self.words[id].owner = None;
                        if let Some(cp) = self.copies[core].get_mut(&(id as u64)) {
                            cp.version = latest;
                        }
                    }
                    Protocol::GpuWb => {
                        // Write-back: dirty in L1 only. No commit and no
                        // remote effects until the flush — which is what
                        // makes a dropped flush observable.
                        self.install(core, id, Copy { version: latest, dirty: true });
                    }
                }
            }
            MemOp::Amo { .. } => {
                // AMOs always commit at their point of coherence; the
                // read side is never staleness-checked (see module docs).
                self.words[id].committed = self.bump(ev, id);
                if self.protocols[core].amo_in_l1() {
                    self.own_after_commit(core, id);
                } else {
                    // Executed at the L2: tracked sharers are invalidated,
                    // any owner recalled, and the issuing core's own copy
                    // is invalidated (the sim drops the word from its L1).
                    self.drop_other_mesi(id, core);
                    self.words[id].owner = None;
                    self.copies[core].remove(&(id as u64));
                }
            }
            MemOp::InvalidateAll => match self.protocols[core] {
                // MESI caches are hardware-coherent; the runtime call is a
                // no-op. DeNovo keeps owned words, GPU-WT drops
                // everything, GPU-WB keeps only dirty words.
                Protocol::Mesi => {}
                Protocol::DeNovo => {
                    let words = &self.words;
                    self.copies[core].retain(|&id, _| words[id as usize].owner == Some(core));
                }
                Protocol::GpuWt => self.copies[core].clear(),
                Protocol::GpuWb if self.dirtied[core].is_empty() => self.copies[core].clear(),
                Protocol::GpuWb => self.copies[core].retain(|_, cp| cp.dirty),
            },
            MemOp::FlushAll => {
                // Only GPU-WB buffers dirty data in the L1 (everything
                // else already committed at store time), and only it
                // records the words it dirtied.
                let mut dirtied = std::mem::take(&mut self.dirtied[core]);
                for &id in &dirtied {
                    match self.copies[core].get_mut(&(id as u64)) {
                        Some(cp) if cp.dirty => cp.dirty = false,
                        _ => continue,
                    }
                    self.words[id].committed = self.words[id].latest;
                    // The write-back recalls/invalidates tracked sharers
                    // so MESI cores refetch the fresh value.
                    self.drop_other_mesi(id, core);
                }
                dirtied.clear();
                self.dirtied[core] = dirtied;
            }
            MemOp::Sync(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_coherence::Addr;
    use bigtiny_engine::XorShift64;

    /// MESI copies are kept only as each word's `mesi_holders`, read back
    /// as the committed version, and `drop_other_mesi` trusts that set
    /// instead of walking every core. So after every event of any stream
    /// — on every protocol mix, including the all-MESI machine — a commit
    /// must leave no MESI holder but the committer, a DeNovo owner must
    /// have no MESI holders (its stores commit without a drop) and a MESI
    /// owner must be the only one; and `dirtied` must name every dirty
    /// copy, since a flush or invalidate trusts it instead of scanning.
    #[test]
    fn mesi_holders_mirror_the_copies_after_every_event() {
        use Protocol::{DeNovo, GpuWb, GpuWt, Mesi};
        let mut rng = XorShift64::new(0x484f_4c44_4552_5331);
        for protocols in [[Mesi; 6], [Mesi, Mesi, DeNovo, GpuWt, GpuWb, GpuWb]] {
            let mut pass = StalePass::new(&protocols, 24);
            (0..24).for_each(|_| pass.add_word());
            let mut col = Collector::new();
            for cycle in 0..20_000 {
                let id = rng.next_below(24) as usize;
                let addr = Addr(0x1000 + id as u64 * 8);
                let op = match rng.next_below(10) {
                    0..=3 => MemOp::Load { addr, racy: None },
                    4..=6 => MemOp::Store { addr, racy: None },
                    7 => MemOp::Amo { addr },
                    8 => MemOp::InvalidateAll,
                    _ => MemOp::FlushAll,
                };
                let core = rng.next_below(protocols.len() as u64) as usize;
                let before: Vec<u64> = pass.words.iter().map(|w| w.committed).collect();
                pass.step(&MemEvent { cycle, core, op }, id, &mut col);
                for (id, word) in pass.words.iter().enumerate() {
                    let holders: Vec<usize> = word.mesi_holders.iter().collect();
                    assert!(holders.iter().all(|&d| protocols[d] == Mesi), "cycle {cycle}");
                    if word.committed != before[id] {
                        assert!(holders.iter().all(|&d| d == core), "cycle {cycle}, word {id}");
                    }
                    match word.owner.map(|o| (o, protocols[o])) {
                        Some((_, DeNovo)) => assert!(holders.is_empty(), "cycle {cycle}"),
                        Some((o, Mesi)) => assert_eq!(holders, [o], "cycle {cycle}, word {id}"),
                        _ => {}
                    }
                }
                for (d, copies) in pass.copies.iter().enumerate() {
                    assert!(protocols[d] != Mesi || copies.is_empty());
                    for (&id, _) in copies.iter().filter(|(_, cp)| cp.dirty) {
                        assert!(pass.dirtied[d].contains(&(id as usize)), "cycle {cycle}, {id}");
                    }
                }
            }
            assert!(!col.violations.is_empty() || protocols == [Mesi; 6]);
        }
    }
}
