//! Staleness oracle: replays each protocol's visibility rules from
//! `bigtiny-coherence` over the op stream and flags every non-exempt load
//! that could legally observe stale data.
//!
//! The model is word-granular and eviction-blind: each word has a global
//! `latest` version (bumped by every store/AMO), a `committed` version
//! (what the shared L2 would supply on a miss), a last `writer` for blame,
//! and an optional ownership pin (MESI Modified / DeNovo registration);
//! each core holds a set of word copies `{version, dirty}`. Protocol
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

/// The staleness pass.
pub(crate) struct StalePass {
    protocols: Vec<Protocol>,
    /// Global version per word (every store/AMO bumps it).
    latest: WordMap<u64>,
    /// Version the shared L2 would supply on a miss.
    committed: WordMap<u64>,
    /// Last writer `(core, cycle)` of each word, for blame.
    writer: WordMap<(usize, u64)>,
    /// Ownership pin: MESI Modified or DeNovo registration.
    owner: WordMap<usize>,
    /// Per-core word copies.
    copies: Vec<WordMap<Copy>>,
    /// The MESI cores among `copies` that hold each word — the directory's
    /// sharer list at word granularity, so that invalidating "every other
    /// MESI copy" costs the word's real sharers, not a walk over all cores.
    mesi_holders: WordMap<CoreSet>,
}

impl StalePass {
    pub(crate) fn new(protocols: &[Protocol]) -> Self {
        StalePass {
            protocols: protocols.to_vec(),
            latest: WordMap::default(),
            committed: WordMap::default(),
            writer: WordMap::default(),
            owner: WordMap::default(),
            copies: vec![WordMap::default(); protocols.len()],
            mesi_holders: WordMap::default(),
        }
    }

    fn latest_of(&self, w: u64) -> u64 {
        self.latest.get(&w).copied().unwrap_or(0)
    }

    fn committed_of(&self, w: u64) -> u64 {
        self.committed.get(&w).copied().unwrap_or(0)
    }

    fn blame(&self, w: u64) -> String {
        match self.writer.get(&w) {
            Some((c, cy)) => format!("core {c} at cycle {cy}"),
            None => "host initialization".to_string(),
        }
    }

    /// Gives `core` a copy of `w`, registering MESI cores as holders.
    fn install(&mut self, core: usize, w: u64, copy: Copy) {
        self.copies[core].insert(w, copy);
        if self.protocols[core] == Protocol::Mesi {
            self.mesi_holders.entry(w).or_default().insert(core);
        }
    }

    /// Invalidate other MESI cores' copies of `w` (the directory tracks
    /// MESI sharers only) and clear a MESI ownership pin. MESI copies are
    /// dropped nowhere else, which is what keeps `mesi_holders` exact.
    fn drop_other_mesi(&mut self, w: u64, except: usize) {
        if let Some(holders) = self.mesi_holders.get_mut(&w) {
            let mut others = *holders;
            others.remove(except);
            for d in others.iter() {
                self.copies[d].remove(&w);
                holders.remove(d);
            }
            if holders.is_empty() {
                self.mesi_holders.remove(&w);
            }
        }
        if self.owner.get(&w).is_some_and(|&o| o != except && self.protocols[o] == Protocol::Mesi) {
            self.owner.remove(&w);
        }
    }

    /// Post-commit effects of an L1-coherent write (MESI / DeNovo store,
    /// or an AMO on those protocols).
    fn own_after_commit(&mut self, core: usize, w: u64, version: u64) {
        match self.protocols[core] {
            Protocol::Mesi => {
                self.drop_other_mesi(w, core);
                // A software-centric owner is unpinned (the directory
                // recall commits nothing new) but keeps its — now stale —
                // copy; only its own invalidate can clear it.
                if self.owner.get(&w).is_some_and(|&o| o != core) {
                    self.owner.remove(&w);
                }
                self.install(core, w, Copy { version, dirty: false });
                self.owner.insert(w, core);
            }
            Protocol::DeNovo => {
                // Ownership fetch only on the not-yet-owned path.
                if self.owner.get(&w) != Some(&core) {
                    self.drop_other_mesi(w, core);
                    self.owner.insert(w, core);
                }
                self.install(core, w, Copy { version, dirty: false });
            }
            Protocol::GpuWt | Protocol::GpuWb => unreachable!("L2-coherent protocol"),
        }
    }

    pub(crate) fn step(&mut self, ev: &MemEvent, col: &mut Collector) {
        let (core, cycle) = (ev.core, ev.cycle);
        match ev.op {
            MemOp::Load { addr, racy } => {
                let w = addr.0;
                let lat = self.latest_of(w);
                match self.copies[core].get(&w).copied() {
                    Some(cp) => {
                        // Pinned copies (owned, or dirty under GPU-WB) are
                        // the word's freshest value by construction.
                        let pinned = self.owner.get(&w) == Some(&core) || cp.dirty;
                        if racy.is_none() && !pinned && cp.version < lat {
                            col.report(
                                ViolationKind::StaleMissingInvalidate,
                                core,
                                cycle,
                                Some(addr),
                                w,
                                format!(
                                    "load hit cached version {} but version {} was written by {} \
                                     with no cache_invalidate on this core since",
                                    cp.version,
                                    lat,
                                    self.blame(w)
                                ),
                            );
                        }
                    }
                    None => {
                        let com = self.committed_of(w);
                        if racy.is_none() && com < lat {
                            col.report(
                                ViolationKind::StaleMissingFlush,
                                core,
                                cycle,
                                Some(addr),
                                w,
                                format!(
                                    "load missed and the L2 can only supply version {com}, but \
                                     version {lat} written by {} is still unflushed",
                                    self.blame(w)
                                ),
                            );
                        }
                        // Fill. A MESI reader revokes a software-centric
                        // owner (directory recall); a software-centric
                        // reader downgrades a MESI owner to Shared.
                        if let Some(&o) = self.owner.get(&w) {
                            if o != core
                                && (self.protocols[core] == Protocol::Mesi
                                    || self.protocols[o] == Protocol::Mesi)
                            {
                                self.owner.remove(&w);
                            }
                        }
                        self.install(core, w, Copy { version: com, dirty: false });
                    }
                }
            }
            MemOp::Store { addr, .. } => {
                let w = addr.0;
                let lat = {
                    let e = self.latest.entry(w).or_insert(0);
                    *e += 1;
                    *e
                };
                self.writer.insert(w, (core, cycle));
                match self.protocols[core] {
                    Protocol::Mesi | Protocol::DeNovo => {
                        self.committed.insert(w, lat);
                        self.own_after_commit(core, w, lat);
                    }
                    Protocol::GpuWt => {
                        // Write-through, no-allocate: commits immediately,
                        // invalidates tracked (MESI) sharers, updates a
                        // resident copy but does not install one.
                        self.committed.insert(w, lat);
                        self.drop_other_mesi(w, core);
                        self.owner.remove(&w);
                        if let Some(cp) = self.copies[core].get_mut(&w) {
                            cp.version = lat;
                        }
                    }
                    Protocol::GpuWb => {
                        // Write-back: dirty in L1 only. No commit and no
                        // remote effects until the flush — which is what
                        // makes a dropped flush observable.
                        self.install(core, w, Copy { version: lat, dirty: true });
                    }
                }
            }
            MemOp::Amo { addr } => {
                // AMOs always commit at their point of coherence; the
                // read side is never staleness-checked (see module docs).
                let w = addr.0;
                let lat = {
                    let e = self.latest.entry(w).or_insert(0);
                    *e += 1;
                    *e
                };
                self.committed.insert(w, lat);
                self.writer.insert(w, (core, cycle));
                if self.protocols[core].amo_in_l1() {
                    self.own_after_commit(core, w, lat);
                } else {
                    // Executed at the L2: tracked sharers are invalidated,
                    // any owner recalled, and the issuing core's own copy
                    // is invalidated (the sim drops the word from its L1).
                    self.drop_other_mesi(w, core);
                    self.owner.remove(&w);
                    self.copies[core].remove(&w);
                }
            }
            MemOp::InvalidateAll => match self.protocols[core] {
                // MESI caches are hardware-coherent; the runtime call is a
                // no-op. DeNovo keeps owned words, GPU-WT drops
                // everything, GPU-WB keeps only dirty words.
                Protocol::Mesi => {}
                Protocol::DeNovo => {
                    let owner = &self.owner;
                    self.copies[core].retain(|w, _| owner.get(w) == Some(&core));
                }
                Protocol::GpuWt => self.copies[core].clear(),
                Protocol::GpuWb => self.copies[core].retain(|_, cp| cp.dirty),
            },
            MemOp::FlushAll => {
                // Only GPU-WB buffers dirty data in the L1; everything
                // else already committed at store time.
                if self.protocols[core] == Protocol::GpuWb {
                    let dirty: Vec<u64> = self.copies[core]
                        .iter()
                        .filter(|(_, cp)| cp.dirty)
                        .map(|(w, _)| *w)
                        .collect();
                    for w in dirty {
                        let lat = self.latest_of(w);
                        self.committed.insert(w, lat);
                        if let Some(cp) = self.copies[core].get_mut(&w) {
                            cp.dirty = false;
                        }
                        // The write-back recalls/invalidates tracked
                        // sharers so MESI cores refetch the fresh value.
                        self.drop_other_mesi(w, core);
                    }
                }
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

    /// `drop_other_mesi` trusts `mesi_holders` instead of walking every
    /// core, so the set must equal the MESI cores holding a copy after
    /// every event of any stream — on every protocol mix, including the
    /// all-MESI machine where every copy is tracked.
    #[test]
    fn mesi_holders_mirror_the_copies_after_every_event() {
        use Protocol::{DeNovo, GpuWb, GpuWt, Mesi};
        let mut rng = XorShift64::new(0x484f_4c44_4552_5331);
        for protocols in [[Mesi; 6], [Mesi, Mesi, DeNovo, GpuWt, GpuWb, GpuWb]] {
            let mut pass = StalePass::new(&protocols);
            let mut col = Collector::new();
            for cycle in 0..20_000 {
                let addr = Addr(0x1000 + rng.next_below(24) * 8);
                let op = match rng.next_below(10) {
                    0..=3 => MemOp::Load { addr, racy: None },
                    4..=6 => MemOp::Store { addr, racy: None },
                    7 => MemOp::Amo { addr },
                    8 => MemOp::InvalidateAll,
                    _ => MemOp::FlushAll,
                };
                let core = rng.next_below(protocols.len() as u64) as usize;
                pass.step(&MemEvent { cycle, core, op }, &mut col);
                for w in (0..24).map(|i| 0x1000 + i * 8) {
                    let mut held = CoreSet::EMPTY;
                    for (d, _) in protocols.iter().enumerate().filter(|(_, p)| **p == Mesi) {
                        if pass.copies[d].contains_key(&w) {
                            held.insert(d);
                        }
                    }
                    let tracked = pass.mesi_holders.get(&w).copied().unwrap_or_default();
                    assert_eq!(tracked, held, "cycle {cycle}, word {w:#x}");
                    assert!(pass.mesi_holders.get(&w).is_none_or(|s| !s.is_empty()));
                }
            }
            assert!(!col.violations.is_empty() || protocols == [Mesi; 6]);
        }
    }
}
