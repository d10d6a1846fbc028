//! The L1 side of the memory system: what each per-core operation does in
//! its private cache before (or instead of) going to the L2.
//!
//! Loads, atomics and the two bulk operations ask the core's [`Protocol`]
//! where it sits on Table I. Stores are the one place the four protocols are
//! four different algorithms, so [`MemorySystem::store_word`] dispatches on
//! the variant — the only code outside `protocol.rs` that names one.
//!
//! An operation probes its L1 set once; the slot found is threaded through
//! the fetch and install steps (see `directory.rs`, "One probe per access").

use bigtiny_mesh::TrafficClass;

use crate::addr::{Addr, WordMask, WORD_BYTES};
use crate::directory::Intent;
use crate::l1::MesiState;
use crate::protocol::Protocol;
use crate::system::MemorySystem;

impl MemorySystem {
    /// A word load by `core` at simulated cycle `now`; returns its latency.
    pub fn load(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        self.load_with(core, addr, now, true)
    }

    /// A word load that tolerates stale data: identical timing and protocol
    /// behaviour, but exempt from the staleness checker. Used for the
    /// deliberate benign races of Ligra-style algorithms (monotone values
    /// repaired by a later round, with CAS deciding the winner).
    pub fn load_racy(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        self.load_with(core, addr, now, false)
    }

    fn load_with(&mut self, core: usize, addr: Addr, now: u64, check_stale: bool) -> u64 {
        let stats = &mut self.stats[core];
        stats.loads += 1;
        let line = addr.line();
        let w = addr.word_in_line();
        let l1 = &mut self.l1s[core];
        let resident = l1.find(line);
        if let Some(slot) = resident {
            let e = l1.touch(slot);
            if e.valid.contains(w) {
                stats.load_hits += 1;
                // Own dirty data and owned lines are fresh by construction.
                let fresh = e.dirty.contains(w) || e.owned || e.mesi == MesiState::Modified;
                if check_stale && !fresh && e.fill_version[w] < self.versions.latest(addr.word()) {
                    stats.stale_reads += 1;
                }
                return 1;
            }
        }
        self.load_miss(core, addr, now, check_stale, resident)
    }

    /// The miss half of a load (`resident`: the L1 slot of a partially
    /// valid copy of the line). Out of line so that the hit path — most of
    /// all memory operations — stays a small leaf function.
    #[inline(never)]
    fn load_miss(
        &mut self,
        core: usize,
        addr: Addr,
        now: u64,
        check_stale: bool,
        resident: Option<usize>,
    ) -> u64 {
        let line = addr.line();
        // A fetch from the L2 returns committed data; if an owner was
        // recalled the recall committed its words first, so install_line's
        // fill-version snapshot is taken after the fetch.
        let (t, exclusive) = self.fetch_line(core, line, now, Intent::Read);
        let mesi = if exclusive { MesiState::Exclusive } else { MesiState::Shared };
        let (_, extra) = self.install_line(core, resident, line, mesi, false);
        // Stale-at-fetch cannot happen under hardware coherence. Elsewhere,
        // reading a word whose latest version is not yet visible at the L2
        // (an unflushed GPU-WB write elsewhere) is a stale read on real
        // hardware even though it misses.
        if check_stale
            && !self.protocols[core].hardware_coherent()
            && self.versions.committed(addr.word()) < self.versions.latest(addr.word())
        {
            self.stats[core].stale_reads += 1;
        }
        t - now + extra
    }

    /// A word store by `core`; returns its latency.
    pub fn store(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        self.stats[core].stores += 1;
        self.store_word(core, addr, now)
    }

    fn store_word(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        match self.protocols[core] {
            Protocol::Mesi => self.store_mesi(core, addr, now),
            Protocol::DeNovo => self.store_denovo(core, addr, now),
            Protocol::GpuWt => self.store_gpu_wt(core, addr, now),
            Protocol::GpuWb => self.store_gpu_wb(core, addr),
        }
    }

    fn store_mesi(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        let line = addr.line();
        let (slot, latency) = match self.l1s[core].find(line) {
            Some(slot) => {
                self.stats[core].store_hits += 1;
                let latency = match self.l1s[core].touch(slot).mesi {
                    // E->M is silent.
                    MesiState::Modified | MesiState::Exclusive => 1,
                    // S->M invalidates the other sharers through the directory.
                    MesiState::Shared => self.fetch_line(core, line, now, Intent::Upgrade).0 - now,
                };
                (slot, latency)
            }
            None => {
                let (t, _) = self.fetch_line(core, line, now, Intent::Own);
                let (slot, extra) = self.install_line(core, None, line, MesiState::Modified, false);
                (slot, t - now + extra)
            }
        };
        // MESI writes are immediately visible through the directory.
        let version = self.versions.bump_latest(addr.word());
        self.versions.commit_word(addr.word());
        let entry = self.l1s[core].entry_mut(slot);
        entry.mesi = MesiState::Modified;
        entry.fill_version[addr.word_in_line()] = version;
        latency
    }

    fn store_denovo(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        let line = addr.line();
        let w = addr.word_in_line();
        let (slot, latency) = match self.l1s[core].find(line) {
            Some(slot) if self.l1s[core].touch(slot).owned => {
                self.stats[core].store_hits += 1;
                (slot, 1)
            }
            resident => {
                let (t, _) = self.fetch_line(core, line, now, Intent::Own);
                let (slot, extra) =
                    self.install_line(core, resident, line, MesiState::Shared, true);
                (slot, t - now + extra)
            }
        };
        // Ownership makes the write visible on demand (L2 forwards to owner).
        let version = self.versions.bump_latest(addr.word());
        self.versions.commit_word(addr.word());
        let entry = self.l1s[core].entry_mut(slot);
        entry.dirty.insert(w);
        entry.valid.insert(w);
        entry.fill_version[w] = version;
        latency
    }

    fn store_gpu_wt(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        let line = addr.line();
        let w = addr.word_in_line();
        // Write-through, no write-allocate: update a resident copy, never refill.
        let resident = self.l1s[core].find(line);
        if let Some(slot) = resident {
            let entry = self.l1s[core].touch(slot);
            self.stats[core].store_hits += u64::from(entry.valid.contains(w));
            entry.valid.insert(w);
        }
        let (bank, t) = self.request_leg(core, line, now, TrafficClass::WbReq, WORD_BYTES);
        let t = self.write_at_l2(core, line, bank, t);
        let version = self.versions.bump_latest(addr.word());
        self.versions.commit_word(addr.word());
        if let Some(slot) = resident {
            self.l1s[core].entry_mut(slot).fill_version[w] = version;
        }
        // Full write-through completion time; the engine's store buffer
        // decides how much of it stalls the core.
        t - now
    }

    fn store_gpu_wb(&mut self, core: usize, addr: Addr) -> u64 {
        let line = addr.line();
        let w = addr.word_in_line();
        // Visible only after a flush: bump latest, do NOT commit.
        let version = self.versions.bump_latest(addr.word());
        match self.l1s[core].find(line) {
            Some(slot) => {
                let entry = self.l1s[core].touch(slot);
                self.stats[core].store_hits += u64::from(entry.valid.contains(w));
                entry.valid.insert(w);
                entry.dirty.insert(w);
                entry.fill_version[w] = version;
                1
            }
            None => {
                // No-fetch write-allocate: install the line with only this word.
                let (slot, victim) = self.l1s[core].insert(line);
                let entry = self.l1s[core].entry_mut(slot);
                entry.valid = WordMask::single(w);
                entry.dirty = WordMask::single(w);
                entry.fill_version[w] = version;
                1 + victim.map_or(0, |(vline, v)| self.handle_l1_eviction(core, vline, v))
            }
        }
    }

    /// An atomic read-modify-write by `core`; returns its latency.
    ///
    /// MESI and DeNovo perform AMOs in the private L1 (they track ownership);
    /// GPU-WT and GPU-WB perform them at the shared L2 (Section II-A).
    pub fn amo(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        self.stats[core].amos += 1;
        if self.protocols[core].amo_in_l1() {
            // Like a store that requires ownership, plus one ALU cycle.
            // AMOs are accounted separately from demand stores.
            let hits_before = self.stats[core].store_hits;
            let lat = self.store_word(core, addr, now);
            self.stats[core].store_hits = hits_before;
            return lat + 1;
        }
        let line = addr.line();
        let (bank, t) = self.request_leg(core, line, now, TrafficClass::SyncReq, WORD_BYTES);
        let t = self.write_at_l2(core, line, bank, t);
        // Our own cached copy of the word (if any) is now stale.
        let w = addr.word_in_line();
        if let Some(entry) = self.l1s[core].lookup(line) {
            entry.valid.remove(w);
            entry.dirty.remove(w);
        }
        self.versions.bump_latest(addr.word());
        self.versions.commit_word(addr.word());
        t + self.response_leg(bank, core, TrafficClass::SyncResp, WORD_BYTES) - now
    }

    /// Bulk self-invalidation of clean data (`cache_invalidate`): flash-
    /// invalidates in one cycle. Returns `(latency, lines_invalidated)`.
    ///
    /// A no-op under hardware coherence. Every self-invalidating cache keeps
    /// a line iff it owns it or holds dirty words of it, and of a kept
    /// unowned line only the dirty words: DeNovo keeps its owned lines
    /// (nothing else is dirty), GPU-WB its dirty words, GPU-WT (never dirty)
    /// nothing — invariants [`MemorySystem::check_invariants`] asserts.
    pub fn invalidate_all(&mut self, core: usize, _now: u64) -> (u64, u64) {
        if self.protocols[core].invalidate_is_noop() {
            return (0, 0);
        }
        self.stats[core].invalidate_ops += 1;
        let mut trimmed = 0;
        let dropped = self.l1s[core].retain_lines(|e| {
            if e.owned {
                return false;
            }
            if e.dirty.is_empty() {
                return true;
            }
            if e.valid != e.dirty {
                // Partially invalidated: stale clean words dropped.
                e.valid = e.dirty;
                trimmed += 1;
            }
            false
        });
        let lines = dropped + trimmed;
        self.stats[core].lines_invalidated += lines;
        (1, lines)
    }

    /// Bulk write-back of dirty data (`cache_flush`). Returns
    /// `(latency, lines_flushed)`.
    ///
    /// A no-op where ownership propagates dirty data (MESI, DeNovo).
    /// Otherwise every dirty word is written back and the acknowledgements
    /// awaited: GPU-WB's dirty lines; none under GPU-WT, whose writes are
    /// already on their way to the L2 (the engine-level store buffer drains
    /// at the flush point).
    pub fn flush_all(&mut self, core: usize, now: u64) -> (u64, u64) {
        if self.protocols[core].tracks_ownership() {
            return (0, 0);
        }
        self.stats[core].flush_ops += 1;
        let (mut issue, mut done) = (now, now);
        let (mut lines, mut words) = (0u64, 0u64);
        // Dirty lines in slot order. Writing one back never adds or removes
        // a line of this (untracked) cache, so the walk needs no snapshot.
        for slot in 0..self.l1s[core].slots() {
            let (line, mask) = match self.l1s[core].at(slot) {
                Some((line, e)) if !e.dirty.is_empty() => (line, e.dirty),
                _ => continue,
            };
            issue += 1; // one write-back issued per cycle
            let dirty_words = u64::from(mask.count());
            let (bank, t) =
                self.request_leg(core, line, issue, TrafficClass::WbReq, dirty_words * WORD_BYTES);
            done = done.max(self.write_at_l2(core, line, bank, t));
            self.versions.commit_line_words(line, mask);
            self.l1s[core].touch(slot).dirty = WordMask::EMPTY;
            lines += 1;
            words += dirty_words;
        }
        if lines == 0 {
            return (1, 0);
        }
        self.stats[core].lines_flushed += lines;
        self.stats[core].words_flushed += words;
        // Final acknowledgement leg back to the core.
        (done - now + 2, lines)
    }
}
