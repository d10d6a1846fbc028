//! The heterogeneous memory system: private L1s running per-core protocols,
//! integrated at a shared banked L2 with an embedded directory.
//!
//! This is the Spandex-style integration point of the paper (Section V-A):
//! the L2 serves MESI GetS/GetM, DeNovo ownership requests, GPU write-through
//! words, bulk write-backs, and at-L2 atomics, keeping MESI L1s coherent with
//! writer-initiated invalidations while software-centric L1s self-invalidate.
//!
//! # Timing model
//!
//! Every operation completes atomically in global event order (the engine
//! serializes cores by simulated time) and returns a latency in cycles:
//! network legs from the mesh model, bank service with queueing from the L2
//! model, DRAM latency/bandwidth from the DRAM model. L1 hits cost 1 cycle.
//!
//! # Functional data and the staleness checker
//!
//! Caches store protocol state only; functional values live in host memory
//! and are always up to date because the engine serializes operations. On
//! real hardware a missing `cache_invalidate`/`cache_flush` would return
//! stale data; the staleness checker detects exactly those situations by
//! versioning every word (a `latest` version bumped by every store, and a
//! `committed` version that tracks what the L2/owner can supply, both in
//! the line-indexed `VersionTable` of `versions.rs`) and counts
//! [`CoreMemStats::stale_reads`]. A correct runtime exhibits zero stale
//! reads; tests exercise a deliberately broken runtime to show nonzero.
//!
//! # One probe per access
//!
//! An operation probes its L1 set once and, on a miss, resolves its L2 set
//! once; the slots found are threaded through the recall, invalidation,
//! directory-update and install steps. Slots stay valid for the whole
//! operation because nothing an operation does on the way can displace the
//! requested line: L2 victim recalls and L1 evictions only ever remove
//! *other* lines. Each path marks a line most-recently-used in the same
//! place in the global order as one probe-per-step would, so every LRU
//! decision — and with it every simulated cycle — is layout-independent.

use bigtiny_mesh::{Mesh, MeshConfig, Tile, TrafficClass, TrafficStats};

use crate::addr::{Addr, LineAddr, WordMask, LINE_BYTES};
use crate::l1::{L1Cache, LineEntry, MesiState};
use crate::l2::{CoreSet, Dram, L2Cache};
use crate::protocol::Protocol;
use crate::stats::CoreMemStats;
use crate::versions::VersionTable;

/// Per-core cache configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreMemConfig {
    /// Coherence protocol of this core's private L1.
    pub protocol: Protocol,
    /// L1 data-cache capacity in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
}

impl CoreMemConfig {
    /// The paper's big-core L1D: 64 KB, 2-way, MESI.
    pub fn big() -> Self {
        CoreMemConfig { protocol: Protocol::Mesi, l1_bytes: 64 * 1024, l1_ways: 2 }
    }

    /// The paper's tiny-core L1D: 4 KB, 2-way, running `protocol`.
    pub fn tiny(protocol: Protocol) -> Self {
        CoreMemConfig { protocol, l1_bytes: 4 * 1024, l1_ways: 2 }
    }
}

/// Whole-memory-system configuration.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// Data OCN configuration (also fixes the topology / bank count).
    pub mesh: MeshConfig,
    /// One entry per core, in core-id order.
    pub cores: Vec<CoreMemConfig>,
    /// Capacity of each L2 bank in bytes (Table II: 512 KB per bank).
    pub l2_bank_bytes: usize,
    /// L2 associativity (Table II: 8-way).
    pub l2_ways: usize,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// DRAM occupancy of one 64-byte line transfer per controller.
    pub dram_cycles_per_line: u64,
}

impl MemConfig {
    /// A memory system shaped like the paper's 64-core system for the given
    /// per-core configs.
    pub fn paper(mesh: MeshConfig, cores: Vec<CoreMemConfig>) -> Self {
        MemConfig {
            mesh,
            cores,
            l2_bank_bytes: 512 * 1024,
            l2_ways: 8,
            dram_latency: 60,
            dram_cycles_per_line: 32,
        }
    }
}

/// What a line fetch wants from the L2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Intent {
    /// Read a copy (MESI GetS or software-centric refill).
    Read,
    /// MESI GetM: exclusive copy, invalidating all others.
    ReadExcl,
    /// DeNovo GetO: data plus registered ownership.
    Own,
}

/// The heterogeneous cache-coherent memory system.
#[derive(Debug)]
pub struct MemorySystem {
    protocols: Vec<Protocol>,
    l1s: Vec<L1Cache>,
    l2: L2Cache,
    dram: Dram,
    mesh: Mesh,
    stats: Vec<CoreMemStats>,

    versions: VersionTable,
}

impl MemorySystem {
    /// Builds the memory system for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is empty or exceeds the mesh capacity.
    pub fn new(config: &MemConfig) -> Self {
        let topo = config.mesh.topology;
        assert!(!config.cores.is_empty(), "need at least one core");
        assert!(config.cores.len() <= topo.num_tiles(), "more cores than mesh tiles");
        let l1s: Vec<L1Cache> =
            config.cores.iter().map(|c| L1Cache::new(c.protocol, c.l1_bytes, c.l1_ways)).collect();
        MemorySystem {
            protocols: config.cores.iter().map(|c| c.protocol).collect(),
            l1s,
            l2: L2Cache::new(topo.num_banks(), config.l2_bank_bytes, config.l2_ways),
            dram: Dram::new(topo.num_banks(), config.dram_latency, config.dram_cycles_per_line),
            mesh: Mesh::new(config.mesh),
            stats: vec![CoreMemStats::default(); config.cores.len()],
            versions: VersionTable::default(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.l1s.len()
    }

    /// Protocol of `core`'s L1.
    pub fn protocol(&self, core: usize) -> Protocol {
        self.protocols[core]
    }

    /// Per-core statistics.
    pub fn core_stats(&self, core: usize) -> &CoreMemStats {
        &self.stats[core]
    }

    /// All per-core statistics.
    pub fn all_stats(&self) -> &[CoreMemStats] {
        &self.stats
    }

    /// Data-OCN traffic statistics.
    pub fn traffic(&self) -> &TrafficStats {
        self.mesh.stats()
    }

    /// Total stale reads observed across all cores (0 for a correct runtime).
    pub fn total_stale_reads(&self) -> u64 {
        self.stats.iter().map(|s| s.stale_reads).sum()
    }

    /// Arms (or, with `None`, disarms) deterministic latency-spike fault
    /// injection on the data OCN. Zero-cost when disarmed.
    pub fn set_mesh_faults(&mut self, faults: Option<bigtiny_mesh::MeshFaults>) {
        self.mesh.set_faults(faults);
    }

    /// Latency spikes injected on the data OCN so far.
    pub fn mesh_fault_spikes(&self) -> u64 {
        self.mesh.fault_spikes()
    }

    /// Checks structural cache invariants that must hold on *every* path,
    /// including the degraded (fallback-steal, fault-injected) paths the
    /// runtime only takes under adversarial schedules:
    ///
    /// * every dirty word is valid (a cache never writes back garbage);
    /// * MESI lines are always whole-line valid, and dirty data only exists
    ///   in `Modified` state;
    /// * no line is resident twice in one L1.
    ///
    /// Returns a description of the first violation, if any. Chaos tests
    /// call this on the final state of every fault-injected run.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (core, l1) in self.l1s.iter().enumerate() {
            let proto = self.protocols[core];
            let mut seen = std::collections::HashSet::new();
            for (line, e) in l1.iter() {
                if !seen.insert(line) {
                    return Err(format!("core {core}: line {line} resident twice"));
                }
                for w in e.dirty.iter() {
                    if !e.valid.contains(w) {
                        return Err(format!(
                            "core {core}: line {line} word {w} dirty but not valid"
                        ));
                    }
                }
                if proto == Protocol::Mesi {
                    if e.valid != WordMask::FULL {
                        return Err(format!("core {core}: MESI line {line} partially valid"));
                    }
                    if !e.dirty.is_empty() && e.mesi != MesiState::Modified {
                        return Err(format!(
                            "core {core}: MESI line {line} dirty in state {:?}",
                            e.mesi
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn core_tile(&self, core: usize) -> Tile {
        self.mesh.topology().core_tile(core)
    }

    fn bank_tile(&self, bank: usize) -> Tile {
        self.mesh.topology().l2_bank_tile(bank)
    }

    // ------------------------------------------------------------------
    // L2-side helpers
    // ------------------------------------------------------------------

    /// Invalidates every MESI sharer of `line` (resident in L2 slot `slot`)
    /// except `except`, charging parallel invalidation round trips from
    /// `bank`. Returns the time at which all acknowledgements have arrived.
    fn invalidate_sharers(
        &mut self,
        slot: usize,
        line: LineAddr,
        bank: usize,
        t: u64,
        except: usize,
    ) -> u64 {
        // CoreSet is a small Copy bitset: snapshot it instead of collecting
        // members into a Vec — this runs on every write-through store.
        let mut sharers = self.l2.sharers(slot);
        sharers.remove(except);
        if sharers.is_empty() {
            return t;
        }
        let bank_tile = self.bank_tile(bank);
        let mut done = t;
        for core in sharers.iter() {
            let tile = self.core_tile(core);
            let leg = self.mesh.send(bank_tile, tile, TrafficClass::CohReq, 0);
            let ack = self.mesh.send(tile, bank_tile, TrafficClass::CohResp, 0);
            done = done.max(t + leg + ack);
            self.l1s[core].remove(line);
        }
        self.l2.update_sharers(slot, |s| sharers.iter().for_each(|core| s.remove(core)));
        done
    }

    /// Recalls the current owner of `line` (MESI E/M holder or DeNovo
    /// owner; `slot` is the line's L2 slot): fetches its dirty data into
    /// the L2 and optionally revokes the owner's copy. Returns the time at
    /// which fresh data is at the bank.
    fn recall_owner(
        &mut self,
        slot: usize,
        line: LineAddr,
        bank: usize,
        t: u64,
        revoke: bool,
    ) -> u64 {
        let Some(owner) = self.l2.owner(slot) else {
            return t;
        };
        let bank_tile = self.bank_tile(bank);
        let owner_tile = self.core_tile(owner);
        let req = self.mesh.send(bank_tile, owner_tile, TrafficClass::CohReq, 0);

        let owner_proto = self.protocols[owner];
        let l1 = &mut self.l1s[owner];
        // (bytes supplied, words committed, owner becomes a MESI sharer,
        //  owner pointer survives in the directory)
        let (payload, commit_mask, keep_as_sharer, keep_owner) = match l1.find(line) {
            Some(l1_slot) if owner_proto == Protocol::Mesi => {
                let entry = l1.touch(l1_slot);
                let dirty = entry.mesi == MesiState::Modified;
                if revoke {
                    l1.remove_slot(l1_slot);
                } else {
                    entry.mesi = MesiState::Shared;
                }
                (
                    if dirty { LINE_BYTES } else { 0 },
                    if dirty { WordMask::FULL } else { WordMask::EMPTY },
                    !revoke,
                    false,
                )
            }
            Some(l1_slot) => {
                // DeNovo owner: supply dirty words. On a read-forward
                // (no revoke) the owner keeps ownership — DeNovo readers
                // self-invalidate, so the directory must keep naming the
                // owner to serve future readers fresh data.
                let entry = l1.touch(l1_slot);
                let dirty = std::mem::take(&mut entry.dirty);
                if revoke {
                    entry.owned = false;
                }
                (dirty.count() as u64 * 8, dirty, false, !revoke)
            }
            // Owner lost the line silently (clean eviction already updated
            // the directory in the oracle model); nothing to fetch and the
            // stale owner pointer is dropped.
            None => (0, WordMask::EMPTY, false, false),
        };
        let resp = self.mesh.send(owner_tile, bank_tile, TrafficClass::CohResp, payload);
        self.versions.commit_line_words(line, commit_mask);

        if payload > 0 {
            self.l2.set_dirty(slot);
        }
        if !keep_owner {
            self.l2.set_owner(slot, None);
        }
        if keep_as_sharer {
            self.l2.update_sharers(slot, |s| s.insert(owner));
        }
        t + req + resp
    }

    /// Resolves `line`'s L2 slot, fetching the line from DRAM on a miss
    /// (recalling and writing back any victim). Returns the slot and the
    /// data-ready time.
    fn ensure_l2_resident(&mut self, line: LineAddr, bank: usize, t: u64) -> (usize, u64) {
        if let Some(slot) = self.l2.find(line) {
            return (slot, t);
        }
        let mut t = t;
        let (slot, victim) = self.l2.insert(line);
        if let Some((vline, victim)) = victim {
            // insert() removed the victim; recall its L1 copies from its
            // saved directory state.
            let vbank = self.l2.home_bank(vline);
            let bank_tile = self.bank_tile(vbank);
            for core in victim.sharers.iter() {
                let tile = self.core_tile(core);
                self.mesh.send(bank_tile, tile, TrafficClass::CohReq, 0);
                self.mesh.send(tile, bank_tile, TrafficClass::CohResp, 0);
                self.l1s[core].remove(vline);
            }
            let mut vdirty = victim.dirty;
            if let Some(owner) = victim.owner {
                let tile = self.core_tile(owner);
                self.mesh.send(bank_tile, tile, TrafficClass::CohReq, 0);
                let payload = match self.l1s[owner].remove(vline) {
                    Some(e) if e.has_dirty_data() => {
                        let mask = if self.protocols[owner] == Protocol::Mesi {
                            WordMask::FULL
                        } else {
                            e.dirty
                        };
                        self.versions.commit_line_words(vline, mask);
                        vdirty = true;
                        mask.count() as u64 * 8
                    }
                    _ => 0,
                };
                self.mesh.send(tile, bank_tile, TrafficClass::CohResp, payload);
            }
            if vdirty {
                // Write the victim back to DRAM (off the critical path:
                // traffic and occupancy are charged, latency is not).
                let mc_tile = self.mesh.topology().mem_ctrl_tile(vbank);
                self.mesh.send(bank_tile, mc_tile, TrafficClass::DramReq, LINE_BYTES);
                self.dram.access(vbank, t);
            }
        }
        // Demand fetch from DRAM.
        let bank_tile = self.bank_tile(bank);
        let mc_tile = self.mesh.topology().mem_ctrl_tile(bank);
        let req = self.mesh.send(bank_tile, mc_tile, TrafficClass::DramReq, 0);
        t = self.dram.access(bank, t + req);
        t += self.mesh.send(mc_tile, bank_tile, TrafficClass::DramResp, LINE_BYTES);
        (slot, t)
    }

    /// A write by `core` performed at the L2 (a write-through word, flushed
    /// words, an at-L2 atomic), arriving at `bank` at `t`: the written data
    /// supersedes any copy held by hardware-coherent caches, so an owner is
    /// revoked and MESI sharers are invalidated. Returns the completion
    /// time at the bank.
    fn write_at_l2(&mut self, core: usize, line: LineAddr, bank: usize, t: u64) -> u64 {
        let (slot, t) = self.ensure_l2_resident(line, bank, t);
        let t = self.recall_owner(slot, line, bank, t, true);
        let t = self.invalidate_sharers(slot, line, bank, t, core);
        self.l2.touch(slot);
        self.l2.set_dirty(slot);
        t
    }

    /// The full L2-side fetch: request leg, bank service, residency, owner
    /// recall / sharer invalidation per `intent`, directory update, data
    /// response leg. Returns the completion time at the requesting core and
    /// whether the directory granted a MESI reader exclusivity (E state).
    fn fetch_line(&mut self, core: usize, line: LineAddr, now: u64, intent: Intent) -> (u64, bool) {
        let bank = self.l2.home_bank(line);
        let core_tile = self.core_tile(core);
        let bank_tile = self.bank_tile(bank);
        let req_leg = self.mesh.send(core_tile, bank_tile, TrafficClass::CpuReq, 0);
        let t = self.l2.access(bank, now + req_leg);
        let (slot, mut t) = self.ensure_l2_resident(line, bank, t);

        let requester_is_mesi = self.protocols[core] == Protocol::Mesi;
        match intent {
            Intent::Read => {
                // Fresh data comes from the owner if there is one. MESI
                // requesters force a revoke of software-centric owners to
                // preserve SWMR for hardware-coherent caches; MESI owners
                // are downgraded to sharers.
                if let Some(o) = self.l2.owner(slot) {
                    let revoke = requester_is_mesi && self.protocols[o] != Protocol::Mesi;
                    t = self.recall_owner(slot, line, bank, t, revoke);
                }
            }
            Intent::ReadExcl | Intent::Own => {
                t = self.recall_owner(slot, line, bank, t, true);
                t = self.invalidate_sharers(slot, line, bank, t, core);
            }
        }

        // Directory update for the requester.
        self.l2.touch(slot);
        let mut exclusive = false;
        match intent {
            Intent::Read if requester_is_mesi => {
                exclusive = !self.l2.line(slot).has_directory_state();
                if exclusive {
                    self.l2.set_owner(slot, Some(core));
                } else {
                    self.l2.update_sharers(slot, |s| s.insert(core));
                }
            }
            Intent::Read => {}
            Intent::ReadExcl | Intent::Own => {
                self.l2.set_owner(slot, Some(core));
                self.l2.update_sharers(slot, |s| *s = CoreSet::EMPTY);
            }
        }

        (t + self.mesh.send(bank_tile, core_tile, TrafficClass::DataResp, LINE_BYTES), exclusive)
    }

    /// Installs a fetched line into `core`'s L1 — merging into the
    /// partially valid entry in `resident` if the line was found there
    /// before the fetch — handling any eviction. Returns the line's slot
    /// and the extra cycles.
    fn install_line(
        &mut self,
        core: usize,
        resident: Option<usize>,
        line: LineAddr,
        mesi: MesiState,
        owned: bool,
    ) -> (usize, u64) {
        // What the L2 can supply right now (committed versions).
        let versions = self.versions.fill_versions(line);
        let l1 = &mut self.l1s[core];
        if let Some(slot) = resident {
            debug_assert_eq!(l1.find(line), Some(slot), "a fetch displaced its own line");
            // Merge: locally dirty words keep their own (newer) versions.
            let entry = l1.touch(slot);
            let dirty = entry.dirty;
            entry.valid = WordMask::FULL;
            entry.mesi = mesi;
            entry.owned = entry.owned || owned;
            for (i, v) in versions.iter().enumerate() {
                if !dirty.contains(i) {
                    entry.fill_version[i] = *v;
                }
            }
            return (slot, 0);
        }
        let (slot, victim) = l1.insert(line);
        let entry = l1.entry_mut(slot);
        entry.valid = WordMask::FULL;
        entry.mesi = mesi;
        entry.owned = owned;
        entry.fill_version = versions;
        (slot, victim.map_or(0, |(vline, v)| self.handle_l1_eviction(core, vline, v)))
    }

    /// Handles an L1 eviction: dirty data is written back (traffic + bank
    /// occupancy charged; the write-back is off the requester's critical
    /// path so only one cycle of latency is charged), and directory state is
    /// released. Clean-eviction directory downgrades use an oracle (zero
    /// traffic) to keep the MESI sharer list precise, a standard simulator
    /// simplification.
    fn handle_l1_eviction(&mut self, core: usize, line: LineAddr, victim: LineEntry) -> u64 {
        let bank = self.l2.home_bank(line);
        let proto = self.protocols[core];
        let dirty_payload = match proto {
            Protocol::Mesi => {
                if victim.mesi == MesiState::Modified {
                    LINE_BYTES
                } else {
                    0
                }
            }
            _ => victim.dirty.count() as u64 * 8,
        };
        // Release directory state (software-centric copies are untracked,
        // so the line need not be L2-resident at all).
        let l2_slot = self.l2.find(line);
        if let Some(slot) = l2_slot {
            self.l2.touch(slot);
            if self.l2.owner(slot) == Some(core) {
                self.l2.set_owner(slot, None);
            }
            self.l2.update_sharers(slot, |s| s.remove(core));
            if dirty_payload > 0 {
                self.l2.set_dirty(slot);
            }
        }
        if dirty_payload == 0 {
            return 0;
        }
        let core_tile = self.core_tile(core);
        let bank_tile = self.bank_tile(bank);
        self.mesh.send(core_tile, bank_tile, TrafficClass::WbReq, dirty_payload);
        let mask = if proto == Protocol::Mesi { WordMask::FULL } else { victim.dirty };
        self.versions.commit_line_words(line, mask);
        // A dirty write-back from a no-ownership cache commits values a
        // hardware-coherent cache may still hold: keep MESI copies
        // coherent (traffic charged, off the critical path).
        if let (Protocol::GpuWb | Protocol::GpuWt, Some(slot)) = (proto, l2_slot) {
            let t = self.recall_owner(slot, line, bank, 0, true);
            self.invalidate_sharers(slot, line, bank, t, core);
        }
        1
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

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
        let proto = self.protocols[core];
        let line = addr.line();
        let w = addr.word_in_line();
        let l1 = &mut self.l1s[core];
        let resident = l1.find(line);
        if let Some(slot) = resident {
            let e = l1.touch(slot);
            // MESI lines are always whole-line valid.
            if proto == Protocol::Mesi || e.valid.contains(w) {
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
        // Stale-at-fetch cannot happen for MESI. Elsewhere, reading a word
        // whose latest version is not yet visible at the L2 (an unflushed
        // GPU-WB write elsewhere) is a stale read on real hardware even
        // though it misses.
        if self.protocols[core] != Protocol::Mesi
            && check_stale
            && self.versions.committed(addr.word()) < self.versions.latest(addr.word())
        {
            self.stats[core].stale_reads += 1;
        }
        t - now + extra
    }

    /// A word store by `core`; returns its latency.
    pub fn store(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        self.stats[core].stores += 1;
        let proto = self.protocols[core];
        match proto {
            Protocol::Mesi => self.store_mesi(core, addr, now),
            Protocol::DeNovo => self.store_denovo(core, addr, now),
            Protocol::GpuWt => self.store_gpu_wt(core, addr, now),
            Protocol::GpuWb => self.store_gpu_wb(core, addr, now),
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
                    MesiState::Shared => {
                        // Upgrade: invalidate other sharers through the directory.
                        let bank = self.l2.home_bank(line);
                        let core_tile = self.core_tile(core);
                        let bank_tile = self.bank_tile(bank);
                        let req = self.mesh.send(core_tile, bank_tile, TrafficClass::CpuReq, 0);
                        let t = self.l2.access(bank, now + req);
                        let l2_slot = self.l2.find(line).expect("S-state line is resident");
                        let t = self.invalidate_sharers(l2_slot, line, bank, t, core);
                        self.l2.touch(l2_slot);
                        self.l2.update_sharers(l2_slot, |s| s.remove(core));
                        self.l2.set_owner(l2_slot, Some(core));
                        t + self.mesh.send(bank_tile, core_tile, TrafficClass::DataResp, 0) - now
                    }
                };
                (slot, latency)
            }
            None => {
                let (t, _) = self.fetch_line(core, line, now, Intent::ReadExcl);
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
        let bank = self.l2.home_bank(line);
        let core_tile = self.core_tile(core);
        let bank_tile = self.bank_tile(bank);
        let leg = self.mesh.send(core_tile, bank_tile, TrafficClass::WbReq, 8);
        let t = self.l2.access(bank, now + leg);
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

    fn store_gpu_wb(&mut self, core: usize, addr: Addr, now: u64) -> u64 {
        let line = addr.line();
        let w = addr.word_in_line();
        let _ = now;
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
        let proto = self.protocols[core];
        if proto.amo_in_l1() {
            // Like a store that requires ownership, plus one ALU cycle.
            let hits_before = self.stats[core].store_hits;
            let lat = match proto {
                Protocol::Mesi => self.store_mesi(core, addr, now),
                Protocol::DeNovo => self.store_denovo(core, addr, now),
                _ => unreachable!(),
            };
            // AMOs are accounted separately from demand stores.
            self.stats[core].store_hits = hits_before;
            lat + 1
        } else {
            let line = addr.line();
            let bank = self.l2.home_bank(line);
            let core_tile = self.core_tile(core);
            let bank_tile = self.bank_tile(bank);
            let req = self.mesh.send(core_tile, bank_tile, TrafficClass::SyncReq, 8);
            let t = self.l2.access(bank, now + req);
            let t = self.write_at_l2(core, line, bank, t);
            // Our own cached copy of the word (if any) is now stale.
            let w = addr.word_in_line();
            if let Some(entry) = self.l1s[core].lookup(line) {
                entry.valid.remove(w);
                entry.dirty.remove(w);
            }
            self.versions.bump_latest(addr.word());
            self.versions.commit_word(addr.word());
            t + self.mesh.send(bank_tile, core_tile, TrafficClass::SyncResp, 8) - now
        }
    }

    /// Bulk self-invalidation of clean data (`cache_invalidate`): flash-
    /// invalidates in one cycle. Returns `(latency, lines_invalidated)`.
    ///
    /// Per Table I / Figure 3: a no-op on MESI; DeNovo keeps owned lines;
    /// GPU-WB keeps dirty words; GPU-WT drops everything.
    pub fn invalidate_all(&mut self, core: usize, now: u64) -> (u64, u64) {
        let _ = now;
        let proto = self.protocols[core];
        if proto.invalidate_is_noop() {
            return (0, 0);
        }
        self.stats[core].invalidate_ops += 1;
        let dropped = match proto {
            Protocol::Mesi => unreachable!(),
            Protocol::DeNovo => self.l1s[core].retain_lines(|e| !e.owned),
            Protocol::GpuWt => self.l1s[core].retain_lines(|_| true),
            Protocol::GpuWb => {
                let mut count = 0;
                let full_drop = self.l1s[core].retain_lines(|e| {
                    if e.dirty.is_empty() {
                        true
                    } else {
                        if e.valid != e.dirty {
                            // Partially invalidated: stale clean words dropped.
                            e.valid = e.dirty;
                            count += 1;
                        }
                        false
                    }
                });
                full_drop + count
            }
        };
        self.stats[core].lines_invalidated += dropped;
        (1, dropped)
    }

    /// Bulk write-back of dirty data (`cache_flush`). Returns
    /// `(latency, lines_flushed)`.
    ///
    /// A no-op on MESI and DeNovo (ownership propagates dirty data); on
    /// GPU-WT it drains the store buffer; on GPU-WB it writes back every
    /// dirty word and waits for the acknowledgements.
    pub fn flush_all(&mut self, core: usize, now: u64) -> (u64, u64) {
        let proto = self.protocols[core];
        match proto {
            Protocol::Mesi | Protocol::DeNovo => (0, 0),
            Protocol::GpuWt => {
                // Write-throughs are already on their way to the L2; the
                // engine-level store buffer drains at the flush point.
                self.stats[core].flush_ops += 1;
                (1, 0)
            }
            Protocol::GpuWb => {
                self.stats[core].flush_ops += 1;
                let core_tile = self.core_tile(core);
                let (mut issue, mut done) = (now, now);
                let (mut lines, mut words) = (0u64, 0u64);
                // Dirty lines in slot order. Writing one back never adds or
                // removes a line of this (untracked) cache, so the walk
                // needs no snapshot.
                for slot in 0..self.l1s[core].slots() {
                    let (line, mask) = match self.l1s[core].at(slot) {
                        Some((line, e)) if !e.dirty.is_empty() => (line, e.dirty),
                        _ => continue,
                    };
                    issue += 1; // one write-back issued per cycle
                    let bank = self.l2.home_bank(line);
                    let bank_tile = self.bank_tile(bank);
                    let payload = u64::from(mask.count()) * 8;
                    let leg = self.mesh.send(core_tile, bank_tile, TrafficClass::WbReq, payload);
                    let t = self.l2.access(bank, issue + leg);
                    done = done.max(self.write_at_l2(core, line, bank, t));
                    self.versions.commit_line_words(line, mask);
                    self.l1s[core].touch(slot).dirty = WordMask::EMPTY;
                    lines += 1;
                    words += u64::from(mask.count());
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_mesh::Topology;

    /// A 4-core system: cores 0-1 MESI big, cores 2-3 `tiny_proto` tiny.
    fn system(tiny_proto: Protocol) -> MemorySystem {
        let mesh = MeshConfig::with_topology(Topology::new(2, 2));
        let cores = vec![
            CoreMemConfig::big(),
            CoreMemConfig::big(),
            CoreMemConfig::tiny(tiny_proto),
            CoreMemConfig::tiny(tiny_proto),
        ];
        MemorySystem::new(&MemConfig::paper(mesh, cores))
    }

    const A: Addr = Addr(0x10000);
    const B: Addr = Addr(0x20008);

    #[test]
    fn load_miss_then_hit_mesi() {
        let mut m = system(Protocol::Mesi);
        let miss = m.load(0, A, 0);
        assert!(miss > 10, "cold miss goes to DRAM: {miss}");
        let hit = m.load(0, A, miss);
        assert_eq!(hit, 1);
        assert_eq!(m.core_stats(0).loads, 2);
        assert_eq!(m.core_stats(0).load_hits, 1);
    }

    #[test]
    fn second_core_load_hits_l2_not_dram() {
        let mut m = system(Protocol::Mesi);
        let first = m.load(0, A, 0);
        let second = m.load(1, A, first);
        assert!(second < first, "L2 hit must be cheaper than DRAM fill: {second} vs {first}");
    }

    #[test]
    fn mesi_store_invalidates_sharers() {
        let mut m = system(Protocol::Mesi);
        m.load(0, A, 0);
        m.load(1, A, 100);
        // Core 1 writes: core 0's copy must be invalidated.
        m.store(1, A, 200);
        let before = m.core_stats(0).load_hits;
        m.load(0, A, 300);
        assert_eq!(m.core_stats(0).load_hits, before, "copy was invalidated, load must miss");
        assert!(m.traffic().messages(TrafficClass::CohReq) > 0);
        assert_eq!(m.total_stale_reads(), 0, "MESI never reads stale data");
    }

    #[test]
    fn mesi_exclusive_silent_upgrade() {
        let mut m = system(Protocol::Mesi);
        m.load(0, A, 0); // E state (no other sharers)
        let lat = m.store(0, A, 100);
        assert_eq!(lat, 1, "E->M upgrade is silent");
    }

    #[test]
    fn mesi_dirty_data_forwarded_to_reader() {
        let mut m = system(Protocol::Mesi);
        m.store(0, A, 0);
        let coh_before = m.traffic().messages(TrafficClass::CohResp);
        m.load(1, A, 1000);
        assert!(m.traffic().messages(TrafficClass::CohResp) > coh_before, "owner recall");
        assert_eq!(m.total_stale_reads(), 0);
    }

    #[test]
    fn denovo_invalidate_keeps_owned_lines() {
        let mut m = system(Protocol::DeNovo);
        m.store(2, A, 0); // acquires ownership
        m.load(2, B, 100); // clean line
        let (lat, dropped) = m.invalidate_all(2, 200);
        assert_eq!(lat, 1);
        assert_eq!(dropped, 1, "only the clean line drops");
        assert_eq!(m.load(2, A, 300), 1, "owned line still hits");
    }

    #[test]
    fn denovo_flush_is_noop() {
        let mut m = system(Protocol::DeNovo);
        m.store(2, A, 0);
        let (lat, flushed) = m.flush_all(2, 100);
        assert_eq!((lat, flushed), (0, 0));
    }

    #[test]
    fn denovo_ownership_forwards_dirty_data() {
        let mut m = system(Protocol::DeNovo);
        m.store(2, A, 0);
        // Another tiny core reads: data is recalled from the owner.
        let coh_before = m.traffic().messages(TrafficClass::CohResp);
        m.load(3, A, 1000);
        assert!(m.traffic().messages(TrafficClass::CohResp) > coh_before);
        assert_eq!(m.total_stale_reads(), 0);
    }

    #[test]
    fn denovo_stale_read_detected_without_invalidate() {
        let mut m = system(Protocol::DeNovo);
        m.load(3, A, 0); // core 3 caches a clean copy
        m.store(2, A, 100); // core 2 takes ownership and writes
        m.load(3, A, 200); // stale! core 3 skipped its invalidate
        assert_eq!(m.core_stats(3).stale_reads, 1);
        // After invalidation the read is fresh.
        m.invalidate_all(3, 300);
        m.load(3, A, 400);
        assert_eq!(m.core_stats(3).stale_reads, 1, "no new stale read");
    }

    #[test]
    fn gpu_wt_stores_write_through() {
        let mut m = system(Protocol::GpuWt);
        let lat = m.store(2, A, 0);
        assert!(lat > 1, "full write-through completion (engine buffers it): {lat}");
        assert_eq!(m.traffic().messages(TrafficClass::WbReq), 1);
        // No write-allocate: a subsequent load misses.
        let load = m.load(2, A, 100);
        assert!(load > 1);
        // Flush writes back nothing (writes already went through).
        let (_, flushed) = m.flush_all(2, 1000);
        assert_eq!(flushed, 0);
    }

    #[test]
    fn gpu_wb_flush_writes_dirty_words() {
        let mut m = system(Protocol::GpuWb);
        m.store(2, A, 0);
        m.store(2, A.offset(8), 1);
        m.store(2, B, 2);
        let (lat, flushed) = m.flush_all(2, 10);
        assert_eq!(flushed, 2, "two dirty lines");
        assert!(lat > 1);
        assert_eq!(m.core_stats(2).words_flushed, 3);
        // 2 wb messages with 16 and 8 byte payloads + headers.
        assert_eq!(m.traffic().bytes(TrafficClass::WbReq), 16 + 8 + 8 + 8);
        // Second flush has nothing to do.
        let (_, flushed2) = m.flush_all(2, 1000);
        assert_eq!(flushed2, 0);
    }

    #[test]
    fn gpu_wb_unflushed_data_is_stale_for_readers() {
        let mut m = system(Protocol::GpuWb);
        m.store(2, A, 0);
        // Reader misses but the write was never flushed: stale on real HW.
        m.load(3, A, 100);
        assert_eq!(m.core_stats(3).stale_reads, 1);
        // Now flush and invalidate: fresh.
        m.flush_all(2, 200);
        m.invalidate_all(3, 300);
        m.load(3, A, 400);
        assert_eq!(m.core_stats(3).stale_reads, 1);
    }

    #[test]
    fn gpu_wb_invalidate_keeps_dirty_words() {
        let mut m = system(Protocol::GpuWb);
        m.store(2, A, 0);
        m.load(2, B, 10);
        let (_, dropped) = m.invalidate_all(2, 100);
        assert_eq!(dropped, 1);
        assert_eq!(m.load(2, A, 200), 1, "dirty word survives invalidation");
    }

    #[test]
    fn gpu_amo_executes_at_l2() {
        let mut m = system(Protocol::GpuWb);
        let lat = m.amo(2, A, 0);
        assert!(lat > 5, "AMO pays a network+L2 round trip: {lat}");
        assert_eq!(m.traffic().messages(TrafficClass::SyncReq), 1);
        assert_eq!(m.traffic().messages(TrafficClass::SyncResp), 1);
        assert_eq!(m.core_stats(2).amos, 1);
    }

    #[test]
    fn mesi_amo_executes_in_l1() {
        let mut m = system(Protocol::Mesi);
        m.store(0, A, 0); // M state
        let lat = m.amo(0, A, 100);
        assert_eq!(lat, 2, "AMO on an M-state line is local: store(1) + op(1)");
        assert_eq!(m.traffic().messages(TrafficClass::SyncReq), 0);
    }

    #[test]
    fn wt_write_invalidates_mesi_sharers() {
        let mut m = system(Protocol::GpuWt);
        m.load(0, A, 0); // MESI big core caches the line
        m.store(2, A, 100); // tiny WT core writes through
        let hits_before = m.core_stats(0).load_hits;
        m.load(0, A, 2000);
        assert_eq!(m.core_stats(0).load_hits, hits_before, "MESI copy was invalidated");
        assert_eq!(m.total_stale_reads(), 0);
    }

    #[test]
    fn mesi_invalidate_and_flush_are_noops() {
        let mut m = system(Protocol::Mesi);
        m.store(0, A, 0);
        assert_eq!(m.invalidate_all(0, 10), (0, 0));
        assert_eq!(m.flush_all(0, 10), (0, 0));
        assert_eq!(m.load(0, A, 20), 1);
    }

    #[test]
    fn eviction_writes_back_dirty_mesi_line() {
        let mut m = system(Protocol::Mesi);
        // Fill one set beyond capacity with dirty lines. 64KB 2-way = 512
        // sets; lines k*512 map to set 0.
        let stride = 512 * 64;
        m.store(0, Addr(0), 0);
        m.store(0, Addr(stride), 100);
        let wb_before = m.traffic().messages(TrafficClass::WbReq);
        m.store(0, Addr(2 * stride), 200);
        assert!(
            m.traffic().messages(TrafficClass::WbReq) > wb_before,
            "dirty eviction writes back"
        );
    }

    #[test]
    fn tiny_cache_capacity_causes_more_misses_than_big() {
        let mut m = system(Protocol::Mesi);
        // Touch 8 KB: fits in the big core's 64 KB but not the tiny's 4 KB.
        let lines = 128;
        for i in 0..lines {
            m.load(0, Addr(i * 64), i * 10);
            m.load(2, Addr(0x100000 + i * 64), i * 10);
        }
        for i in 0..lines {
            m.load(0, Addr(i * 64), 100_000 + i * 10);
            m.load(2, Addr(0x100000 + i * 64), 100_000 + i * 10);
        }
        let big = m.core_stats(0);
        let tiny = m.core_stats(2);
        assert!(big.l1d_hit_rate() > tiny.l1d_hit_rate());
    }

    /// Two lines 2^40 bytes apart and the last word of the address space:
    /// tags, set indexing and the version table all take them, and host
    /// memory follows the three lines touched, not the address magnitude.
    #[test]
    fn sparse_and_extreme_addresses_cost_only_the_lines_touched() {
        for tiny in [Protocol::Mesi, Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
            let mut m = system(tiny);
            let mut t = 0;
            for a in [A, A.offset(1 << 40), Addr(u64::MAX - 7)] {
                for core in [0, 2, 3] {
                    t += m.load(core, a, t);
                    t += m.store(core, a, t);
                    t += m.amo(core, a, t);
                    t += m.flush_all(core, t).0;
                    t += m.invalidate_all(core, t).0;
                    assert_eq!(
                        m.load(0, a, t) > 1,
                        core != 0,
                        "{tiny:?}: remote write recalls core 0"
                    );
                }
            }
            assert_eq!(m.versions.pages(), 3, "{tiny:?}: one 4 KB page per line touched");
            assert_eq!(m.total_stale_reads(), 0, "{tiny:?}");
            m.check_invariants().expect("invariants");
        }
    }

    #[test]
    fn traffic_is_conserved_request_response() {
        let mut m = system(Protocol::Mesi);
        for i in 0..64 {
            m.load(0, Addr(i * 64), i);
        }
        let t = m.traffic();
        assert_eq!(t.messages(TrafficClass::CpuReq), t.messages(TrafficClass::DataResp));
        assert_eq!(t.messages(TrafficClass::DramReq), t.messages(TrafficClass::DramResp));
    }
}
