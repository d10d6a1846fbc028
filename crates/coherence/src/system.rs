//! The heterogeneous memory system: private L1s running per-core protocols,
//! integrated at a shared banked L2 with an embedded directory.
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
//! # Layout of the model
//!
//! This file says what the machine *is* (configuration, construction,
//! statistics, structural invariants). What an operation does in its private
//! L1 is in `ops.rs`; what the shared L2 and its directory do for it is in
//! `directory.rs`; where a protocol sits on Table I — the only thing either
//! asks of it, outside the four store algorithms — is in `protocol.rs`.

use bigtiny_mesh::{Mesh, MeshConfig, TrafficStats};

use crate::addr::WordMask;
use crate::l1::{L1Cache, MesiState};
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

/// The heterogeneous cache-coherent memory system.
#[derive(Debug)]
pub struct MemorySystem {
    pub(crate) protocols: Vec<Protocol>,
    pub(crate) l1s: Vec<L1Cache>,
    pub(crate) l2: L2Cache,
    pub(crate) dram: Dram,
    pub(crate) mesh: Mesh,
    pub(crate) stats: Vec<CoreMemStats>,
    /// The staleness oracle's word versions.
    pub(crate) versions: VersionTable,
}

impl MemorySystem {
    /// Builds the memory system for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is empty or exceeds the mesh capacity or the
    /// directory's sharer-list capacity ([`CoreSet::CAPACITY`]).
    pub fn new(config: &MemConfig) -> Self {
        let topo = config.mesh.topology;
        let num_cores = config.cores.len();
        assert!(num_cores > 0, "need at least one core");
        assert!(num_cores <= topo.num_tiles(), "more cores than mesh tiles");
        assert!(
            num_cores <= CoreSet::CAPACITY,
            "{num_cores} cores exceed the directory's limit of {} (CoreSet::CAPACITY)",
            CoreSet::CAPACITY
        );
        MemorySystem {
            protocols: config.cores.iter().map(|c| c.protocol).collect(),
            l1s: config.cores.iter().map(|c| L1Cache::new(c.l1_bytes, c.l1_ways)).collect(),
            l2: L2Cache::new(topo.num_banks(), config.l2_bank_bytes, config.l2_ways),
            dram: Dram::new(topo.num_banks(), config.dram_latency, config.dram_cycles_per_line),
            mesh: Mesh::new(config.mesh),
            stats: vec![CoreMemStats::default(); num_cores],
            versions: VersionTable::default(),
        }
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
    /// * hardware-coherent (MESI) lines are always whole-line valid, and
    ///   dirty data only exists in `Modified` state;
    /// * only a self-invalidating cache that tracks ownership (DeNovo) ever
    ///   holds an `owned` line;
    /// * where a flush is a no-op, every dirty word is in an owned line
    ///   (none at all under GPU-WT): nothing dirty is ever stranded, and
    ///   `invalidate_all` / `flush_all` need not tell the protocols apart;
    /// * no line is resident twice in one L1.
    ///
    /// Returns a description of the first violation, if any. Chaos tests
    /// call this on the final state of every fault-injected run.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (core, l1) in self.l1s.iter().enumerate() {
            let proto = self.protocols[core];
            let hardware = proto.hardware_coherent();
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
                if e.owned && (hardware || !proto.tracks_ownership()) {
                    return Err(format!("core {core}: {proto} line {line} is owned"));
                }
                if hardware {
                    if e.valid != WordMask::FULL {
                        return Err(format!("core {core}: MESI line {line} partially valid"));
                    }
                    if !e.dirty.is_empty() && e.mesi != MesiState::Modified {
                        return Err(format!(
                            "core {core}: MESI line {line} dirty in state {:?}",
                            e.mesi
                        ));
                    }
                } else if proto.flush_is_noop() && !e.owned && !e.dirty.is_empty() {
                    return Err(format!(
                        "core {core}: {proto} line {line} holds unowned dirty words"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use bigtiny_mesh::{Topology, TrafficClass};

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

    /// The directory's sharer list bounds the machine: the largest machine
    /// it can track builds, one core more is refused before any operation
    /// (not by an assert inside the first sharer-list update).
    #[test]
    fn core_count_is_checked_against_the_directory_at_construction() {
        let build = |cores: usize| {
            let mut cfg = MemConfig::paper(
                MeshConfig::with_topology(Topology::new(17, 16)),
                vec![CoreMemConfig::tiny(Protocol::Mesi); cores],
            );
            cfg.l2_bank_bytes = 4096;
            MemorySystem::new(&cfg)
        };
        let mut m = build(CoreSet::CAPACITY);
        m.load(255, A, 0);
        m.store(254, A, 100);
        m.check_invariants().expect("invariants");
        let refused = std::panic::catch_unwind(|| build(CoreSet::CAPACITY + 1)).expect_err("257");
        let msg = refused.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("257 cores") && msg.contains("256"), "{msg}");
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
