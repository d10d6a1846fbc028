//! Corner-case tests of the memory system: directory state across L1/L2
//! evictions, partial-line merges, and capacity behaviour.

use bigtiny_coherence::{Addr, CoreMemConfig, MemConfig, MemorySystem, Protocol};
use bigtiny_mesh::{MeshConfig, Topology, TrafficClass};

fn system(tiny: Protocol) -> MemorySystem {
    let cfg = MemConfig::paper(
        MeshConfig::with_topology(Topology::new(2, 2)),
        vec![
            CoreMemConfig::big(),
            CoreMemConfig::tiny(tiny),
            CoreMemConfig::tiny(tiny),
            CoreMemConfig::tiny(tiny),
        ],
    );
    MemorySystem::new(&cfg)
}

/// A tiny L2 forces evictions of lines with live directory state; the
/// recall keeps everything coherent (no stale reads afterwards).
#[test]
fn l2_eviction_recalls_sharers_and_owner() {
    let mut cfg = MemConfig::paper(
        MeshConfig::with_topology(Topology::new(2, 2)),
        vec![
            CoreMemConfig::big(),
            CoreMemConfig::tiny(Protocol::DeNovo),
            CoreMemConfig::tiny(Protocol::DeNovo),
            CoreMemConfig::tiny(Protocol::DeNovo),
        ],
    );
    // 1 KB L2 per bank, 2-way: tiny enough to thrash.
    cfg.l2_bank_bytes = 1024;
    cfg.l2_ways = 2;
    let mut m = MemorySystem::new(&cfg);

    // Big core caches a line; DeNovo core owns another; then sweep enough
    // lines through the L2 to evict both.
    m.load(0, Addr(0x10000), 0);
    m.store(1, Addr(0x20000), 10);
    let mut t = 100;
    for i in 0..256 {
        m.load(3, Addr(0x100000 + i * 64), t);
        t += 50;
    }
    // Fresh disciplined reads remain coherent.
    m.invalidate_all(2, t);
    m.load(2, Addr(0x20000), t + 1);
    m.load(0, Addr(0x10000), t + 2);
    assert_eq!(m.total_stale_reads(), 0);
    assert!(m.traffic().messages(TrafficClass::DramReq) > 0, "L2 thrash reached DRAM");
}

/// A DeNovo owned-dirty eviction writes back its dirty words and releases
/// ownership, so a later reader gets fresh data from the L2.
#[test]
fn denovo_owned_eviction_writes_back() {
    let mut m = system(Protocol::DeNovo);
    // Fill one L1 set (4 KB, 2-way, 32 sets: stride 32*64 = 2 KB).
    let stride = 32 * 64;
    m.store(1, Addr(0x40000), 0);
    m.store(1, Addr(0x40000 + stride), 10);
    let wb_before = m.traffic().bytes(TrafficClass::WbReq);
    m.store(1, Addr(0x40000 + 2 * stride), 20); // evicts the first line
    assert!(m.traffic().bytes(TrafficClass::WbReq) > wb_before, "dirty owned eviction writes back");
    // A reader that self-invalidates sees the evicted line's data fresh.
    m.invalidate_all(2, 100);
    m.load(2, Addr(0x40000), 101);
    assert_eq!(m.total_stale_reads(), 0);
}

/// GPU-WB partial lines merge correctly on a later fetch: locally dirty
/// words keep their freshness across a refill of the rest of the line.
#[test]
fn gpu_wb_partial_line_merge() {
    let mut m = system(Protocol::GpuWb);
    let base = Addr(0x50000);
    // Core 2 writes word 0 (no-fetch allocate: only word 0 valid).
    m.store(2, base, 0);
    // Reading word 3 of the same line misses and merges.
    let lat = m.load(2, base.offset(24), 10);
    assert!(lat > 1, "invalid word must fetch");
    // Word 0 is still our own dirty data: a hit and never stale.
    assert_eq!(m.load(2, base, 20), 1);
    assert_eq!(m.total_stale_reads(), 0);
    // Flush publishes exactly one dirty word.
    let (_, flushed) = m.flush_all(2, 30);
    assert_eq!(flushed, 1);
    assert_eq!(m.core_stats(2).words_flushed, 1);
}

/// MESI exclusive-state grant: a second load by the same core hits; a store
/// after an exclusive grant is silent; and a second core's load downgrades
/// the owner without DRAM traffic.
#[test]
fn mesi_exclusive_grant_and_downgrade() {
    let mut m = system(Protocol::Mesi);
    let a = Addr(0x60000);
    m.load(0, a, 0);
    assert_eq!(m.load(0, a, 100), 1);
    assert_eq!(m.store(0, a, 200), 1, "E->M is silent");
    let dram_before = m.traffic().messages(TrafficClass::DramReq);
    m.load(1, a, 300);
    assert_eq!(m.traffic().messages(TrafficClass::DramReq), dram_before, "owner forward, not DRAM");
    assert_eq!(m.total_stale_reads(), 0);
}

/// AMO ping-pong between MESI cores stays in private caches (no sync_req)
/// while GPU cores always pay the shared-cache round trip.
#[test]
fn amo_placement_traffic_signature() {
    let mut mesi = system(Protocol::Mesi);
    let a = Addr(0x70000);
    for i in 0..8u64 {
        mesi.amo((i % 4) as usize, a, i * 100);
    }
    assert_eq!(mesi.traffic().messages(TrafficClass::SyncReq), 0);
    assert!(mesi.traffic().messages(TrafficClass::CohReq) > 0, "ownership ping-pong");

    let mut gwb = system(Protocol::GpuWb);
    for i in 0..8u64 {
        gwb.amo(1 + (i % 3) as usize, a, i * 100);
    }
    assert_eq!(gwb.traffic().messages(TrafficClass::SyncReq), 8, "every AMO at the L2");
}

/// The one shrunk case the retired proptest suite ever recorded
/// (`Load{core 0, slot 0}`, `Store{core 1, slot 7}`, `Load{core 0, slot 7}`,
/// tiny = GPU-WB): a MESI reader *hits* a line in which a GPU-WB writer has
/// since dirtied another word without flushing. The directory never hears
/// of the write, so the MESI copy survives and the oracle charges the stale
/// read to the hardware-coherent core; the writer's flush then invalidates
/// that copy and the re-read is fresh.
#[test]
fn mesi_reader_hits_line_dirtied_by_unflushed_gpu_wb_writer() {
    let mut m = system(Protocol::GpuWb);
    let slot = |s: u64| Addr(0x10000 + s * 8);
    let miss = m.load(0, slot(0), 10);
    assert!(miss > 1, "cold miss");
    assert_eq!(m.store(1, slot(7), 20), 1, "no-fetch write-allocate is local");
    assert_eq!(m.load(0, slot(7), 30), 1, "MESI copy is still resident: a hit");
    assert_eq!(m.core_stats(0).stale_reads, 1, "the hit observed the pre-store value");
    assert_eq!(m.total_stale_reads(), 1);
    assert_eq!(m.traffic().messages(TrafficClass::CohReq), 0, "nothing reached the directory");

    let (_, flushed) = m.flush_all(1, 40);
    assert_eq!(flushed, 1);
    assert!(m.traffic().messages(TrafficClass::CohReq) > 0, "flush recalls the MESI holder");
    assert!(m.load(0, slot(7), 100) > 1, "copy was invalidated: refetch");
    assert_eq!(m.total_stale_reads(), 1, "fresh after the flush");
    m.check_invariants().expect("invariants");
}

/// A dirty *eviction* (not a flush) from a no-ownership cache reaches the L2
/// unannounced, like a flush does: the directory recalls the MESI copy the
/// written-back word supersedes.
#[test]
fn gpu_wb_dirty_eviction_recalls_the_mesi_copy() {
    let mut m = system(Protocol::GpuWb);
    let a = Addr(0x80000);
    // Tiny L1: 4 KB, 2-way, 32 sets — lines 2 KB apart share a set.
    let stride = 32 * 64;
    m.load(0, a, 0);
    assert_eq!(m.store(1, a.offset(8), 10), 1, "no-fetch write-allocate is local");
    m.store(1, a.offset(stride), 20);
    assert_eq!(m.traffic().messages(TrafficClass::CohReq), 0, "nothing reached the directory");
    let wb_before = m.traffic().messages(TrafficClass::WbReq);
    m.store(1, a.offset(2 * stride), 30); // third line of the set: evicts the first
    assert_eq!(m.traffic().messages(TrafficClass::WbReq), wb_before + 1, "dirty eviction");
    assert!(m.traffic().messages(TrafficClass::CohReq) > 0, "write-back recalls the MESI holder");
    assert_eq!(m.flush_all(1, 40).1, 2, "the evicted line was not flushed: two dirty lines left");

    let hits_before = m.core_stats(0).load_hits;
    assert!(m.load(0, a.offset(8), 100) > 1, "copy was invalidated: refetch");
    assert_eq!(m.core_stats(0).load_hits, hits_before);
    assert_eq!(m.total_stale_reads(), 0);
    m.check_invariants().expect("invariants");
}
