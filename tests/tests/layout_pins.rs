//! Coherence-layer pins: the memory model's observable behaviour on seeded
//! random operation streams, folded into one hash per cell.
//!
//! The staleness oracle, the L1/L2 tag arrays and the directory are host
//! data structures whose *layout* may change for speed; what they report
//! may not. Each cell drives ≥ 20 000 operations of {load, load_racy,
//! store, amo, invalidate_all, flush_all} from one MESI big core and three
//! tiny cores over a 48-slot hot set plus a streaming range larger than
//! every L1 and the (deliberately tiny) L2, so L1 evictions, L2 evictions
//! and victim recalls of owned/shared lines all happen. Every operation's
//! returned latency and, at the end, every [`CoreMemStats`] field and the
//! OCN traffic matrix are folded with FNV-1a; `check_invariants()` must
//! hold after every single operation.
//!
//! The pins (`tests/pins/layout-*.txt`) were captured on the
//! `HashMap`/`Vec<Option<_>>` model (the commit that added them changed
//! nothing else) and any later layout must reproduce them bit for bit. Disciplined streams (invalidate →
//! accesses → flush, one core at a time) must report zero stale reads;
//! undisciplined ones must report some on every software-centric protocol,
//! so the oracle is pinned in both regimes.
//!
//! [`CoreMemStats`]: bigtiny_coherence::CoreMemStats

use bigtiny_coherence::{Addr, CoreMemConfig, MemConfig, MemorySystem, Protocol};
use bigtiny_engine::hash::{fnv1a_continue, FNV_OFFSET};
use bigtiny_mesh::{MeshConfig, Topology, XorShift64};
use bigtiny_tests::pins;

const OPS: usize = 24_000;
const CORES: u64 = 4;
const HOT_BASE: u64 = 0x1_0000;
const HOT_SLOTS: u64 = 48;
const STREAM_BASE: u64 = 0x40_0000;
/// 1024 lines: 16x a tiny L1, 8x the small-geometry L2.
const STREAM_WORDS: u64 = 8 * 1024;

const PROTOCOLS: [Protocol; 4] =
    [Protocol::Mesi, Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb];

/// The paper's L1 shapes over a 2-bank, 8-way, 128-line L2.
fn small_l2(tiny: Protocol) -> MemorySystem {
    let mut cfg = MemConfig::paper(
        MeshConfig::with_topology(Topology::new(2, 2)),
        vec![
            CoreMemConfig::big(),
            CoreMemConfig::tiny(tiny),
            CoreMemConfig::tiny(tiny),
            CoreMemConfig::tiny(tiny),
        ],
    );
    cfg.l2_bank_bytes = 4096;
    MemorySystem::new(&cfg)
}

/// Nothing is a power of two: 3 banks of 5 sets x 3 ways, a 5-set 3-way
/// big L1 and direct-mapped 7-set tiny L1s.
fn odd_geometry(tiny: Protocol) -> MemorySystem {
    let tiny_l1 = CoreMemConfig { protocol: tiny, l1_bytes: 7 * 64, l1_ways: 1 };
    let mut cfg = MemConfig::paper(
        MeshConfig::with_topology(Topology::new(2, 3)),
        vec![
            CoreMemConfig { protocol: Protocol::Mesi, l1_bytes: 15 * 64, l1_ways: 3 },
            tiny_l1,
            tiny_l1,
            tiny_l1,
        ],
    );
    cfg.l2_bank_bytes = 15 * 64;
    cfg.l2_ways = 3;
    MemorySystem::new(&cfg)
}

struct Stream {
    m: MemorySystem,
    rng: XorShift64,
    /// FNV-1a over the little-endian bytes of every folded word.
    hash: u64,
    now: u64,
    cursor: u64,
    ops: usize,
}

impl Stream {
    fn new(m: MemorySystem, seed: u64) -> Self {
        Stream { m, rng: XorShift64::new(seed), hash: FNV_OFFSET, now: 0, cursor: 0, ops: 0 }
    }

    fn core(&mut self) -> usize {
        self.rng.next_below(CORES) as usize
    }

    /// Hot set, a shared sequential cursor (7/8 spatial hits), or a random
    /// word of the streaming range.
    fn addr(&mut self) -> Addr {
        match self.rng.next_below(10) {
            0..=5 => Addr(HOT_BASE + self.rng.next_below(HOT_SLOTS) * 8),
            6..=7 => {
                self.cursor = (self.cursor + 1) % STREAM_WORDS;
                Addr(STREAM_BASE + self.cursor * 8)
            }
            _ => Addr(STREAM_BASE + self.rng.next_below(STREAM_WORDS) * 8),
        }
    }

    fn fold(&mut self, v: u64) {
        self.hash = fnv1a_continue(self.hash, &v.to_le_bytes());
    }

    fn retire(&mut self, results: [u64; 2]) {
        for r in results {
            self.fold(r);
        }
        self.ops += 1;
        self.now += 1 + self.rng.next_below(20);
        if let Err(e) = self.m.check_invariants() {
            panic!("cache invariant violated after op {}: {e}", self.ops);
        }
    }

    fn access(&mut self, core: usize) {
        let addr = self.addr();
        let lat = match self.rng.next_below(8) {
            0..=2 => self.m.load(core, addr, self.now),
            3 => self.m.load_racy(core, addr, self.now),
            4..=6 => self.m.store(core, addr, self.now),
            _ => self.m.amo(core, addr, self.now),
        };
        self.retire([lat, 0]);
    }

    fn invalidate(&mut self, core: usize) {
        let (lat, lines) = self.m.invalidate_all(core, self.now);
        self.retire([lat, lines]);
    }

    fn flush(&mut self, core: usize) {
        let (lat, lines) = self.m.flush_all(core, self.now);
        self.retire([lat, lines]);
    }

    /// Folds the final statistics and traffic; returns `(hash, stale_reads)`.
    fn finish(mut self) -> (u64, u64) {
        for core in 0..CORES as usize {
            for (_, v) in self.m.core_stats(core).pairs() {
                self.fold(v);
            }
        }
        for (_, msgs, bytes) in self.m.traffic().by_class() {
            self.fold(msgs);
            self.fold(bytes);
        }
        self.fold(self.m.traffic().hop_cycles());
        (self.hash, self.m.total_stale_reads())
    }
}

/// Any core does anything at any time; bulk operations are rare enough
/// that stale copies survive to be read.
fn undisciplined(m: MemorySystem, seed: u64) -> (u64, u64) {
    let mut s = Stream::new(m, seed);
    while s.ops < OPS {
        let core = s.core();
        match s.rng.next_below(12) {
            0 => s.invalidate(core),
            1 => s.flush(core),
            _ => s.access(core),
        }
    }
    s.finish()
}

/// Section III's discipline as totally ordered critical sections: a core
/// self-invalidates, makes a burst of accesses, and flushes before any
/// other core runs.
fn disciplined(m: MemorySystem, seed: u64) -> (u64, u64) {
    let mut s = Stream::new(m, seed);
    while s.ops < OPS {
        let core = s.core();
        s.invalidate(core);
        for _ in 0..1 + s.rng.next_below(6) {
            s.access(core);
        }
        s.flush(core);
    }
    s.finish()
}

/// Runs `run` once per tiny-core protocol and holds the hashes to the pin
/// family `family`.
fn check_row(family: &str, stale: impl Fn(Protocol, u64), run: impl Fn(Protocol) -> (u64, u64)) {
    let mut observed = pins::Table::new("protocol hash");
    for proto in PROTOCOLS {
        let (hash, stale_reads) = run(proto);
        stale(proto, stale_reads);
        observed.row(format!("{proto:?}"), [pins::hex(hash)]);
    }
    pins::check(family, &observed);
}

fn expect_some_stale(proto: Protocol, stale_reads: u64) {
    if proto == Protocol::Mesi {
        assert_eq!(stale_reads, 0, "an all-MESI system never reads stale data");
    } else {
        assert!(stale_reads > 0, "{proto:?}: undisciplined stream must trip the oracle");
    }
}

#[test]
fn undisciplined_streams_are_pinned() {
    check_row("layout-undisciplined", expect_some_stale, |p| {
        undisciplined(small_l2(p), 0x4c41_594f_5554_0001)
    });
}

#[test]
fn disciplined_streams_are_pinned_and_never_stale() {
    check_row(
        "layout-disciplined",
        |proto, stale_reads| assert_eq!(stale_reads, 0, "{proto:?}: disciplined use is fresh"),
        |p| disciplined(small_l2(p), 0x4c41_594f_5554_0002),
    );
}

#[test]
fn odd_geometry_streams_are_pinned() {
    check_row("layout-odd-geometry", expect_some_stale, |p| {
        undisciplined(odd_geometry(p), 0x4c41_594f_5554_0003)
    });
}
