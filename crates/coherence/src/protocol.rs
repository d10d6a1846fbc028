//! The four coherence protocols of the paper and their Table-I taxonomy.

use std::fmt;

use crate::addr::WordMask;
use crate::l1::{LineEntry, MesiState};

/// A private-cache coherence protocol.
///
/// The paper (Table I) classifies protocols along three axes: who initiates
/// stale invalidation, how dirty data propagates, and at what granularity
/// writes are performed. [`ProtocolTraits`] encodes that classification.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Protocol {
    /// Hardware-based MESI with writer-initiated invalidation and a precise
    /// directory — what the paper's big cores (and the `big.TINY/MESI`
    /// configuration's tiny cores) use.
    Mesi,
    /// DeNovo (the DeNovoSync variant): reader-initiated self-invalidation
    /// with ownership-based dirty propagation.
    DeNovo,
    /// GPU-style write-through, no-write-allocate, no ownership.
    GpuWt,
    /// GPU-style write-back with per-word dirty masks, no ownership.
    GpuWb,
}

/// Who initiates invalidation of stale copies.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StaleInvalidation {
    /// The writer invalidates every other copy before writing (MESI).
    Writer,
    /// Readers self-invalidate potentially stale data at acquire points.
    Reader,
}

/// How dirty data becomes visible to other caches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DirtyPropagation {
    /// An owner is tracked and supplies data on demand, writing back lazily.
    OwnerWriteBack,
    /// No owner; every write goes straight through to the shared cache.
    NoOwnerWriteThrough,
    /// No owner; dirty data is written back in bulk at explicit flushes.
    NoOwnerWriteBack,
}

/// Unit size at which writes are performed and ownership is managed.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WriteGranularity {
    /// Whole cache lines (MESI).
    Line,
    /// Individual words, with ownership managed per line (DeNovo).
    WordOrLine,
    /// Individual words only.
    Word,
}

/// The Table-I classification of a [`Protocol`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProtocolTraits {
    /// Who initiates invalidation.
    pub stale_invalidation: StaleInvalidation,
    /// How dirty data propagates.
    pub dirty_propagation: DirtyPropagation,
    /// Write granularity.
    pub write_granularity: WriteGranularity,
}

impl Protocol {
    /// All four protocols, in the paper's Table-I order.
    pub const ALL: [Protocol; 4] =
        [Protocol::Mesi, Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb];

    /// The Table-I classification of this protocol.
    pub fn traits(self) -> ProtocolTraits {
        match self {
            Protocol::Mesi => ProtocolTraits {
                stale_invalidation: StaleInvalidation::Writer,
                dirty_propagation: DirtyPropagation::OwnerWriteBack,
                write_granularity: WriteGranularity::Line,
            },
            Protocol::DeNovo => ProtocolTraits {
                stale_invalidation: StaleInvalidation::Reader,
                dirty_propagation: DirtyPropagation::OwnerWriteBack,
                write_granularity: WriteGranularity::WordOrLine,
            },
            Protocol::GpuWt => ProtocolTraits {
                stale_invalidation: StaleInvalidation::Reader,
                dirty_propagation: DirtyPropagation::NoOwnerWriteThrough,
                write_granularity: WriteGranularity::Word,
            },
            Protocol::GpuWb => ProtocolTraits {
                stale_invalidation: StaleInvalidation::Reader,
                dirty_propagation: DirtyPropagation::NoOwnerWriteBack,
                write_granularity: WriteGranularity::Word,
            },
        }
    }

    /// Axis 1, stale invalidation: whether writers invalidate every other
    /// copy through the directory (hardware-based coherence). The directory
    /// then tracks each copy precisely (a sharer list, or the owner pointer
    /// for E/M), lines are always whole-line valid, and a resident word is
    /// never stale. Everything else self-invalidates at acquire points.
    pub fn hardware_coherent(self) -> bool {
        self.traits().stale_invalidation == StaleInvalidation::Writer
    }

    /// Axis 2, dirty propagation: whether a write first registers the cache
    /// as the line's owner at the directory, which then recalls dirty data
    /// on demand. Without ownership, dirty data reaches the L2 unannounced
    /// (a write-through, a flush, a dirty eviction) and the L2 must recall
    /// the hardware-coherent copies it supersedes.
    pub fn tracks_ownership(self) -> bool {
        self.traits().dirty_propagation == DirtyPropagation::OwnerWriteBack
    }

    /// Axis 3, write granularity: the words `entry` writes back when it
    /// leaves the cache or its owner is recalled — the whole line iff it is
    /// Modified under line granularity, else exactly the dirty words.
    pub(crate) fn writeback_mask(self, entry: &LineEntry) -> WordMask {
        let whole_line = self.traits().write_granularity == WriteGranularity::Line;
        if whole_line && entry.mesi == MesiState::Modified {
            WordMask::FULL
        } else {
            entry.dirty
        }
    }

    /// Whether `cache_invalidate` (self-invalidation of clean data) is a
    /// semantic no-op for this protocol. Only MESI, whose writer-initiated
    /// invalidations keep every copy fresh, can skip it (Section III-C).
    pub fn invalidate_is_noop(self) -> bool {
        self.hardware_coherent()
    }

    /// Whether `cache_flush` (bulk write-back of dirty data) is a semantic
    /// no-op. True for everything except GPU-WB: MESI and DeNovo propagate
    /// via ownership, GPU-WT writes through immediately (it still drains its
    /// store buffer at a flush point).
    pub fn flush_is_noop(self) -> bool {
        self.traits().dirty_propagation != DirtyPropagation::NoOwnerWriteBack
    }

    /// Whether atomic memory operations execute in the private L1 (requires
    /// ownership tracking) rather than at the shared L2 (Section II-A).
    pub fn amo_in_l1(self) -> bool {
        self.tracks_ownership()
    }

    /// Short configuration label used in reports (`mesi`, `dnv`, `gwt`, `gwb`).
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Mesi => "mesi",
            Protocol::DeNovo => "dnv",
            Protocol::GpuWt => "gwt",
            Protocol::GpuWb => "gwb",
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Protocol::Mesi => "MESI",
            Protocol::DeNovo => "DeNovo",
            Protocol::GpuWt => "GPU-WT",
            Protocol::GpuWb => "GPU-WB",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_classification() {
        // MESI: Writer / Owner WB / Line
        let m = Protocol::Mesi.traits();
        assert_eq!(m.stale_invalidation, StaleInvalidation::Writer);
        assert_eq!(m.dirty_propagation, DirtyPropagation::OwnerWriteBack);
        assert_eq!(m.write_granularity, WriteGranularity::Line);
        // DeNovo: Reader / Owner WB / Word-Line
        let d = Protocol::DeNovo.traits();
        assert_eq!(d.stale_invalidation, StaleInvalidation::Reader);
        assert_eq!(d.dirty_propagation, DirtyPropagation::OwnerWriteBack);
        assert_eq!(d.write_granularity, WriteGranularity::WordOrLine);
        // GPU-WT: Reader / No-owner WT / Word
        let wt = Protocol::GpuWt.traits();
        assert_eq!(wt.stale_invalidation, StaleInvalidation::Reader);
        assert_eq!(wt.dirty_propagation, DirtyPropagation::NoOwnerWriteThrough);
        assert_eq!(wt.write_granularity, WriteGranularity::Word);
        // GPU-WB: Reader / No-owner WB / Word
        let wb = Protocol::GpuWb.traits();
        assert_eq!(wb.stale_invalidation, StaleInvalidation::Reader);
        assert_eq!(wb.dirty_propagation, DirtyPropagation::NoOwnerWriteBack);
        assert_eq!(wb.write_granularity, WriteGranularity::Word);
    }

    #[test]
    fn runtime_noop_table_matches_figure_three_caption() {
        // cache_flush = no-op on MESI, DeNovo, and GPU-WT
        assert!(Protocol::Mesi.flush_is_noop());
        assert!(Protocol::DeNovo.flush_is_noop());
        assert!(Protocol::GpuWt.flush_is_noop());
        assert!(!Protocol::GpuWb.flush_is_noop());
        // cache_invalidate = no-op on MESI only
        assert!(Protocol::Mesi.invalidate_is_noop());
        assert!(!Protocol::DeNovo.invalidate_is_noop());
        assert!(!Protocol::GpuWt.invalidate_is_noop());
        assert!(!Protocol::GpuWb.invalidate_is_noop());
    }

    /// Every axis question the memory model asks, per protocol, and what a
    /// line writes back in the states that matter: Modified, Exclusive
    /// (clean) and partially dirty.
    #[test]
    fn axis_questions_and_writeback_rule_per_protocol() {
        let entry = |mesi, dirty| {
            let mut e = LineEntry::EMPTY;
            (e.mesi, e.dirty) = (mesi, dirty);
            e
        };
        let some = WordMask(0b0010_0100);
        let modified = entry(MesiState::Modified, WordMask::EMPTY);
        let exclusive = entry(MesiState::Exclusive, WordMask::EMPTY);
        let partial = entry(MesiState::Shared, some);
        // (protocol, hardware-coherent, tracks ownership, Modified writes back)
        let table = [
            (Protocol::Mesi, true, true, WordMask::FULL),
            (Protocol::DeNovo, false, true, WordMask::EMPTY),
            (Protocol::GpuWt, false, false, WordMask::EMPTY),
            (Protocol::GpuWb, false, false, WordMask::EMPTY),
        ];
        assert_eq!(table.map(|row| row.0), Protocol::ALL);
        for (p, hardware, ownership, modified_mask) in table {
            assert_eq!(p.hardware_coherent(), hardware, "{p}");
            assert_eq!(p.invalidate_is_noop(), hardware, "{p}");
            assert_eq!(p.tracks_ownership(), ownership, "{p}");
            assert_eq!(p.amo_in_l1(), ownership, "{p}");
            // The MESI state means something under line granularity only.
            assert_eq!(p.writeback_mask(&modified), modified_mask, "{p}");
            assert_eq!(p.writeback_mask(&exclusive), WordMask::EMPTY, "{p}");
            assert_eq!(p.writeback_mask(&partial), some, "{p}");
        }
    }

    /// Table I is stated in this file only. Outside it — comments and
    /// `#[cfg(test)]` code aside — a variant is named by the four arms of
    /// the store dispatch, the one place the protocols are four different
    /// algorithms, and by the big-core configuration constructor.
    #[test]
    fn only_the_store_dispatch_names_a_variant_outside_this_file() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut named = Vec::new();
        for entry in std::fs::read_dir(src).expect("source directory") {
            let path = entry.expect("directory entry").path();
            let file = path.file_name().expect("file name").to_string_lossy().into_owned();
            if file == "protocol.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            for line in code.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
                if Protocol::ALL.iter().any(|p| line.contains(&format!("Protocol::{p:?}"))) {
                    named.push(format!("{file}: {line}"));
                }
            }
        }
        named.sort();
        assert_eq!(
            named,
            [
                "ops.rs: Protocol::DeNovo => self.store_denovo(core, addr, now),",
                "ops.rs: Protocol::GpuWb => self.store_gpu_wb(core, addr),",
                "ops.rs: Protocol::GpuWt => self.store_gpu_wt(core, addr, now),",
                "ops.rs: Protocol::Mesi => self.store_mesi(core, addr, now),",
                "system.rs: CoreMemConfig { protocol: Protocol::Mesi, l1_bytes: 64 * 1024, l1_ways: 2 }",
            ],
            "ask the protocol where it sits on Table I (an axis predicate) instead of matching it"
        );
    }

    #[test]
    fn amo_placement() {
        assert!(Protocol::Mesi.amo_in_l1());
        assert!(Protocol::DeNovo.amo_in_l1());
        assert!(!Protocol::GpuWt.amo_in_l1());
        assert!(!Protocol::GpuWb.amo_in_l1());
    }

    #[test]
    fn labels_are_paper_abbreviations() {
        assert_eq!(Protocol::DeNovo.label(), "dnv");
        assert_eq!(Protocol::GpuWt.label(), "gwt");
        assert_eq!(Protocol::GpuWb.label(), "gwb");
        assert_eq!(Protocol::Mesi.to_string(), "MESI");
    }
}
