//! The four coherence protocols of the paper and their Table-I taxonomy.

use std::fmt;

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

    /// Whether `cache_invalidate` (self-invalidation of clean data) is a
    /// semantic no-op for this protocol. Only MESI, whose writer-initiated
    /// invalidations keep every copy fresh, can skip it (Section III-C).
    pub fn invalidate_is_noop(self) -> bool {
        self.traits().stale_invalidation == StaleInvalidation::Writer
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
        self.traits().dirty_propagation == DirtyPropagation::OwnerWriteBack
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
