//! Private L1 data-cache tag/state model.
//!
//! The L1 stores no functional data (the simulator keeps functional values
//! in host memory, serialized by the engine's global event order); it tracks
//! exactly the state the protocols need: MESI line state, per-word valid and
//! dirty masks, DeNovo ownership, LRU, and per-word fill versions for the
//! staleness checker.
//!
//! # Host layout
//!
//! Two parallel arrays indexed by *slot* (`set * ways + way`): the tags of
//! a set are adjacent `u64`s (a 2-way probe reads 16 bytes) and a way's
//! state is one 48-byte plain-integer [`LineEntry`]. Tag 0 is "empty", so
//! the all-zero array is the empty cache. A probe ([`L1Cache::find`])
//! yields the slot, and callers thread that slot through the rest of the
//! operation ([`L1Cache::touch`], [`L1Cache::entry_mut`],
//! [`L1Cache::remove_slot`]) instead of probing again.

use crate::addr::{div_rem, LineAddr, WordMask, WORDS_PER_LINE};

/// MESI stable states for lines in hardware-coherent caches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MesiState {
    /// Shared: clean, possibly other copies exist.
    Shared,
    /// Exclusive: clean, only copy.
    Exclusive,
    /// Modified: dirty, only copy.
    Modified,
}

/// State of one resident cache line (its address is the slot's tag).
#[derive(Clone, Copy, Debug)]
pub struct LineEntry {
    /// Per-word version numbers observed at fill/write time (staleness check).
    pub fill_version: [u32; WORDS_PER_LINE],
    lru: u64,
    /// MESI state — meaningful only when the owning cache runs MESI.
    pub mesi: MesiState,
    /// Per-word valid bits (always [`WordMask::FULL`] under MESI).
    pub valid: WordMask,
    /// Per-word dirty bits.
    pub dirty: WordMask,
    /// DeNovo ownership: the line's writes are registered at the directory.
    pub owned: bool,
}

// A later field must not silently undo the layout.
const _: () = assert!(std::mem::size_of::<LineEntry>() == 48);

impl LineEntry {
    /// A just-allocated line: nothing valid yet (all-zero bytes).
    pub(crate) const EMPTY: LineEntry = LineEntry {
        fill_version: [0; WORDS_PER_LINE],
        lru: 0,
        mesi: MesiState::Shared,
        valid: WordMask::EMPTY,
        dirty: WordMask::EMPTY,
        owned: false,
    };
}

/// A set-associative L1 cache tag array.
#[derive(Clone, Debug)]
pub struct L1Cache {
    sets: usize,
    ways: usize,
    /// `line + 1` per slot, 0 for an empty way.
    tags: Vec<u64>,
    /// Per-slot state; meaningful only where the tag is non-zero.
    entries: Vec<LineEntry>,
    lru_clock: u64,
}

impl L1Cache {
    /// Creates a cache of `size_bytes` capacity with `ways` ways and
    /// 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or is zero-sized.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "cache must have at least one way");
        let lines_total = size_bytes / crate::addr::LINE_BYTES as usize;
        assert!(
            lines_total > 0 && lines_total.is_multiple_of(ways),
            "invalid cache geometry: {size_bytes} B / {ways} ways"
        );
        L1Cache {
            sets: lines_total / ways,
            ways,
            tags: vec![0; lines_total],
            entries: vec![LineEntry::EMPTY; lines_total],
            lru_clock: 0,
        }
    }

    /// Number of slots (`sets * ways`).
    pub fn slots(&self) -> usize {
        self.tags.len()
    }

    fn set_base(&self, line: LineAddr) -> usize {
        div_rem(line.0, self.sets).1 * self.ways
    }

    /// Probes `line`'s set; returns its slot if resident. No LRU update.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        self.tags[base..base + self.ways].iter().position(|&t| t == line.0 + 1).map(|i| base + i)
    }

    /// The resident line in `slot`, if any.
    pub fn at(&self, slot: usize) -> Option<(LineAddr, &LineEntry)> {
        self.tags[slot].checked_sub(1).map(|line| (LineAddr(line), &self.entries[slot]))
    }

    /// Marks the line in `slot` most-recently-used and returns it.
    pub fn touch(&mut self, slot: usize) -> &mut LineEntry {
        debug_assert!(self.tags[slot] != 0, "touch of an empty way");
        self.lru_clock += 1;
        let entry = &mut self.entries[slot];
        entry.lru = self.lru_clock;
        entry
    }

    /// The line in `slot`, without updating LRU.
    pub fn entry_mut(&mut self, slot: usize) -> &mut LineEntry {
        debug_assert!(self.tags[slot] != 0, "access to an empty way");
        &mut self.entries[slot]
    }

    /// Looks up `line` mutably and marks it most-recently-used.
    pub fn lookup(&mut self, line: LineAddr) -> Option<&mut LineEntry> {
        self.find(line).map(|slot| self.touch(slot))
    }

    /// Inserts `line` (which must not be resident) as most-recently-used,
    /// into the first empty way of its set or else over the LRU way.
    /// Returns the fresh entry's slot and the displaced line, if any.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident.
    pub fn insert(&mut self, line: LineAddr) -> (usize, Option<(LineAddr, LineEntry)>) {
        let base = self.set_base(line);
        // One pass: residency check, first empty way, true LRU otherwise.
        let (mut slot, mut oldest) = (base, u64::MAX);
        for way in base..base + self.ways {
            let age = match self.tags[way] {
                0 => 0,
                t => {
                    assert!(t != line.0 + 1, "line {line} already resident");
                    self.entries[way].lru
                }
            };
            if age < oldest {
                (slot, oldest) = (way, age);
            }
        }
        let victim = self.remove_slot(slot);
        self.tags[slot] = line.0 + 1;
        self.entries[slot] = LineEntry::EMPTY;
        self.touch(slot);
        (slot, victim)
    }

    /// Empties `slot`, returning the line that was resident there.
    pub fn remove_slot(&mut self, slot: usize) -> Option<(LineAddr, LineEntry)> {
        let line = std::mem::take(&mut self.tags[slot]).checked_sub(1)?;
        Some((LineAddr(line), self.entries[slot]))
    }

    /// Removes `line` if resident, returning its entry.
    pub fn remove(&mut self, line: LineAddr) -> Option<LineEntry> {
        let slot = self.find(line)?;
        self.remove_slot(slot).map(|(_, entry)| entry)
    }

    /// Iterates over resident lines in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &LineEntry)> {
        (0..self.tags.len()).filter_map(|slot| self.at(slot))
    }

    /// Applies `f` to every resident line, removing lines for which `f`
    /// returns `true`. Returns the number of removed lines.
    pub fn retain_lines(&mut self, mut drop_if: impl FnMut(&mut LineEntry) -> bool) -> u64 {
        let mut removed = 0;
        for (tag, entry) in self.tags.iter_mut().zip(&mut self.entries) {
            if *tag != 0 && drop_if(entry) {
                *tag = 0;
                removed += 1;
            }
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> L1Cache {
        // 4 KB, 2-way: the paper's tiny-core L1D. 32 sets.
        L1Cache::new(4096, 2)
    }

    #[test]
    fn geometry() {
        let c = cache();
        assert_eq!((c.sets, c.ways), (32, 2));
        assert_eq!(c.slots(), 64);
    }

    #[test]
    fn insert_then_lookup() {
        let mut c = cache();
        let l = LineAddr(100);
        let (slot, victim) = c.insert(l);
        assert!(victim.is_none());
        c.entry_mut(slot).valid = WordMask::FULL;
        assert_eq!(c.find(l), Some(slot));
        assert_eq!(c.lookup(l).expect("resident").valid, WordMask::FULL);
        assert!(c.find(LineAddr(101)).is_none());
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = cache();
        // Three lines mapping to set 0 (multiples of 32) in a 2-way cache.
        let (a, b, d) = (LineAddr(0), LineAddr(32), LineAddr(64));
        c.insert(a);
        c.insert(b);
        c.lookup(a); // a is now MRU
        let (_, victim) = c.insert(d);
        assert_eq!(victim.expect("must evict").0, b, "LRU line evicted");
        assert!(c.find(a).is_some());
        assert!(c.find(b).is_none());
    }

    #[test]
    fn remove_returns_entry() {
        let mut c = cache();
        let l = LineAddr(5);
        let (slot, _) = c.insert(l);
        c.entry_mut(slot).dirty = WordMask::single(3);
        let e = c.remove(l).expect("resident");
        assert_eq!(e.dirty, WordMask::single(3));
        assert!(c.remove(l).is_none());
        assert!(c.at(slot).is_none());
    }

    #[test]
    fn retain_lines_drops_matching() {
        let mut c = cache();
        let (slot, _) = c.insert(LineAddr(1));
        c.entry_mut(slot).dirty = WordMask::single(0);
        c.insert(LineAddr(2));
        c.insert(LineAddr(3));
        // Drop clean lines: the DeNovo/GPU self-invalidation pattern.
        let dropped = c.retain_lines(|e| e.dirty.is_empty());
        assert_eq!(dropped, 2);
        assert!(c.find(LineAddr(1)).is_some());
        assert_eq!(c.iter().map(|(line, _)| line).collect::<Vec<_>>(), [LineAddr(1)]);
    }

    #[test]
    #[should_panic(expected = "already resident")]
    fn double_insert_panics() {
        let mut c = cache();
        c.insert(LineAddr(9));
        c.insert(LineAddr(9));
    }

    /// Line 0 is a legal address: the `line + 1` tag keeps it distinct from
    /// an empty way, and a reused way starts from a clean entry.
    #[test]
    fn line_zero_and_way_reuse() {
        let mut c = L1Cache::new(64, 1);
        assert!(c.find(LineAddr(0)).is_none(), "empty cache holds nothing, not line 0");
        let (slot, _) = c.insert(LineAddr(0));
        *c.entry_mut(slot) = LineEntry {
            fill_version: [7; WORDS_PER_LINE],
            mesi: MesiState::Modified,
            valid: WordMask::FULL,
            dirty: WordMask::FULL,
            owned: true,
            ..LineEntry::EMPTY
        };
        let (slot2, victim) = c.insert(LineAddr(1));
        assert_eq!(slot2, slot);
        assert_eq!(victim.expect("direct-mapped conflict").0, LineAddr(0));
        let e = c.lookup(LineAddr(1)).expect("resident");
        assert_eq!(
            (e.fill_version, e.valid, e.dirty, e.owned),
            ([0; 8], WordMask::EMPTY, WordMask::EMPTY, false)
        );
        assert_eq!(e.mesi, MesiState::Shared);
    }

    /// Direct-mapped and non-power-of-two set counts index by plain modulo.
    #[test]
    fn one_way_and_odd_set_counts_index_correctly() {
        let mut c = L1Cache::new(7 * 64, 1);
        assert_eq!((c.sets, c.ways), (7, 1));
        for l in 0..7 {
            assert!(c.insert(LineAddr(l)).1.is_none(), "7 sets hold 7 consecutive lines");
        }
        let (slot, victim) = c.insert(LineAddr(7 * 1000 + 3));
        assert_eq!((slot, victim.expect("conflict").0), (3, LineAddr(3)));

        let mut c = L1Cache::new(15 * 64, 3);
        assert_eq!((c.sets, c.ways), (5, 3));
        for k in 0..3 {
            assert!(c.insert(LineAddr(2 + 5 * k)).1.is_none(), "three ways of set 2");
        }
        c.lookup(LineAddr(2));
        let (_, victim) = c.insert(LineAddr(2 + 5 * 3));
        assert_eq!(victim.expect("set full").0, LineAddr(7), "LRU of the set, not of the cache");
        assert_eq!(c.iter().count(), 3);
    }
}
