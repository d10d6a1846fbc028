//! Shared banked L2 cache with an embedded directory, plus the DRAM model.
//!
//! The L2 is the integration point for heterogeneous coherence, in the style
//! of Spandex: every request type of the four L1 protocols (GetS, GetM/GetO,
//! write-through words, bulk write-backs, at-L2 atomics) is served here. The
//! directory is embedded in the L2 with a precise sharer list for MESI L1s
//! (Table II) and an owner pointer that can name either a MESI core holding
//! the line in E/M or a DeNovo core that registered ownership.
//!
//! # Host layout
//!
//! Parallel plain-integer arrays indexed by *slot* (`(bank * sets + set) *
//! ways + way`). The tags of a set are adjacent `u64`s (`line + 1`, 0 =
//! empty way), so an 8-way probe reads one host cache line; LRU stamp,
//! owner, dirty bit and sharer words each have their own array. Everything
//! is an all-zero allocation — megabytes per machine, most of it sets a
//! kernel never reaches, which the host then never pays for. A miss
//! resolves its slot once ([`L2Cache::find`] or [`L2Cache::insert`]) and
//! the recall, invalidation and directory-update steps all work on that
//! slot; every operation that resolves a slot marks it most-recently-used
//! exactly once ([`L2Cache::touch`]).

use crate::addr::{div_rem, LineAddr};

/// A set of core ids, used for the precise MESI sharer list.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CoreSet {
    words: [u64; 4],
}

impl CoreSet {
    /// The empty set.
    pub const EMPTY: CoreSet = CoreSet { words: [0; 4] };

    /// Maximum representable core id + 1.
    pub const CAPACITY: usize = 256;

    /// Inserts `core`.
    pub fn insert(&mut self, core: usize) {
        assert!(core < Self::CAPACITY);
        self.words[core / 64] |= 1 << (core % 64);
    }

    /// Removes `core`.
    pub fn remove(&mut self, core: usize) {
        assert!(core < Self::CAPACITY);
        self.words[core / 64] &= !(1 << (core % 64));
    }

    /// Whether `core` is present.
    pub fn contains(&self, core: usize) -> bool {
        core < Self::CAPACITY && self.words[core / 64] & (1 << (core % 64)) != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Iterates over members in ascending order by bit-scanning the
    /// backing words (cost scales with membership, not capacity — sharer
    /// sets are consulted on every store under the write-through
    /// protocols, so an empty set must cost four word loads, not 256
    /// `contains` probes).
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(i * 64 + bit)
            })
        })
    }
}

/// Snapshot of one L2-resident line's embedded directory state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct L2Line {
    /// Dirty with respect to DRAM.
    pub dirty: bool,
    /// MESI cores holding the line in S (precise sharer list).
    pub sharers: CoreSet,
    /// Core holding the line in MESI E/M or with DeNovo ownership.
    pub owner: Option<usize>,
}

impl L2Line {
    /// Whether any private cache holds coherence state for this line.
    pub fn has_directory_state(&self) -> bool {
        self.owner.is_some() || !self.sharers.is_empty()
    }
}

/// The banked, shared, set-associative L2 with embedded directory and
/// per-bank service queues.
#[derive(Clone, Debug)]
pub struct L2Cache {
    banks: usize,
    sets_per_bank: usize,
    ways: usize,
    /// `line + 1` per slot, 0 for an empty way. The arrays below are
    /// meaningful only where the tag is non-zero.
    tags: Vec<u64>,
    lru: Vec<u64>,
    /// Owner core + 1, or 0 for none (every core id a [`CoreSet`] can hold
    /// fits).
    owner: Vec<u16>,
    dirty: Vec<bool>,
    /// The words of each line's sharer [`CoreSet`].
    sharers: Vec<[u64; 4]>,
    bank_busy_until: Vec<u64>,
    lru_clock: u64,
    access_latency: u64,
    occupancy: u64,
}

// The sentinel-coded owner must hold every core id the sharer list can.
const _: () = assert!(CoreSet::CAPACITY < u16::MAX as usize);

impl L2Cache {
    /// Creates an L2 with `banks` banks of `bank_bytes` each, `ways`-way
    /// associative, 64-byte lines. Defaults to the paper's 6-cycle access
    /// latency class and 2-cycle bank occupancy.
    pub fn new(banks: usize, bank_bytes: usize, ways: usize) -> Self {
        assert!(banks > 0 && ways > 0);
        let lines_per_bank = bank_bytes / crate::addr::LINE_BYTES as usize;
        assert!(lines_per_bank > 0 && lines_per_bank.is_multiple_of(ways), "invalid L2 geometry");
        let slots = lines_per_bank * banks;
        L2Cache {
            banks,
            sets_per_bank: lines_per_bank / ways,
            ways,
            tags: vec![0; slots],
            lru: vec![0; slots],
            owner: vec![0; slots],
            dirty: vec![false; slots],
            sharers: vec![[0; 4]; slots],
            bank_busy_until: vec![0; banks],
            lru_clock: 0,
            access_latency: 6,
            occupancy: 2,
        }
    }

    /// Home bank of `line`.
    pub fn home_bank(&self, line: LineAddr) -> usize {
        line.home_bank(self.banks)
    }

    /// Charges one bank access arriving at `arrival`: returns the cycle at
    /// which the bank has produced its result, accounting for queueing.
    pub fn access(&mut self, bank: usize, arrival: u64) -> u64 {
        let start = arrival.max(self.bank_busy_until[bank]);
        self.bank_busy_until[bank] = start + self.occupancy;
        start + self.access_latency
    }

    fn set_base(&self, line: LineAddr) -> usize {
        let (above_bank, bank) = div_rem(line.0, self.banks);
        let set = div_rem(above_bank, self.sets_per_bank).1;
        (bank * self.sets_per_bank + set) * self.ways
    }

    /// Probes `line`'s set; returns its slot if resident. No LRU update.
    pub fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        self.tags[base..base + self.ways].iter().position(|&t| t == line.0 + 1).map(|i| base + i)
    }

    /// Marks the line in `slot` most-recently-used.
    pub fn touch(&mut self, slot: usize) {
        debug_assert!(self.tags[slot] != 0, "touch of an empty way");
        self.lru_clock += 1;
        self.lru[slot] = self.lru_clock;
    }

    /// Core holding the line in `slot` in MESI E/M or with DeNovo ownership.
    pub fn owner(&self, slot: usize) -> Option<usize> {
        self.owner[slot].checked_sub(1).map(usize::from)
    }

    /// Names `owner` as the owner of the line in `slot`, or clears the
    /// owner pointer.
    pub fn set_owner(&mut self, slot: usize, owner: Option<usize>) {
        self.owner[slot] = owner.map_or(0, |core| {
            assert!(core < CoreSet::CAPACITY, "core id {core} out of directory range");
            core as u16 + 1
        });
    }

    /// MESI cores holding the line in `slot` in S (precise sharer list).
    pub fn sharers(&self, slot: usize) -> CoreSet {
        CoreSet { words: self.sharers[slot] }
    }

    /// Edits the sharer list of the line in `slot`.
    pub fn update_sharers(&mut self, slot: usize, edit: impl FnOnce(&mut CoreSet)) {
        let mut set = self.sharers(slot);
        edit(&mut set);
        self.sharers[slot] = set.words;
    }

    /// Marks the line in `slot` dirty with respect to DRAM.
    pub fn set_dirty(&mut self, slot: usize) {
        self.dirty[slot] = true;
    }

    /// The directory state of the line in `slot`.
    pub fn line(&self, slot: usize) -> L2Line {
        debug_assert!(self.tags[slot] != 0, "access to an empty way");
        L2Line { dirty: self.dirty[slot], sharers: self.sharers(slot), owner: self.owner(slot) }
    }

    /// Allocates `line` as most-recently-used, clean and without directory
    /// state: into the first empty way of its set, else over the LRU line
    /// without directory state, else over the LRU line. Returns the fresh
    /// line's slot and the displaced line, whose state (dirty data,
    /// sharers, owner) the caller must handle.
    ///
    /// # Panics
    ///
    /// Panics if the line is already resident.
    pub fn insert(&mut self, line: LineAddr) -> (usize, Option<(LineAddr, L2Line)>) {
        let base = self.set_base(line);
        // One pass; a way's rank orders empty < undirected by age < directed
        // by age (ages are unique and far below 2^63).
        let (mut slot, mut best) = (base, u64::MAX);
        for way in base..base + self.ways {
            let rank = match self.tags[way] {
                0 => 0,
                t => {
                    assert!(t != line.0 + 1, "L2 line {line} already resident");
                    self.lru[way] | u64::from(self.line(way).has_directory_state()) << 63
                }
            };
            if rank < best {
                (slot, best) = (way, rank);
            }
        }
        let victim = self.tags[slot].checked_sub(1).map(|v| (LineAddr(v), self.line(slot)));
        self.tags[slot] = line.0 + 1;
        (self.owner[slot], self.dirty[slot], self.sharers[slot]) = (0, false, [0; 4]);
        self.touch(slot);
        (slot, victim)
    }
}

/// The DRAM controllers: fixed access latency plus a bandwidth model in
/// which each controller transfers a bounded number of bytes per cycle
/// (Table II: 16 GB/s aggregate across the chip's controllers).
#[derive(Clone, Debug)]
pub struct Dram {
    ctrl_busy_until: Vec<u64>,
    access_latency: u64,
    cycles_per_line: u64,
}

impl Dram {
    /// Creates `controllers` DRAM controllers. `cycles_per_line` is the
    /// occupancy of a 64-byte transfer at one controller (the paper's
    /// 16 GB/s over 8 controllers at 1 GHz gives 2 B/cycle/controller, i.e.
    /// 32 cycles per line).
    pub fn new(controllers: usize, access_latency: u64, cycles_per_line: u64) -> Self {
        assert!(controllers > 0);
        Dram { ctrl_busy_until: vec![0; controllers], access_latency, cycles_per_line }
    }

    /// Charges a line transfer at controller `ctrl` arriving at `arrival`;
    /// returns the completion cycle.
    pub fn access(&mut self, ctrl: usize, arrival: u64) -> u64 {
        let start = arrival.max(self.ctrl_busy_until[ctrl]);
        self.ctrl_busy_until[ctrl] = start + self.cycles_per_line;
        start + self.access_latency + self.cycles_per_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_set_basics() {
        let mut s = CoreSet::EMPTY;
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(255);
        assert!(s.contains(64) && !s.contains(65));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 255]);
        s.remove(63);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 64, 255]);
        assert!(!s.is_empty());
    }

    #[test]
    fn l2_lookup_and_banking() {
        let mut l2 = L2Cache::new(8, 512 * 1024, 8);
        assert_eq!(l2.home_bank(LineAddr(13)), 5);
        let (slot, victim) = l2.insert(LineAddr(13));
        assert!(victim.is_none());
        assert_eq!(l2.line(slot), L2Line { dirty: false, sharers: CoreSet::EMPTY, owner: None });
        l2.set_dirty(slot);
        assert_eq!(l2.find(LineAddr(13)), Some(slot));
        assert!(l2.line(slot).dirty);
        assert!(l2.find(LineAddr(21)).is_none(), "same bank and set, different line");
    }

    #[test]
    fn l2_bank_queueing_serializes() {
        let mut l2 = L2Cache::new(8, 512 * 1024, 8);
        let t1 = l2.access(0, 100);
        let t2 = l2.access(0, 100);
        assert_eq!(t1, 106);
        assert_eq!(t2, 108, "second access queues behind 2-cycle occupancy");
        let t3 = l2.access(1, 100);
        assert_eq!(t3, 106, "different bank does not queue");
    }

    #[test]
    fn l2_eviction_prefers_lines_without_directory_state() {
        // Tiny L2: 1 bank, 2 ways, 2 sets.
        let mut l2 = L2Cache::new(1, 4 * 64, 2);
        // Lines 0 and 2 map to set 0.
        let (a, _) = l2.insert(LineAddr(0));
        l2.update_sharers(a, |s| s.insert(3)); // a has directory state
        l2.insert(LineAddr(2));
        // Inserting line 4 (set 0) must evict line 2 despite line 0 being LRU.
        let (_, victim) = l2.insert(LineAddr(4));
        assert_eq!(victim.expect("evicts").0, LineAddr(2));
        assert!(l2.find(LineAddr(0)).is_some());
    }

    #[test]
    fn l2_evicts_directory_lines_when_forced() {
        let mut l2 = L2Cache::new(1, 4 * 64, 2);
        let (a, _) = l2.insert(LineAddr(0));
        l2.set_owner(a, Some(1));
        l2.set_dirty(a);
        let (b, _) = l2.insert(LineAddr(2));
        l2.update_sharers(b, |s| s.insert(2));
        l2.touch(a); // b is now the LRU of the two directed lines
        let (slot, victim) = l2.insert(LineAddr(4));
        let (vline, v) = victim.expect("must still evict");
        assert_eq!(vline, LineAddr(2));
        assert!(v.has_directory_state() && v.sharers.contains(2) && !v.dirty);
        assert_eq!(slot, b);
        assert!(!l2.line(slot).has_directory_state(), "the reused way starts clean");
        assert_eq!(l2.line(a), L2Line { dirty: true, sharers: CoreSet::EMPTY, owner: Some(1) });
    }

    #[test]
    fn owner_is_sentinel_coded() {
        let mut l2 = L2Cache::new(1, 64, 1);
        let (slot, _) = l2.insert(LineAddr(0));
        assert_eq!(l2.owner(slot), None);
        for core in [0, 1, 255] {
            l2.set_owner(slot, Some(core));
            assert_eq!(l2.owner(slot), Some(core));
            assert!(l2.line(slot).has_directory_state());
        }
        l2.set_owner(slot, None);
        assert!(!l2.line(slot).has_directory_state());
    }

    /// Three banks (a 3-column mesh), direct-mapped, five sets per bank:
    /// nothing is a power of two and every line still finds its own slot.
    #[test]
    fn one_way_and_odd_bank_and_set_counts_index_correctly() {
        let mut l2 = L2Cache::new(3, 5 * 64, 1);
        for l in 0..15 {
            assert_eq!(l2.home_bank(LineAddr(l)), (l % 3) as usize);
            assert!(l2.insert(LineAddr(l)).1.is_none(), "15 slots hold 15 consecutive lines");
        }
        let slots: std::collections::HashSet<_> =
            (0..15).map(|l| l2.find(LineAddr(l)).expect("resident")).collect();
        assert_eq!(slots.len(), 15, "no two lines share a slot");
        // Line 15 + 7 = bank 1, set (22 / 3) % 5 = 2: conflicts with line 7.
        let (_, victim) = l2.insert(LineAddr(22));
        assert_eq!(victim.expect("conflict").0, LineAddr(7));
        assert!(l2.find(LineAddr(0)).is_some(), "line 0 is distinct from an empty way");
    }

    #[test]
    fn dram_bandwidth_queues_transfers() {
        let mut d = Dram::new(2, 60, 32);
        let t1 = d.access(0, 0);
        let t2 = d.access(0, 0);
        assert_eq!(t1, 92);
        assert_eq!(t2, 60 + 64, "second transfer waits for the first's occupancy");
        assert_eq!(d.access(1, 0), 92, "other controller independent");
    }
}
