//! Simulated physical addresses and line/word arithmetic.
//!
//! All caches in the modelled system use 64-byte lines (Table II of the
//! paper) and the software-centric protocols manage validity and dirtiness
//! at 8-byte word granularity (Table I).

use std::fmt;

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// Bytes per word (the granularity of DeNovo/GPU-WT/GPU-WB writes).
pub const WORD_BYTES: u64 = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;

/// `(n / d, n % d)` for a runtime divisor, by shift and mask when `d` is a
/// power of two. Every set and bank count of the paper's geometries is one,
/// and a hardware divide is most of what a cache probe would otherwise
/// cost the host; any other geometry takes the plain division.
pub(crate) fn div_rem(n: u64, d: usize) -> (u64, usize) {
    if d.is_power_of_two() {
        (n >> d.trailing_zeros(), (n & (d as u64 - 1)) as usize)
    } else {
        (n / d as u64, (n % d as u64) as usize)
    }
}

/// A simulated physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 / LINE_BYTES)
    }

    /// Index of this address's word within its line (`0..8`).
    pub fn word_in_line(self) -> usize {
        ((self.0 % LINE_BYTES) / WORD_BYTES) as usize
    }

    /// The word-aligned global word index (used by the staleness checker).
    pub fn word(self) -> u64 {
        self.0 / WORD_BYTES
    }

    /// Byte offset `n` past this address.
    pub fn offset(self, n: u64) -> Addr {
        Addr(self.0 + n)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Addr {
        Addr(v)
    }
}

/// A cache-line address (byte address divided by [`LINE_BYTES`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Byte address of the first byte of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }

    /// Home L2 bank of this line, with line-interleaved banking.
    pub fn home_bank(self, num_banks: usize) -> usize {
        div_rem(self.0, num_banks).1
    }

    /// The global word index of word `i` of this line.
    pub fn word(self, i: usize) -> u64 {
        debug_assert!(i < WORDS_PER_LINE);
        self.0 * WORDS_PER_LINE as u64 + i as u64
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// A bit mask over the eight words of a line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct WordMask(pub u8);

impl WordMask {
    /// No words.
    pub const EMPTY: WordMask = WordMask(0);
    /// All eight words.
    pub const FULL: WordMask = WordMask(0xff);

    /// Mask with only word `i` set.
    pub fn single(i: usize) -> WordMask {
        debug_assert!(i < WORDS_PER_LINE);
        WordMask(1 << i)
    }

    /// Whether word `i` is set.
    pub fn contains(self, i: usize) -> bool {
        self.0 & (1 << i) != 0
    }

    /// Set word `i`.
    pub fn insert(&mut self, i: usize) {
        self.0 |= 1 << i;
    }

    /// Clear word `i`.
    pub fn remove(&mut self, i: usize) {
        self.0 &= !(1 << i);
    }

    /// Number of words set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether no words are set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Indices of set words.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        (0..WORDS_PER_LINE).filter(move |i| self.contains(*i))
    }
}

impl std::ops::BitOr for WordMask {
    type Output = WordMask;
    fn bitor(self, rhs: WordMask) -> WordMask {
        WordMask(self.0 | rhs.0)
    }
}

impl std::ops::BitAnd for WordMask {
    type Output = WordMask;
    fn bitand(self, rhs: WordMask) -> WordMask {
        WordMask(self.0 & rhs.0)
    }
}

impl std::ops::Not for WordMask {
    type Output = WordMask;
    fn not(self) -> WordMask {
        WordMask(!self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_word_extraction() {
        let a = Addr(0x1000 + 24);
        assert_eq!(a.line(), LineAddr(0x1000 / 64));
        assert_eq!(a.word_in_line(), 3);
        assert_eq!(a.word(), (0x1000 + 24) / 8);
    }

    #[test]
    fn div_rem_agrees_with_division_for_every_divisor_shape() {
        for d in [1usize, 2, 3, 5, 7, 8, 11, 32, 512, 1000, 1024, 1 << 20] {
            for n in [0u64, 1, 7, 8, 63, 64, 1023, 1 << 40, u64::MAX / 64, u64::MAX] {
                assert_eq!(div_rem(n, d), (n / d as u64, (n % d as u64) as usize), "{n} / {d}");
            }
        }
    }

    #[test]
    fn line_base_round_trips() {
        let l = Addr(0x12345).line();
        assert_eq!(l.base().line(), l);
        assert_eq!(l.base().word_in_line(), 0);
    }

    #[test]
    fn home_bank_interleaves_lines() {
        assert_eq!(LineAddr(0).home_bank(8), 0);
        assert_eq!(LineAddr(7).home_bank(8), 7);
        assert_eq!(LineAddr(8).home_bank(8), 0);
        assert_eq!(LineAddr(13).home_bank(8), 5);
    }

    #[test]
    fn word_mask_ops() {
        let mut m = WordMask::EMPTY;
        assert!(m.is_empty());
        m.insert(0);
        m.insert(7);
        assert!(m.contains(0) && m.contains(7) && !m.contains(3));
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 7]);
        m.remove(0);
        assert_eq!(m, WordMask::single(7));
        assert_eq!(!WordMask::EMPTY, WordMask::FULL);
        assert_eq!(WordMask::single(1) | WordMask::single(2), WordMask(0b110));
        assert_eq!(WordMask::FULL & WordMask::single(4), WordMask::single(4));
    }

    #[test]
    fn adjacent_words_share_a_line() {
        let base = Addr(0x4000);
        for i in 0..8 {
            assert_eq!(base.offset(i * 8).line(), base.line());
            assert_eq!(base.offset(i * 8).word_in_line(), i as usize);
        }
        assert_ne!(base.offset(64).line(), base.line());
    }
}
