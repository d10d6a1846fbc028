//! The staleness checker's per-word version bookkeeping, indexed by line.
//!
//! Every word has a `latest` version (bumped by every store) and a
//! `committed` version (what the L2/owner can supply). The sixteen versions
//! of one line sit together in one host cache line, lines sit in 4 KB pages
//! of 64, and a page is found by index arithmetic on the line address —
//! a radix directory over page numbers, no hashing. A load hit reads one
//! host word, a store touches one host cache line, and a line fill copies
//! 32 contiguous bytes.
//!
//! Two invariants:
//!
//! * **Pages are allocated by writes only.** Reading or committing a word
//!   that was never stored to answers version 0 without touching memory.
//! * **Memory follows lines touched, not address magnitude.** The
//!   directory grows a level only when a written address needs it, so the
//!   bump-allocated addresses of real runs see one level and a stray
//!   `Addr` near `u64::MAX` costs four directory nodes and one page.

use crate::addr::{Addr, LineAddr, WordMask, WORDS_PER_LINE, WORD_BYTES};

/// Versions of one line's words: exactly one (aligned) host cache line.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct LineVersions {
    latest: [u32; WORDS_PER_LINE],
    committed: [u32; WORDS_PER_LINE],
}

const _: () = assert!(std::mem::size_of::<LineVersions>() == 64);

/// Lines per page: 64 x 64 B = one 4 KB host page.
const PAGE_LINES: usize = 64;
/// Each directory node resolves this many bits of the page number.
const NODE_BITS: u32 = 16;

type Page = [LineVersions; PAGE_LINES];

fn split(word: u64) -> (LineAddr, usize) {
    (LineAddr(word / WORDS_PER_LINE as u64), (word % WORDS_PER_LINE as u64) as usize)
}

fn in_page(line: LineAddr) -> usize {
    (line.0 % PAGE_LINES as u64) as usize
}

/// Line-indexed `latest`/`committed` word versions.
#[derive(Default)]
pub(crate) struct VersionTable {
    /// Radix directory over page numbers, `nodes[0]` the root: a slot holds
    /// 0 (absent) or a child index + 1 — a node on inner levels, a page on
    /// the last. Nodes are zeroed allocations, so an untouched span of the
    /// address space costs no host memory.
    nodes: Vec<Vec<u32>>,
    /// Directory levels; page numbers below `2^(NODE_BITS * height)` fit.
    height: u32,
    /// One allocation per page: a growing run never copies (or leaves
    /// behind) the versions it already holds.
    pages: Vec<Box<Page>>,
}

impl std::fmt::Debug for VersionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VersionTable({} pages, {} levels)", self.pages(), self.height)
    }
}

impl VersionTable {
    /// Number of 4 KB version pages allocated so far.
    pub(crate) fn pages(&self) -> usize {
        self.pages.len()
    }

    /// Whether the directory is tall enough to index `page` at all.
    fn covers(&self, page: u64) -> bool {
        self.height > 0 && page.checked_shr(NODE_BITS * self.height).unwrap_or(0) == 0
    }

    fn node_slot(page: u64, level: u32) -> usize {
        (page >> (NODE_BITS * level)) as usize & ((1 << NODE_BITS) - 1)
    }

    /// Index into `pages` of the page holding `line`, if it exists.
    #[inline]
    fn page_of(&self, line: LineAddr) -> Option<usize> {
        let page = line.0 / PAGE_LINES as u64;
        if !self.covers(page) {
            return None;
        }
        let mut at = 0;
        for level in (0..self.height).rev() {
            at = self.nodes[at][Self::node_slot(page, level)].checked_sub(1)? as usize;
        }
        Some(at)
    }

    /// Allocates the page holding `line`, and any directory levels and
    /// nodes on the way to it; returns its index into `pages`.
    #[cold]
    fn alloc_page(&mut self, line: LineAddr) -> usize {
        let page = line.0 / PAGE_LINES as u64;
        while !self.covers(page) {
            // A new root whose slot 0 spans everything the old root did.
            self.nodes.push(vec![0; 1 << NODE_BITS]);
            let moved = self.nodes.len() - 1;
            self.nodes.swap(0, moved);
            if moved > 0 {
                self.nodes[0][0] = moved as u32 + 1;
            }
            self.height += 1;
        }
        let mut at = 0;
        for level in (0..self.height).rev() {
            let slot = Self::node_slot(page, level);
            if self.nodes[at][slot] == 0 {
                let fresh = if level > 0 {
                    self.nodes.push(vec![0; 1 << NODE_BITS]);
                    self.nodes.len()
                } else {
                    let zero = LineVersions { latest: [0; 8], committed: [0; 8] };
                    self.pages.push(Box::new([zero; PAGE_LINES]));
                    self.pages.len()
                };
                self.nodes[at][slot] = u32::try_from(fresh).expect("version table outgrew u32");
            }
            at = self.nodes[at][slot] as usize - 1;
        }
        at
    }

    #[inline]
    fn get(&self, line: LineAddr) -> Option<&LineVersions> {
        self.page_of(line).map(|p| &self.pages[p][in_page(line)])
    }

    #[inline]
    fn get_mut(&mut self, line: LineAddr) -> Option<&mut LineVersions> {
        self.page_of(line).map(|p| &mut self.pages[p][in_page(line)])
    }

    fn get_or_alloc(&mut self, line: LineAddr) -> &mut LineVersions {
        let p = self.page_of(line).unwrap_or_else(|| self.alloc_page(line));
        &mut self.pages[p][in_page(line)]
    }

    /// Latest version of global word index `word` (0 if never stored to).
    #[inline]
    pub(crate) fn latest(&self, word: u64) -> u32 {
        let (line, w) = split(word);
        self.get(line).map_or(0, |v| v.latest[w])
    }

    /// Version of `word` the L2/owner can supply.
    pub(crate) fn committed(&self, word: u64) -> u32 {
        let (line, w) = split(word);
        self.get(line).map_or(0, |v| v.committed[w])
    }

    /// Records a store to `word`; returns its new latest version.
    ///
    /// # Panics
    ///
    /// Panics (rather than wrapping into a false "fresh") if the word has
    /// been stored to `u32::MAX` times.
    pub(crate) fn bump_latest(&mut self, word: u64) -> u32 {
        let (line, w) = split(word);
        let v = &mut self.get_or_alloc(line).latest[w];
        *v = v.checked_add(1).unwrap_or_else(|| {
            panic!("staleness checker: version of word {} overflowed u32", Addr(word * WORD_BYTES))
        });
        *v
    }

    /// Makes `word`'s latest version visible at the L2. Never allocates: an
    /// unwritten word has nothing to commit.
    pub(crate) fn commit_word(&mut self, word: u64) {
        let (line, w) = split(word);
        if let Some(v) = self.get_mut(line) {
            v.committed[w] = v.latest[w];
        }
    }

    /// [`VersionTable::commit_word`] for each `mask` word of `line`.
    pub(crate) fn commit_line_words(&mut self, line: LineAddr, mask: WordMask) {
        if mask.is_empty() {
            return;
        }
        if let Some(v) = self.get_mut(line) {
            for w in mask.iter() {
                v.committed[w] = v.latest[w];
            }
        }
    }

    /// What the L2 can supply for each word of `line` right now.
    pub(crate) fn fill_versions(&self, line: LineAddr) -> [u32; WORDS_PER_LINE] {
        self.get(line).map_or([0; WORDS_PER_LINE], |v| v.committed)
    }

    /// Forces `word`'s latest version (overflow tests only).
    #[cfg(test)]
    pub(crate) fn set_latest(&mut self, word: u64, version: u32) {
        let (line, w) = split(word);
        self.get_or_alloc(line).latest[w] = version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_mesh::XorShift64;
    use std::collections::HashMap;

    /// The bookkeeping this table replaced, kept as the reference: two
    /// word-keyed hash maps, absent meaning version 0.
    #[derive(Default)]
    struct HashVersions {
        latest: HashMap<u64, u64>,
        committed: HashMap<u64, u64>,
    }

    impl HashVersions {
        fn bump_latest(&mut self, word: u64) -> u64 {
            let v = self.latest.entry(word).or_insert(0);
            *v += 1;
            *v
        }

        fn commit_word(&mut self, word: u64) {
            if let Some(v) = self.latest.get(&word) {
                self.committed.insert(word, *v);
            }
        }

        fn latest(&self, word: u64) -> u64 {
            self.latest.get(&word).copied().unwrap_or(0)
        }

        fn committed(&self, word: u64) -> u64 {
            self.committed.get(&word).copied().unwrap_or(0)
        }
    }

    /// Dense bump-allocator-like lines, lines a page apart, and lines
    /// spread over the whole 58-bit line-address space.
    fn random_line(rng: &mut XorShift64) -> LineAddr {
        match rng.next_below(4) {
            0 | 1 => LineAddr(0x400 + rng.next_below(256)),
            2 => LineAddr(rng.next_below(64) * PAGE_LINES as u64 * 977),
            _ => LineAddr((u64::MAX / 64) >> rng.next_below(50)),
        }
    }

    #[test]
    fn matches_hash_map_reference_on_random_streams() {
        let mut rng = XorShift64::new(0x5645_5253_494f_4e53);
        let (mut table, mut reference) = (VersionTable::default(), HashVersions::default());
        for step in 0..40_000 {
            let line = random_line(&mut rng);
            let w = rng.next_below(8) as usize;
            let word = line.word(w);
            match rng.next_below(8) {
                0..=2 => {
                    let v = table.bump_latest(word);
                    assert_eq!(u64::from(v), reference.bump_latest(word), "step {step}");
                }
                3 | 4 => {
                    table.commit_word(word);
                    reference.commit_word(word);
                }
                5 => {
                    let mask = WordMask(rng.next_below(256) as u8);
                    table.commit_line_words(line, mask);
                    mask.iter().for_each(|i| reference.commit_word(line.word(i)));
                }
                _ => {} // read-only step
            }
            for probe in [line, random_line(&mut rng)] {
                let fill = table.fill_versions(probe);
                for (i, got) in fill.iter().enumerate() {
                    let word = probe.word(i);
                    assert_eq!(
                        u64::from(table.latest(word)),
                        reference.latest(word),
                        "step {step}"
                    );
                    assert_eq!(u64::from(*got), reference.committed(word), "step {step}");
                    assert_eq!(table.committed(word), *got, "step {step}");
                }
            }
        }
        assert!(table.height >= 3, "the sparse addresses grew the directory");
        assert!(table.pages() > 64 && table.pages() < 200, "{} pages", table.pages());
    }

    #[test]
    fn reads_and_commits_never_allocate() {
        let mut table = VersionTable::default();
        let far = LineAddr(u64::MAX / 64);
        assert_eq!(table.latest(far.word(7)), 0);
        assert_eq!(table.fill_versions(LineAddr(12)), [0; 8]);
        table.commit_word(far.word(7));
        table.commit_line_words(LineAddr(12), WordMask::FULL);
        assert_eq!((table.pages(), table.height, table.nodes.len()), (0, 0, 0));
    }

    #[test]
    fn memory_follows_lines_touched_not_address_magnitude() {
        let mut table = VersionTable::default();
        // Two lines 2^40 bytes apart and the last word of the address space.
        let (near, apart) = (Addr(0x1_0000), Addr(0x1_0000 + (1 << 40)));
        let last = Addr(u64::MAX - 7);
        assert_eq!(table.bump_latest(near.word()), 1);
        assert_eq!((table.pages(), table.height), (1, 1));
        assert_eq!(table.bump_latest(apart.word()), 1);
        assert_eq!((table.pages(), table.height), (2, 2));
        assert_eq!(table.bump_latest(last.word()), 1);
        assert_eq!(table.bump_latest(last.word()), 2);
        assert_eq!((table.pages(), table.height), (3, 4));
        assert!(table.nodes.len() <= 8, "{} directory nodes", table.nodes.len());
        // Growing the directory kept every earlier word reachable.
        assert_eq!(table.latest(near.word()), 1);
        assert_eq!(table.latest(apart.word()), 1);
        assert_eq!(table.latest(near.word() + 1), 0, "same page, untouched word");
        table.commit_word(last.word());
        assert_eq!(table.fill_versions(last.line())[7], 2);
    }

    #[test]
    #[should_panic(expected = "version of word 0x10038 overflowed u32")]
    fn version_overflow_panics_instead_of_wrapping() {
        let mut table = VersionTable::default();
        let word = Addr(0x1_0038).word();
        table.set_latest(word, u32::MAX - 1);
        assert_eq!(table.bump_latest(word), u32::MAX);
        table.bump_latest(word);
    }
}
