//! Table I's access path: loads, stores, AMOs, invalidations and flushes.

use bigtiny_coherence::Addr;

use super::CorePort;
use crate::breakdown::TimeCategory;
use crate::event::{MemOp, RacyTag};

impl CorePort {
    /// Loads `words` consecutive words starting at `addr`; `f` produces the
    /// functional value and runs race-free under the global token.
    pub fn load_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.access_words(false, addr, words, None, f)
    }

    /// Like [`CorePort::load_words`], but a declared benign race: exempt
    /// from the runtime staleness counter and race-whitelisted in the DRF
    /// checker's happens-before pass under the audited `tag` (the staleness
    /// pass still counts it per tag). Timing is identical to
    /// [`CorePort::load_words`].
    pub fn load_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.access_words(false, addr, words, Some(tag), f)
    }

    /// Loads one word at `addr` for timing only.
    pub fn load(&mut self, addr: Addr) {
        self.load_words(addr, 1, || ());
    }

    /// Stores `words` consecutive words starting at `addr`; `f` applies the
    /// functional effect under the global token. Stores retire through a
    /// bounded store buffer: the core stalls only when the buffer is full.
    pub fn store_words<R>(&mut self, addr: Addr, words: u64, f: impl FnOnce() -> R) -> R {
        self.access_words(true, addr, words, None, f)
    }

    /// Like [`CorePort::store_words`], but a declared benign write-write
    /// race (concurrent same-value idempotent stores): the DRF checker's
    /// happens-before pass treats it as an atomic-like write under the
    /// audited `tag` — no race against other audited accesses, still a
    /// race against unordered plain accesses. Timing is identical to
    /// [`CorePort::store_words`].
    pub fn store_words_racy<R>(
        &mut self,
        addr: Addr,
        words: u64,
        tag: RacyTag,
        f: impl FnOnce() -> R,
    ) -> R {
        self.access_words(true, addr, words, Some(tag), f)
    }

    /// Stores one word at `addr` for timing only.
    pub fn store(&mut self, addr: Addr) {
        self.store_words(addr, 1, || ());
    }

    /// One sequenced load or `store` per word from `addr`, `f` run inside
    /// the last word's section. A load stalls for its latency; a store
    /// retires into the store buffer.
    #[inline]
    fn access_words<R>(
        &mut self,
        store: bool,
        addr: Addr,
        words: u64,
        racy: Option<RacyTag>,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(words >= 1, "{} of zero words", if store { "store" } else { "load" });
        let op =
            |addr| if store { MemOp::Store { addr, racy } } else { MemOp::Load { addr, racy } };
        let (mut f, mut out) = (Some(f), None);
        for w in 0..words {
            let a = addr.offset(w * 8);
            let (f, out) = (f.take_if(|_| w + 1 == words), &mut out);
            let lat = self.seq(
                None,
                move |st, now, core| {
                    let l = match (store, racy) {
                        (true, _) => st.mem.store(core, a, now),
                        (false, None) => st.mem.load(core, a, now),
                        (false, Some(_)) => st.mem.load_racy(core, a, now),
                    };
                    *out = f.map(|f| f());
                    l
                },
                |_| Some(op(a)),
            );
            let lat = self.mem_latency(lat);
            if store {
                let charged = self.buffer_store(lat);
                self.charge(TimeCategory::Store, charged);
            } else {
                self.charge(TimeCategory::Load, lat);
            }
        }
        self.instructions += words;
        out.expect("functional closure ran")
    }

    /// Atomic read-modify-write of the word at `addr`; `f` applies the
    /// functional effect atomically under the global token. Atomics have
    /// release semantics: the store buffer drains first.
    pub fn amo_word<R>(&mut self, addr: Addr, f: impl FnOnce() -> R) -> R {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Atomic, drain);
        let mut out = None;
        let out_ref = &mut out;
        let lat = self.seq(
            None,
            move |st, now, core| {
                let l = st.mem.amo(core, addr, now);
                *out_ref = Some(f());
                l
            },
            |_| Some(MemOp::Amo { addr }),
        );
        let lat = self.mem_latency(lat);
        self.charge(TimeCategory::Atomic, lat);
        self.instructions += 1;
        out.expect("functional closure ran")
    }

    /// Bulk self-invalidation of clean data in this core's L1
    /// (`cache_invalidate`; a no-op under MESI). Returns lines invalidated.
    pub fn invalidate_cache(&mut self) -> u64 {
        let (lat, lines) = self.seq(
            None,
            |st, now, core| st.mem.invalidate_all(core, now),
            |_| Some(MemOp::InvalidateAll),
        );
        self.charge(TimeCategory::Invalidate, lat);
        self.instructions += 1;
        lines
    }

    /// Bulk write-back of dirty data in this core's L1 (`cache_flush`; a
    /// no-op under MESI/DeNovo, a store-buffer drain under GPU-WT). Returns
    /// lines flushed.
    pub fn flush_cache(&mut self) -> u64 {
        let drain = self.drain_store_buffer();
        self.charge(TimeCategory::Flush, drain);
        let (lat, lines) =
            self.seq(None, |st, now, core| st.mem.flush_all(core, now), |_| Some(MemOp::FlushAll));
        self.charge(TimeCategory::Flush, lat);
        self.instructions += 1;
        lines
    }
}
