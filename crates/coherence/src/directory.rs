//! The L2 side of the memory system: what the shared cache and its embedded
//! directory do for a request, whichever L1 protocol sent it.
//!
//! This is the Spandex-style integration point of the paper (Section V-A):
//! the L2 serves MESI GetS/GetM, DeNovo ownership requests, GPU write-through
//! words, bulk write-backs, and at-L2 atomics, keeping hardware-coherent L1s
//! coherent with writer-initiated invalidations while software-centric L1s
//! self-invalidate. Nothing here names a protocol: it asks the requester's
//! or the holder's [`Protocol`](crate::Protocol) where it sits on Table I.
//!
//! # One probe per access
//!
//! A miss resolves its L2 set once; the slot found is threaded through the
//! recall, invalidation, directory-update and install steps. Slots stay
//! valid for the whole operation because nothing an operation does on the
//! way can displace the requested line: L2 victim recalls and L1 evictions
//! only ever remove *other* lines. Each path marks a line most-recently-used
//! in the same place in the global order as one probe-per-step would, so
//! every LRU decision — and with it every simulated cycle — is
//! layout-independent.

use bigtiny_mesh::{Tile, TrafficClass};

use crate::addr::{LineAddr, WordMask, LINE_BYTES, WORD_BYTES};
use crate::l1::{LineEntry, MesiState};
use crate::l2::CoreSet;
use crate::protocol::Protocol;
use crate::system::MemorySystem;
use crate::versions::VersionTable;

/// What a line fetch wants from the L2.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Intent {
    /// Read a copy (MESI GetS or software-centric refill).
    Read,
    /// MESI GetM / DeNovo GetO: data plus registered ownership, every other
    /// copy revoked.
    Own,
    /// MESI S→M: ownership of a line the requester already holds (no data).
    Upgrade,
}

/// Makes the data `entry` writes back (it is leaving `proto`'s cache, or its
/// owner is being recalled) visible at the L2. Returns the bytes on the wire.
fn write_back(
    versions: &mut VersionTable,
    proto: Protocol,
    line: LineAddr,
    entry: &LineEntry,
) -> u64 {
    let mask = proto.writeback_mask(entry);
    versions.commit_line_words(line, mask);
    u64::from(mask.count()) * WORD_BYTES
}

impl MemorySystem {
    fn core_tile(&self, core: usize) -> Tile {
        self.mesh.topology().core_tile(core)
    }

    fn bank_tile(&self, bank: usize) -> Tile {
        self.mesh.topology().l2_bank_tile(bank)
    }

    /// Sends `core`'s request for `line` (issued at `now`) to the line's
    /// home bank and charges the bank access. Returns the bank and the time
    /// at which it has served the request.
    pub(crate) fn request_leg(
        &mut self,
        core: usize,
        line: LineAddr,
        now: u64,
        class: TrafficClass,
        payload: u64,
    ) -> (usize, u64) {
        let bank = self.l2.home_bank(line);
        let leg = self.mesh.send(self.core_tile(core), self.bank_tile(bank), class, payload);
        (bank, self.l2.access(bank, now + leg))
    }

    /// Sends `bank`'s response to `core`; returns the leg's cycles.
    pub(crate) fn response_leg(
        &mut self,
        bank: usize,
        core: usize,
        class: TrafficClass,
        payload: u64,
    ) -> u64 {
        self.mesh.send(self.bank_tile(bank), self.core_tile(core), class, payload)
    }

    /// One directory-initiated recall: `bank`'s request to `core` and the
    /// response carrying `payload` bytes back. Returns the round trip.
    fn recall_legs(&mut self, bank: usize, core: usize, payload: u64) -> u64 {
        let (bank_tile, tile) = (self.bank_tile(bank), self.core_tile(core));
        self.mesh.send(bank_tile, tile, TrafficClass::CohReq, 0)
            + self.mesh.send(tile, bank_tile, TrafficClass::CohResp, payload)
    }

    /// Invalidates every MESI sharer of `line` (resident in L2 slot `slot`)
    /// except `except`, charging parallel invalidation round trips from
    /// `bank`. Returns the time at which all acknowledgements have arrived.
    fn invalidate_sharers(
        &mut self,
        slot: usize,
        line: LineAddr,
        bank: usize,
        t: u64,
        except: usize,
    ) -> u64 {
        // CoreSet is a small Copy bitset: snapshot it instead of collecting
        // members into a Vec — this runs on every write-through store.
        let mut sharers = self.l2.sharers(slot);
        sharers.remove(except);
        if sharers.is_empty() {
            return t;
        }
        let mut done = t;
        for core in sharers.iter() {
            done = done.max(t + self.recall_legs(bank, core, 0));
            self.l1s[core].remove(line);
        }
        self.l2.update_sharers(slot, |s| sharers.iter().for_each(|core| s.remove(core)));
        done
    }

    /// Recalls the current owner of `line` (MESI E/M holder or DeNovo
    /// owner; `slot` is the line's L2 slot): fetches its dirty data into
    /// the L2 and optionally revokes the owner's copy. Returns the time at
    /// which fresh data is at the bank.
    fn recall_owner(
        &mut self,
        slot: usize,
        line: LineAddr,
        bank: usize,
        t: u64,
        revoke: bool,
    ) -> u64 {
        let Some(owner) = self.l2.owner(slot) else {
            return t;
        };
        let proto = self.protocols[owner];
        let tracked = proto.hardware_coherent();
        let l1 = &mut self.l1s[owner];
        // An owner that lost the line silently (a clean eviction already
        // updated the directory in the oracle model) has nothing to supply.
        let (payload, keeps_copy) = match l1.find(line) {
            Some(l1_slot) => {
                let entry = l1.touch(l1_slot);
                let payload = write_back(&mut self.versions, proto, line, entry);
                entry.dirty = WordMask::EMPTY;
                match (tracked, revoke) {
                    (true, true) => {
                        l1.remove_slot(l1_slot);
                    }
                    (true, false) => entry.mesi = MesiState::Shared,
                    // The stale copy stays until its holder self-invalidates.
                    (false, true) => entry.owned = false,
                    (false, false) => {}
                }
                (payload, !revoke)
            }
            None => (0, false),
        };
        if payload > 0 {
            self.l2.set_dirty(slot);
        }
        // A self-invalidating owner keeps ownership across a read-forward:
        // its readers self-invalidate too, so the directory must keep
        // naming it to serve future readers fresh data. A hardware-coherent
        // owner that keeps its copy becomes a sharer.
        if tracked || !keeps_copy {
            self.l2.set_owner(slot, None);
            if keeps_copy {
                self.l2.update_sharers(slot, |s| s.insert(owner));
            }
        }
        t + self.recall_legs(bank, owner, payload)
    }

    /// Resolves `line`'s L2 slot, fetching the line from DRAM on a miss
    /// (recalling and writing back any victim). Returns the slot and the
    /// data-ready time.
    fn ensure_l2_resident(&mut self, line: LineAddr, bank: usize, t: u64) -> (usize, u64) {
        if let Some(slot) = self.l2.find(line) {
            return (slot, t);
        }
        let (slot, victim) = self.l2.insert(line);
        if let Some((vline, victim)) = victim {
            // insert() removed the victim; recall its L1 copies from its
            // saved directory state.
            let vbank = self.l2.home_bank(vline);
            for core in victim.sharers.iter() {
                self.recall_legs(vbank, core, 0);
                self.l1s[core].remove(vline);
            }
            let mut vdirty = victim.dirty;
            if let Some(owner) = victim.owner {
                let payload = self.l1s[owner].remove(vline).map_or(0, |e| {
                    write_back(&mut self.versions, self.protocols[owner], vline, &e)
                });
                vdirty |= payload > 0;
                self.recall_legs(vbank, owner, payload);
            }
            if vdirty {
                // Write the victim back to DRAM (off the critical path:
                // traffic and occupancy are charged, latency is not).
                let mc_tile = self.mesh.topology().mem_ctrl_tile(vbank);
                self.mesh.send(self.bank_tile(vbank), mc_tile, TrafficClass::DramReq, LINE_BYTES);
                self.dram.access(vbank, t);
            }
        }
        // Demand fetch from DRAM.
        let bank_tile = self.bank_tile(bank);
        let mc_tile = self.mesh.topology().mem_ctrl_tile(bank);
        let req = self.mesh.send(bank_tile, mc_tile, TrafficClass::DramReq, 0);
        let t = self.dram.access(bank, t + req);
        (slot, t + self.mesh.send(mc_tile, bank_tile, TrafficClass::DramResp, LINE_BYTES))
    }

    /// A write by `core` performed at the L2 (a write-through word, flushed
    /// words, an at-L2 atomic), arriving at `bank` at `t`: the written data
    /// supersedes any copy held by hardware-coherent caches, so an owner is
    /// revoked and MESI sharers are invalidated. Returns the completion
    /// time at the bank.
    pub(crate) fn write_at_l2(&mut self, core: usize, line: LineAddr, bank: usize, t: u64) -> u64 {
        let (slot, t) = self.ensure_l2_resident(line, bank, t);
        let t = self.recall_owner(slot, line, bank, t, true);
        let t = self.invalidate_sharers(slot, line, bank, t, core);
        self.l2.touch(slot);
        self.l2.set_dirty(slot);
        t
    }

    /// The full L2-side fetch: request leg, bank service, residency, owner
    /// recall / sharer invalidation per `intent`, directory update, data
    /// response leg. Returns the completion time at the requesting core and
    /// whether the directory granted a MESI reader exclusivity (E state).
    pub(crate) fn fetch_line(
        &mut self,
        core: usize,
        line: LineAddr,
        now: u64,
        intent: Intent,
    ) -> (u64, bool) {
        let (bank, t) = self.request_leg(core, line, now, TrafficClass::CpuReq, 0);
        debug_assert!(
            intent != Intent::Upgrade || self.l2.find(line).is_some(),
            "an S-state line is L2-resident"
        );
        let (slot, mut t) = self.ensure_l2_resident(line, bank, t);

        let tracked = self.protocols[core].hardware_coherent();
        let mut exclusive = false;
        if intent == Intent::Read {
            // Fresh data comes from the owner if there is one. Hardware-
            // coherent requesters force a revoke of software-centric owners
            // to preserve SWMR among themselves; hardware-coherent owners
            // are downgraded to sharers.
            if let Some(o) = self.l2.owner(slot) {
                let revoke = tracked && !self.protocols[o].hardware_coherent();
                t = self.recall_owner(slot, line, bank, t, revoke);
            }
            self.l2.touch(slot);
            // Only hardware-coherent readers are tracked.
            if tracked {
                exclusive = !self.l2.line(slot).has_directory_state();
                if exclusive {
                    self.l2.set_owner(slot, Some(core));
                } else {
                    self.l2.update_sharers(slot, |s| s.insert(core));
                }
            }
        } else {
            t = self.recall_owner(slot, line, bank, t, true);
            t = self.invalidate_sharers(slot, line, bank, t, core);
            self.l2.touch(slot);
            self.l2.set_owner(slot, Some(core));
            self.l2.update_sharers(slot, |s| *s = CoreSet::EMPTY);
        }
        let payload = if intent == Intent::Upgrade { 0 } else { LINE_BYTES };
        (t + self.response_leg(bank, core, TrafficClass::DataResp, payload), exclusive)
    }

    /// Installs a fetched line into `core`'s L1 — merging into the
    /// partially valid entry in `resident` if the line was found there
    /// before the fetch — handling any eviction. Returns the line's slot
    /// and the extra cycles.
    pub(crate) fn install_line(
        &mut self,
        core: usize,
        resident: Option<usize>,
        line: LineAddr,
        mesi: MesiState,
        owned: bool,
    ) -> (usize, u64) {
        // What the L2 can supply right now (committed versions).
        let versions = self.versions.fill_versions(line);
        let l1 = &mut self.l1s[core];
        let (slot, victim) = match resident {
            Some(slot) => {
                debug_assert_eq!(l1.find(line), Some(slot), "a fetch displaced its own line");
                l1.touch(slot);
                (slot, None)
            }
            None => l1.insert(line),
        };
        let entry = l1.entry_mut(slot);
        entry.valid = WordMask::FULL;
        entry.mesi = mesi;
        entry.owned |= owned;
        // Merge: locally dirty words keep their own (newer) versions.
        for (i, v) in versions.iter().enumerate() {
            if !entry.dirty.contains(i) {
                entry.fill_version[i] = *v;
            }
        }
        (slot, victim.map_or(0, |(vline, v)| self.handle_l1_eviction(core, vline, v)))
    }

    /// Handles an L1 eviction: dirty data is written back (traffic charged;
    /// the write-back is off the requester's critical path so only one
    /// cycle of latency is charged), and directory state is released.
    /// Clean-eviction directory downgrades use an oracle (zero traffic) to
    /// keep the MESI sharer list precise, a standard simulator
    /// simplification.
    pub(crate) fn handle_l1_eviction(
        &mut self,
        core: usize,
        line: LineAddr,
        victim: LineEntry,
    ) -> u64 {
        let proto = self.protocols[core];
        let payload = write_back(&mut self.versions, proto, line, &victim);
        // Release directory state (software-centric copies are untracked,
        // so the line need not be L2-resident at all).
        let l2_slot = self.l2.find(line);
        if let Some(slot) = l2_slot {
            self.l2.touch(slot);
            if self.l2.owner(slot) == Some(core) {
                self.l2.set_owner(slot, None);
            }
            self.l2.update_sharers(slot, |s| s.remove(core));
            if payload > 0 {
                self.l2.set_dirty(slot);
            }
        }
        if payload == 0 {
            return 0;
        }
        let bank = self.l2.home_bank(line);
        self.mesh.send(self.core_tile(core), self.bank_tile(bank), TrafficClass::WbReq, payload);
        // A dirty write-back from a no-ownership cache commits values a
        // hardware-coherent cache may still hold: keep those copies
        // coherent (traffic charged, off the critical path).
        if let Some(slot) = l2_slot.filter(|_| !proto.tracks_ownership()) {
            let t = self.recall_owner(slot, line, bank, 0, true);
            self.invalidate_sharers(slot, line, bank, t, core);
        }
        1
    }
}
