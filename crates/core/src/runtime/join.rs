//! The join-counter protocol — Figure 3's third axis: how a parent's
//! `rc` is read while it waits and decremented when a child completes,
//! and the `has_stolen_child` flag that lets DTS elide the atomics
//! (Section IV-C).

use bigtiny_engine::{RacyTag, SyncNote};

use super::shared::Join;
use super::TaskCx;
use crate::config::MutationKind;
use crate::task::TaskId;

impl TaskCx<'_> {
    /// Announces that the current task will spawn `n` children before its
    /// next [`TaskCx::wait`] — the paper's `this->reference_count = n`
    /// (Figure 2 line 16) / TBB's `set_ref_count`.
    ///
    /// Setting the count *before* any child is published is what makes a
    /// plain store safe: no thief can be decrementing yet.
    ///
    /// # Panics
    ///
    /// Panics if called outside a task, with children still outstanding, or
    /// with a previous `set_pending` budget not fully spawned.
    pub fn set_pending(&mut self, n: u64) {
        self.tally_user();
        let t = self.current.expect("set_pending() must be called from within a task");
        {
            let mut tasks = self.rt.tasks.write();
            let rec = &mut tasks[t.0 as usize];
            assert_eq!(rec.rc, 0, "set_pending() with children still outstanding");
            assert_eq!(rec.pending_budget, 0, "set_pending() before spawning the previous batch");
            rec.rc = n;
            rec.pending_budget = n;
        }
        // One plain store, as in Figure 2.
        let addr = self.rt.rc_addr(t);
        self.port.store_words(addr, 1, || ());
        self.port.advance(1);
        self.remark();
    }

    /// A plain `rc` read that tolerates staleness: on real hardware the
    /// cached value can only be *older* (larger) than the true count, which
    /// at worst costs an extra wait-loop iteration (Figure 3(c) line 8).
    /// Benign race: the join-counter spin. Remote decrements arrive by AMO
    /// (releases); the terminal read that observes zero synchronizes with
    /// them, so the checker treats [`RacyTag::RcWaitLoop`] loads as acquire
    /// reads of the counter's sync clock.
    pub(super) fn read_rc_plain_racy(&mut self, t: TaskId) -> u64 {
        let addr = self.rt.rc_addr(t);
        self.port
            .load_words_racy(addr, 1, RacyTag::RcWaitLoop, || self.rt.tasks.read()[t.0 as usize].rc)
    }

    pub(super) fn read_rc_amo(&mut self, t: TaskId) -> u64 {
        // The paper's `amo_or(p->rc, 0)`: an atomic read.
        let addr = self.rt.rc_addr(t);
        self.port.amo_word(addr, || self.rt.tasks.read()[t.0 as usize].rc)
    }

    pub(super) fn dec_rc_amo(&mut self, t: TaskId) {
        let addr = self.rt.rc_addr(t);
        self.port.amo_word(addr, || self.rt.dec_rc(t));
    }

    fn dec_rc_plain(&mut self, t: TaskId) {
        let addr = self.rt.rc_addr(t);
        self.port.load(addr);
        self.port.store_words(addr, 1, || self.rt.dec_rc(t));
    }

    pub(super) fn read_hsc(&mut self, t: TaskId) -> bool {
        let addr = self.rt.hsc_addr(t);
        let v =
            self.port.load_words(addr, 1, || self.rt.tasks.read()[t.0 as usize].has_stolen_child);
        // Seeded stuck-at fault on the flag (checker test fixture): the
        // load still happens (same timing, same event stream shape); only
        // the value the runtime acts on is corrupted.
        match self.rt.cfg.mutation {
            Some(m) if m.core == self.wid && m.kind == MutationKind::HscStuckFalse => false,
            Some(m) if m.core == self.wid && m.kind == MutationKind::HscStuckTrue => true,
            _ => v,
        }
    }

    /// Records that a `has_stolen_child` check let `p` skip an AMO or an
    /// invalidate (Section IV-C).
    pub(super) fn note_hsc_elision(&mut self, p: TaskId) {
        self.port.annotate_sync(SyncNote::HscElide { task: p.0 });
        self.rt.tel.write().hsc_elisions += 1;
    }

    /// Completion of a locally-executed task: tell the parent, under the
    /// run's join discipline.
    pub(super) fn complete_task(&mut self, t: TaskId) {
        let Some(p) = self.rt.parent_of(t) else { return };
        if self.rt.disc.join != Join::StolenChild {
            return self.dec_rc_amo(p);
        }
        // Figure 3(c) lines 17-20, with ULIs masked across the
        // check-and-decrement: a steal handler running between the
        // `has_stolen_child` read and a plain decrement could otherwise
        // lose an update to `rc` on real hardware (the parent lives on
        // this core, so masking this core's ULIs is sufficient).
        self.port.uli_disable();
        if self.read_hsc(p) {
            self.dec_rc_amo(p);
        } else {
            self.note_hsc_elision(p);
            self.dec_rc_plain(p);
        }
        self.port.uli_enable();
    }

    /// Completion of a stolen task: always an AMO (the parent is remote).
    pub(super) fn complete_task_stolen(&mut self, t: TaskId) {
        if let Some(p) = self.rt.parent_of(t) {
            self.dec_rc_amo(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use bigtiny_engine::{AddrSpace, SystemConfig};

    use crate::task::TaskId;
    use crate::{run_task_parallel, RuntimeConfig, RuntimeKind};

    /// Completing the same child twice against one parent must fail
    /// loudly in every build profile: a wrapped `rc` would leave the
    /// parent's `wait` spinning until the watchdog (if any) trips.
    #[test]
    #[should_panic(expected = "reference count underflow")]
    fn completing_a_child_twice_panics_on_rc_underflow() {
        let mut space = AddrSpace::new();
        let cfg = RuntimeConfig::new(RuntimeKind::Baseline);
        run_task_parallel(&SystemConfig::o3(1), &cfg, &mut space, |cx| {
            cx.set_pending(1);
            cx.spawn(|_| {});
            cx.wait();
            // The root is task 0, its only child task 1; `wait` already
            // saw the child's one legitimate completion.
            cx.complete_task(TaskId(1));
        });
    }
}
