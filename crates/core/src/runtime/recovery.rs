//! Fail-stop crashes and self-healing recovery (see the module docs of
//! [`super`]). Everything here is a no-op unless the fault plan's crash
//! dimension is armed.

use std::sync::Arc;

use bigtiny_coherence::Addr;

use super::shared::Role;
use super::TaskCx;
use crate::task::{field, TaskId};
use crate::telemetry::TaskEventKind;

/// Unwind payload that carries a fail-stopped worker's stack down to the
/// catch in [`TaskCx::schedule_until_done`]. Private to this module: any
/// other payload crossing that catch is re-raised untouched.
struct CrashToken;

impl TaskCx<'_> {
    /// Safe-point crash poll: if this core's scheduled fail-stop cycle has
    /// passed, mark its ULI unit dead (a sequenced op — all future steal
    /// requests get `Dead` replies) and unwind to `schedule_until_done`.
    /// No simulated or host lock is held at any poll site. A modelled
    /// fail-stop is not a panic: `resume_unwind` skips the panic hook, so
    /// nothing is printed and no backtrace is captured.
    pub(super) fn maybe_crash(&mut self) {
        if self.crash_armed && self.port.crash_pending() {
            self.port.crash_now();
            std::panic::resume_unwind(Box::new(CrashToken));
        }
    }

    /// Per-scheduling-step crash hook: poll for this core's own crash,
    /// and every 64th step scan the sequenced dead mask for other cores'
    /// deaths (the only discovery path for the shared-memory transport,
    /// and the join-counter-timeout backstop for DTS).
    pub(super) fn hardened_tick(&mut self) {
        if !self.crash_armed {
            return;
        }
        self.maybe_crash();
        self.tick = self.tick.wrapping_add(1);
        if self.tick.is_multiple_of(64) {
            self.observe_dead();
        }
    }

    /// The scheduling loop of a worker that may fail-stop; returns whether
    /// the worker is alive when the program finishes. A fail-stop unwinds
    /// to here with `CrashToken`. Permanent crash: return, retiring this
    /// core's sequencer token so the grant rotation never waits on it
    /// again. Revivable crash: dormant sequenced-idle loop (grants keep
    /// flowing) until the scheduled revival cycle AND the survivors'
    /// recovery of this core have both passed, then rejoin with a fresh
    /// scheduling loop.
    pub(super) fn schedule_until_done(&mut self) -> bool {
        if !self.crash_armed {
            self.schedule_loop();
            return true;
        }
        while let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.schedule_loop()))
        {
            if !payload.is::<CrashToken>() {
                std::panic::resume_unwind(payload);
            }
            let after = self.port.revive_after();
            if after == 0 {
                return false;
            }
            let revive_at = self.port.now().saturating_add(after);
            loop {
                if self.port.is_done() {
                    return false;
                }
                if self.port.now() >= revive_at && *self.rt.claims[self.wid].done.read() {
                    break;
                }
                self.port.idle(256);
            }
            self.rejoin_after_revival();
        }
        true
    }

    /// Reads the sequenced dead set and reconciles it with this worker's
    /// view: newly-dead cores are quarantined and their recovery raced;
    /// cores that left the set (revived) are unquarantined.
    fn observe_dead(&mut self) {
        let mask = self.port.dead_mask();
        let fresh = mask.difference(&self.known_dead);
        let revived = self.known_dead.difference(&mask);
        self.known_dead = mask;
        for d in fresh.iter() {
            if d < self.health.len() && d != self.wid {
                self.quarantine(d);
                self.try_recover(d);
            }
        }
        for d in revived.iter() {
            if d < self.health.len() {
                self.unquarantine(d);
            }
        }
    }

    /// Removes `d` from this worker's victim set, or doubles the re-probe
    /// backoff if it already was removed (a probe just failed again).
    pub(super) fn quarantine(&mut self, d: usize) {
        let base = self.rt.cfg.steal_backoff_cycles.max(1).saturating_mul(16);
        let h = &mut self.health[d];
        if h.quarantined {
            h.backoff = h.backoff.saturating_mul(2).min(1 << 16);
        } else {
            h.quarantined = true;
            h.backoff = base;
            self.quarantined_count += 1;
        }
        h.reprobe_at = self.port.now() + h.backoff;
        self.rt.counters.write().quarantines += 1;
    }

    /// Returns `d` to this worker's victim set (it revived, or a probe
    /// succeeded).
    pub(super) fn unquarantine(&mut self, d: usize) {
        let h = &mut self.health[d];
        if h.quarantined {
            h.quarantined = false;
            self.quarantined_count -= 1;
        }
    }

    /// Doubles the re-probe backoff after a failed shared-memory steal
    /// against a quarantined victim — the equivalent of a `Dead` ULI reply
    /// re-arming the quarantine.
    pub(super) fn requarantine_if_dead(&mut self, vid: usize) {
        if self.crash_armed && self.health[vid].quarantined {
            self.quarantine(vid);
        }
    }

    /// Races the recovery claim for dead core `d` (at most once per worker
    /// per death); the sequenced AMO makes the winner the first claimant
    /// in grant order, so recovery is deterministic.
    pub(super) fn try_recover(&mut self, d: usize) {
        if d >= self.rt.claims.len() || self.claim_tried.contains(d) {
            return;
        }
        self.claim_tried.insert(d);
        let rt = Arc::clone(&self.rt);
        let claim = &rt.claims[d];
        let won = self.port.amo_word(claim.addr, || {
            let mut o = claim.owner.write();
            if o.is_none() {
                *o = Some(self.wid);
                1
            } else {
                0
            }
        });
        if won == 1 {
            self.recover_core(d);
        }
    }

    /// Recovers dead core `d`: reclaim its deque orphans, rescue its
    /// unclaimed mailbox tasks, re-spawn the task it died inside, then
    /// publish completion (a revivable core stays dormant until then).
    fn recover_core(&mut self, d: usize) {
        let rt = Arc::clone(&self.rt);

        // (1) Orphan reclamation. Every task parked in the dead core's
        // deque was spawned by a task frozen on its execution stack (a
        // spawner cannot leave the stack before its children join), so the
        // bottom respawn in step (3) recreates all of them: discard.
        let wid = self.wid;
        let orphans = rt.deque_op(self.port, wid, d, Role::Recoverer, |dq, port, policy| {
            let mut orphans = 0u64;
            while let Some(t) = dq.steal(port, policy) {
                rt.record_event(port, wid, t.0, TaskEventKind::Discarded);
                orphans += 1;
            }
            orphans
        });
        if orphans > 0 {
            self.rt.counters.write().orphans_reclaimed += orphans;
        }

        // (2) Mailbox rescue. Tasks victims handed to the dead thief that
        // it never claimed belong to *live* families — requeue them here.
        // Drain-and-seal is one sequenced AMO, so a concurrent victim
        // handler either lands before it (rescued) or bounces and keeps
        // its task.
        let mb = &rt.mailboxes[d];
        let mut rescued: Vec<TaskId> = Vec::new();
        self.port.amo_word(mb.addr, || {
            let mut q = mb.value.write();
            *mb.sealed.write() = true;
            while let Some(p) = q.pop_front() {
                if let Some(t) = TaskId::from_payload(p) {
                    rescued.push(t);
                }
            }
            rescued.len() as u64
        });
        if !rescued.is_empty() {
            self.rt.counters.write().mailbox_rescues += rescued.len() as u64;
        }
        for t in rescued {
            self.enqueue_recovered(t);
        }

        // (3) Re-execute the task the core died inside.
        self.respawn_bottom(d);

        *rt.claims[d].done.write() = true;
        self.port.mark_progress();
    }

    /// Re-spawns the bottom task of dead core `d`'s frozen execution
    /// stack. The bottom task always has a remote parent (a non-empty
    /// stack bottom arrives by steal, rescue, or respawn), so the
    /// replacement — which inherits that parent and its un-decremented
    /// join count — repairs the join the dead original left short. Tasks
    /// higher on the frozen stack are descendants of the bottom and are
    /// recreated by its re-execution.
    fn respawn_bottom(&mut self, d: usize) {
        let bottom = {
            let mut st = self.rt.exec_stacks[d].write();
            let b = st.first().copied();
            st.clear();
            b
        };
        let Some(b) = bottom else { return };
        let parent = self.rt.parent_of(TaskId(b));
        // Core 0 is never crash-eligible, so the dead task is never the
        // root: it came through `spawn`, which records a factory whenever
        // crashes are armed.
        let (body, factory) = self.rebuild_body(TaskId(b));
        let addr = self.alloc_respawn_slot();
        let id = self.new_task(body, Some(factory), parent, addr, TaskEventKind::Respawn { of: b });
        {
            let mut c = self.rt.counters.write();
            c.reexecutions += 1;
            c.joins_repaired += 1;
        }
        self.enqueue_recovered(id);
    }

    /// Allocates one record-sized slot in the respawn arena through a
    /// sequenced AMO cursor (winners for different dead cores can race).
    fn alloc_respawn_slot(&mut self) -> Addr {
        let rt = Arc::clone(&self.rt);
        let slot = self.port.amo_word(rt.respawn_cursor_addr, || {
            let mut c = rt.respawn_cursor.write();
            let s = *c;
            *c += 1;
            s
        });
        assert!((slot + 1) * field::SIZE <= rt.respawn_bytes, "respawn arena exhausted");
        Addr(rt.respawn_base + slot * field::SIZE)
    }

    /// Queues a rescued or re-spawned task on this worker's own deque
    /// (falling back to immediate execution if full). Recovered tasks
    /// always have remote parents, so the inline path runs them like a
    /// stolen task — conservatively invalidate/flush-bracketed on every
    /// runtime — and completes with an AMO.
    fn enqueue_recovered(&mut self, t: TaskId) {
        if !self.push_own(t) {
            self.cache_invalidate();
            self.execute_task(t);
            self.cache_flush();
            self.complete_task_stolen(t);
        }
    }

    /// Rejoins scheduling after a revival: clear the state the crash
    /// unwind left behind, unseal the mailbox, and mark the ULI unit
    /// alive again (sequenced, so thieves' next probes see it). The stack
    /// region below the frozen `stack_top` is leaked — in-flight
    /// decrements against dead task records may still touch it.
    fn rejoin_after_revival(&mut self) {
        self.current = None;
        self.uli_fail_streak = 0;
        self.backoff = self.rt.cfg.steal_backoff_cycles;
        self.rt.exec_stacks[self.wid].write().clear();
        *self.rt.mailboxes[self.wid].sealed.write() = false;
        self.port.revive_now();
        self.rt.counters.write().revivals += 1;
    }
}
