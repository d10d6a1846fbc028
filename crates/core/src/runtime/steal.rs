//! The steal half of a scheduling step: victim selection, the two steal
//! transports, and the two tails every attempt ends in
//! ([`TaskCx::run_stolen`], [`TaskCx::steal_missed`]).

use bigtiny_engine::{FlightKind, UliMessage, UliOutcome, UliWait};

use super::shared::{Role, Transport};
use super::{TaskCx, VictimHealth};
use crate::config::VictimPolicy;
use crate::task::TaskId;
use crate::telemetry::TaskEventKind;

/// Hardened DTS: cycles a thief waits for a ULI steal response before
/// declaring it lost. Must exceed the worst-case request + handler +
/// response latency or healthy steals are misclassified as timeouts.
const ULI_RESPONSE_TIMEOUT_CYCLES: u64 = 4096;

/// Hardened DTS: consecutive failed ULI steal attempts (NACKs, empty
/// victims, timeouts, forced misses) before a thief gives up on direct
/// task stealing for one round and steals through shared memory instead.
const ULI_GIVEUP_ATTEMPTS: u64 = 4;

impl TaskCx<'_> {
    // ------------------------------------------------------------------
    // Transports
    // ------------------------------------------------------------------

    /// Shared-memory steal (Figure 3(a)/(b) lines 24-35): take the head of
    /// the victim's deque under the run's access discipline. Also hardened
    /// DTS's degraded path — safe under any fault plan because every DTS
    /// deque access (owner, handler, fallback thief) takes the lock while
    /// a plan is armed, and hardened mode always runs the conservative
    /// AMO + unconditional-invalidate join, so no `has_stolen_child`
    /// bookkeeping is required here.
    pub(super) fn steal_shared(&mut self, vid: usize) {
        let stolen = self.rt.deque_op(self.port, self.wid, vid, Role::Thief, |dq, port, policy| {
            dq.steal(port, policy)
        });
        match stolen {
            Some(t) => {
                self.rt.counters.write().steals += 1;
                self.run_stolen(t, vid, Transport::Shared);
            }
            None => {
                self.requarantine_if_dead(vid);
                self.steal_missed(vid);
            }
        }
    }

    /// Direct task stealing through the ULI network (Figure 3(c) lines
    /// 24-34).
    pub(super) fn steal_uli(&mut self, vid: usize) {
        let hardened = self.rt.disc.hardened;
        if hardened && self.uli_fail_streak >= ULI_GIVEUP_ATTEMPTS {
            // Give up on ULI for one round and steal through shared memory.
            self.uli_fail_streak = 0;
            self.rt.counters.write().fallback_steals += 1;
            return self.steal_shared(vid);
        }
        // Round-trip start: the simulated time at which the request leaves
        // (a pure clock read — telemetry must not charge cycles).
        let rtt_start = self.port.now();
        match self.port.uli_send_request(vid, self.wid as u64) {
            UliOutcome::Sent => {
                // The unit accepted the request, so the victim is alive:
                // a re-probe of a quarantined core succeeded.
                self.unquarantine(vid);
                // Wait for the response, servicing incoming steal requests
                // to avoid mutual-steal deadlock. Without faults a response
                // is guaranteed; hardened mode bounds the wait because the
                // request may have been dropped in flight.
                let deadline = hardened.then(|| self.port.now() + ULI_RESPONSE_TIMEOUT_CYCLES);
                match self.port.uli_await_response(deadline) {
                    UliWait::Response(m) => {
                        self.rt.tel.write().uli_rtt.record(self.port.now() - rtt_start);
                        self.uli_response(m);
                    }
                    UliWait::Done => {} // program finished while waiting
                    UliWait::TimedOut => {
                        // The request (or its response) was lost or badly
                        // delayed; back off and try elsewhere. If it was
                        // merely delayed, the drain at the top of `step`
                        // handles the eventual response.
                        self.rt.counters.write().uli_timeouts += 1;
                        self.uli_missed(vid);
                    }
                }
            }
            UliOutcome::Nack { .. } => {
                self.rt.counters.write().steal_nacks += 1;
                self.uli_missed(vid);
            }
            UliOutcome::Dead { .. } => {
                // The victim fail-stopped: quarantine it (with backoff
                // re-probe so a revived core rejoins the victim set) and
                // volunteer for its recovery.
                self.uli_fail_streak += 1;
                self.known_dead.insert(vid);
                self.quarantine(vid);
                self.try_recover(vid);
                self.steal_missed(vid);
            }
        }
    }

    /// Acts on a (fresh or late) ULI steal response.
    pub(super) fn uli_response(&mut self, m: UliMessage) {
        if m.payload != 1 {
            // Victim was empty.
            return self.uli_missed(m.from);
        }
        // Invalidate (line 30), then read the mailbox fresh.
        self.cache_invalidate();
        let mb = &self.rt.mailboxes[self.wid];
        let raw = self.port.load_words(mb.addr, 1, || {
            mb.value.write().pop_front().unwrap_or(TaskId::NONE_PAYLOAD)
        });
        let t = TaskId::from_payload(raw).expect("victim promised a task");
        self.uli_fail_streak = 0;
        self.run_stolen(t, m.from, Transport::Uli);
    }

    // ------------------------------------------------------------------
    // Tails
    // ------------------------------------------------------------------

    /// Every successful steal ends here: run the task taken from `from`
    /// and decrement its (remote) parent with an AMO.
    fn run_stolen(&mut self, t: TaskId, from: usize, via: Transport) {
        self.port.flight_note(FlightKind::StealHit { victim: from });
        self.rt.tel.write().per_victim[from].hits += 1;
        self.record_event(t.0, TaskEventKind::Stolen { from });
        self.backoff = self.rt.cfg.steal_backoff_cycles;
        self.victim_cursor = 0;
        self.port.mark_progress();
        // The stolen task's parent ran elsewhere: bracket execution with
        // invalidate/flush (Figure 3(b) lines 33-35, 3(c) lines 30-32). A
        // ULI thief already invalidated before reading its mailbox.
        let software_coherent = self.rt.disc.software_coherent;
        if software_coherent && via == Transport::Shared {
            self.cache_invalidate();
        }
        self.execute_task(t);
        if software_coherent {
            self.cache_flush();
        }
        self.complete_task_stolen(t);
    }

    /// Every failed steal (empty victim, NACK, timeout, dead victim,
    /// fault-forced miss) ends here: exponential back-off, reset on
    /// success, which keeps idle thieves from saturating victims' deque
    /// locks / ULI units.
    pub(super) fn steal_missed(&mut self, vid: usize) {
        self.rt.tel.write().per_victim[vid].misses += 1;
        self.port.idle(self.backoff);
        // Saturating: `cycles * max_factor` is a configuration product that
        // can exceed u64::MAX (the chaos fuzzer found the debug-mode
        // overflow); the cap is "effectively unbounded" past saturation.
        self.backoff = self.backoff.saturating_mul(2).min(
            self.rt.cfg.steal_backoff_cycles.saturating_mul(self.rt.cfg.steal_backoff_max_factor),
        );
        // NearestFirst walks outward on failure.
        self.victim_cursor += 1;
    }

    /// A failed steal over the ULI transport: also counts toward the
    /// give-up streak.
    pub(super) fn uli_missed(&mut self, vid: usize) {
        self.uli_fail_streak += 1;
        self.steal_missed(vid);
    }

    // ------------------------------------------------------------------
    // Victim selection
    // ------------------------------------------------------------------

    pub(super) fn choose_victim(&mut self) -> usize {
        let n = self.num_workers();
        debug_assert!(n > 1, "cannot steal in a single-worker system");
        if self.quarantined_count > 0 {
            if let Some(v) = self.choose_live_victim(n) {
                return v;
            }
        }
        match self.rt.cfg.victim_policy {
            VictimPolicy::Random => {
                let mut v = self.port.rng_below(n as u64 - 1) as usize;
                if v >= self.wid {
                    v += 1;
                }
                v
            }
            VictimPolicy::RoundRobin => {
                let order = &self.rt.victim_order[self.wid];
                let v = order[self.victim_cursor % order.len()];
                self.victim_cursor += 1;
                v
            }
            VictimPolicy::NearestFirst => {
                let order = &self.rt.victim_order[self.wid];
                order[self.victim_cursor % order.len()]
            }
        }
    }

    /// Victim selection while quarantines are active: skip quarantined
    /// victims whose re-probe time has not arrived. Falls back to the
    /// normal policy (`None`) when no victim is currently eligible.
    fn choose_live_victim(&mut self, n: usize) -> Option<usize> {
        let now = self.port.now();
        let eligible = |h: &VictimHealth| !h.quarantined || now >= h.reprobe_at;
        match self.rt.cfg.victim_policy {
            VictimPolicy::Random => {
                let cands: Vec<usize> =
                    (0..n).filter(|v| *v != self.wid && eligible(&self.health[*v])).collect();
                if cands.is_empty() {
                    None
                } else {
                    Some(cands[self.port.rng_below(cands.len() as u64) as usize])
                }
            }
            VictimPolicy::RoundRobin => {
                let order = &self.rt.victim_order[self.wid];
                for _ in 0..order.len() {
                    let v = order[self.victim_cursor % order.len()];
                    self.victim_cursor += 1;
                    if eligible(&self.health[v]) {
                        return Some(v);
                    }
                }
                None
            }
            VictimPolicy::NearestFirst => {
                let order = &self.rt.victim_order[self.wid];
                (0..order.len())
                    .map(|i| order[(self.victim_cursor + i) % order.len()])
                    .find(|v| eligible(&self.health[*v]))
            }
        }
    }
}
