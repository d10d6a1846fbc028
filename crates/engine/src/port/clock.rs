//! Figure 7's time accounting: compute coalescing and the store buffer.

use std::collections::VecDeque;

use super::CorePort;
use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::config::CoreKind;
use crate::sequencer::unwind_poisoned;
use crate::watchdog::MAX_IDLE_CHARGES;

/// Entries in each core's store buffer: stores retire into the buffer and
/// only stall the core when it is full (or at drain points: AMOs, flushes).
const STORE_BUFFER_ENTRIES: usize = 8;

/// Bound on coalesced-but-uncharged compute cycles. Coalescing defers the
/// bookkeeping of consecutive pure-compute advances, and the flush is also
/// where the poison flag is polled — so an unbounded accumulation on a core
/// with no ULI handler could spin forever in a poisoned run. The bound is
/// far above any real kernel's inter-operation compute stretch, so it only
/// exists as that safety valve.
const MAX_PENDING_COMPUTE: u64 = 4096;

/// One core's local time.
#[derive(Default)]
pub(super) struct Clock {
    /// Local simulated time in cycles, coalesced compute excluded.
    pub cycle: u64,
    /// Compute cycles accumulated by consecutive [`CorePort::advance`]
    /// calls but not yet folded into `cycle`/`breakdown`/trace (compute
    /// coalescing). Flushed before anything observes the clock: sequenced
    /// ops, non-compute charges, store-buffer arithmetic, [`CorePort::now`],
    /// and the final report. Timing-invisible by construction — only the
    /// number of bookkeeping operations changes, never their sum.
    pub pending_compute: u64,
    /// Compute cycles since the last ULI-delivery opportunity.
    pub compute_since_poll: u64,
    /// Idle charges since the last sequenced op ([`MAX_IDLE_CHARGES`]).
    pub idle_charges: u64,
    pub breakdown: TimeBreakdown,
    /// Completion times of in-flight stores.
    store_buffer: VecDeque<u64>,
}

impl CorePort {
    /// Current local simulated time in cycles.
    pub fn now(&self) -> u64 {
        self.clock.cycle + self.clock.pending_compute
    }

    /// The accumulated execution-time breakdown, including compute cycles
    /// still coalesced (not yet folded into the clock).
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut b = self.clock.breakdown;
        b.add(TimeCategory::Compute, self.clock.pending_compute);
        b
    }

    /// Executes `insts` non-memory instructions (purely local: no
    /// sequencing) at the core's [`CoreKind::issue_width`].
    pub fn advance(&mut self, insts: u64) {
        self.instructions += insts;
        let cycles = match self.kind {
            CoreKind::Big => insts.div_ceil(CoreKind::Big.issue_width()),
            CoreKind::Tiny => insts,
        };
        // Coalesce consecutive pure-compute advances into one deferred
        // clock bump; the ULI-delivery boundary below is still checked on
        // the accumulated total, so delivery opportunities land at the same
        // simulated cycle they always did.
        self.clock.pending_compute += cycles;
        if self.clock.pending_compute >= MAX_PENDING_COMPUTE {
            self.flush_compute();
        }
        // Long pure-compute stretches must remain interruptible: poll for
        // ULIs every ~256 accumulated compute cycles.
        if self.takes_requests() {
            self.clock.compute_since_poll += cycles;
            if self.clock.compute_since_poll >= 256 {
                self.uli_poll();
            }
        }
    }

    /// Burns `cycles` in the given accounting category (back-off, waits).
    pub fn wait_cycles(&mut self, cycles: u64, cat: TimeCategory) {
        self.charge(cat, cycles);
    }

    /// Burns `cycles` as idle time.
    pub fn idle(&mut self, cycles: u64) {
        self.charge(TimeCategory::Idle, cycles);
    }

    /// Memory-stall latency as seen by this core: big out-of-order cores
    /// overlap part of every miss with independent work (but stall at
    /// least a cycle); tiny cores see the raw latency, even a zero one.
    #[inline]
    pub(super) fn mem_latency(&self, raw: u64) -> u64 {
        match self.kind {
            CoreKind::Big => (raw / CoreKind::Big.overlap_div()).max(1),
            CoreKind::Tiny => raw,
        }
    }

    #[inline]
    pub(super) fn charge(&mut self, cat: TimeCategory, cycles: u64) {
        self.flush_compute();
        self.charge_now(cat, cycles);
    }

    /// Folds any coalesced compute into the clock/breakdown/trace. Between
    /// the first deferred `advance` and this flush the clock never moves
    /// (every other charge flushes first), so the single merged trace event
    /// spans exactly the cycles the individual events would have.
    #[inline]
    pub(super) fn flush_compute(&mut self) {
        let pending = std::mem::take(&mut self.clock.pending_compute);
        if pending > 0 {
            self.charge_now(TimeCategory::Compute, pending);
        }
    }

    #[inline]
    fn charge_now(&mut self, cat: TimeCategory, cycles: u64) {
        if cycles > 0 {
            // A core looping on purely local time (back-off, spin-waits)
            // never takes the sequencer lock, so it must poll the poison
            // flag here or a poisoned run could not unwind it.
            if self.shared.seq.check_poison() {
                unwind_poisoned();
            }
        }
        if cat == TimeCategory::Idle {
            // Too many idle spins since the last grant is a hang: an armed
            // watchdog trips on it here, before the charge.
            self.clock.idle_charges += 1;
            if self.clock.idle_charges > MAX_IDLE_CHARGES {
                self.shared.seq.trip_spinner(self.core, self.clock.cycle);
            }
        }
        self.book(cat, cycles);
    }

    /// Moves the clock by `cycles` spent in `cat`: trace event, breakdown,
    /// clock. Never panics and counts no idle spin, so it is also
    /// how a core accounts for time after the fact (polls served in place,
    /// the terminal flush of a worker that has already unwound).
    #[inline]
    pub(super) fn book(&mut self, cat: TimeCategory, cycles: u64) {
        self.rec.book(self.clock.cycle, cat, cycles);
        self.clock.breakdown.add(cat, cycles);
        self.clock.cycle += cycles;
    }

    /// Retires a store of raw latency `raw` into the store buffer,
    /// returning the cycles the core actually stalls: one issue cycle plus
    /// any wait for a free buffer entry.
    #[inline]
    pub(super) fn buffer_store(&mut self, raw: u64) -> u64 {
        self.flush_compute();
        let now = self.clock.cycle;
        let buffer = &mut self.clock.store_buffer;
        while buffer.front().is_some_and(|done| *done <= now) {
            buffer.pop_front();
        }
        let stall = if buffer.len() >= STORE_BUFFER_ENTRIES {
            let head = buffer.pop_front().expect("nonempty");
            head.saturating_sub(now)
        } else {
            0
        };
        buffer.push_back(now + stall + 1 + raw);
        stall + 1
    }

    /// Cycles until every buffered store has completed (drain at AMOs and
    /// flush points, which have release semantics).
    #[inline]
    pub(super) fn drain_store_buffer(&mut self) -> u64 {
        self.flush_compute();
        let last = self.clock.store_buffer.back().copied().unwrap_or(0);
        self.clock.store_buffer.clear();
        last.saturating_sub(self.clock.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_system;
    use crate::SystemConfig;

    /// Runs `body` on the only core of a one-tiny-core machine (issue
    /// width 1: an instruction is a cycle), tracing armed, and returns its
    /// final clock, breakdown and trace.
    fn on_tiny_core(
        body: impl FnOnce(&mut CorePort) + Send + 'static,
    ) -> (u64, TimeBreakdown, Vec<crate::TraceEvent>) {
        let mut config = SystemConfig::tiny_only(1, bigtiny_coherence::Protocol::Mesi);
        config.trace = true;
        let report = run_system(
            &config,
            vec![Box::new(move |port: &mut CorePort| {
                assert_eq!(port.kind(), CoreKind::Tiny);
                body(port);
            })],
        );
        (report.core_cycles[0], report.breakdowns[0], report.traces[0].clone())
    }

    /// Coalescing moves no cycle: N advances of k read the same `now()`
    /// and breakdown as the same advances each folded in at once, and the
    /// trace covers the same cycles in fewer events.
    #[test]
    fn coalesced_compute_reads_as_the_uncoalesced_sum() {
        let run = |flush_each: bool| {
            on_tiny_core(move |port| {
                for i in 1..=100 {
                    port.advance(7);
                    if flush_each {
                        port.idle(0);
                    }
                    assert_eq!(port.now(), 7 * i);
                    assert_eq!(port.breakdown().get(TimeCategory::Compute), 7 * i);
                }
            })
        };
        let (coalesced, uncoalesced) = (run(false), run(true));
        assert_eq!((coalesced.0, coalesced.1), (uncoalesced.0, uncoalesced.1));
        assert_eq!(coalesced.0, 700);
        assert_eq!(uncoalesced.2.len(), 100);
        assert!(coalesced.2.len() < uncoalesced.2.len());
        let cycles = |t: &[crate::TraceEvent]| t.iter().map(|e| e.cycles).sum::<u64>();
        assert_eq!(cycles(&coalesced.2), cycles(&uncoalesced.2));
    }

    /// `MAX_PENDING_COMPUTE` coalesced cycles are folded into the clock at
    /// once; one fewer stays pending.
    #[test]
    fn max_pending_compute_forces_a_flush() {
        on_tiny_core(|port| {
            port.advance(MAX_PENDING_COMPUTE - 1);
            assert_eq!(
                (port.clock.cycle, port.clock.pending_compute),
                (0, MAX_PENDING_COMPUTE - 1)
            );
            port.advance(1);
            assert_eq!((port.clock.cycle, port.clock.pending_compute), (MAX_PENDING_COMPUTE, 0));
        });
    }

    /// A core with a ULI handler installed takes a sequenced poll once per
    /// 256 accumulated compute cycles, however they are split; a
    /// core without one never polls.
    #[test]
    fn a_handler_armed_core_polls_every_256_compute_cycles() {
        on_tiny_core(|port| {
            let grants = |port: &CorePort| port.shared.seq.total_grants();
            port.advance(10 * 256);
            assert_eq!(grants(port), 0, "no handler, no polls");
            port.set_uli_handler(Box::new(|_, _| unreachable!("nobody sends")));
            for chunk in [100, 100, 256 - 201] {
                port.advance(chunk);
            }
            assert_eq!(grants(port), 0, "one cycle short of a poll");
            port.advance(1);
            assert_eq!(grants(port), 1);
            for _ in 0..256 / 4 {
                port.advance(4);
            }
            assert_eq!(grants(port), 2);
            port.advance(3 * 256);
            assert_eq!(grants(port), 3, "one poll per opportunity, not per 256");
        });
    }

    /// A store into a full buffer stalls until the buffer's head completes,
    /// then issues.
    #[test]
    fn a_full_store_buffer_stalls_until_its_head_completes() {
        on_tiny_core(|port| {
            const RAW: u64 = 100;
            for i in 0..STORE_BUFFER_ENTRIES as u64 {
                assert_eq!(port.buffer_store(RAW), 1, "entry {i} only issues");
                port.charge(TimeCategory::Store, 1);
            }
            let (now, head) = (port.clock.cycle, 1 + RAW);
            assert_eq!(now, STORE_BUFFER_ENTRIES as u64);
            assert_eq!(port.buffer_store(RAW), head - now + 1);
        });
    }
}
