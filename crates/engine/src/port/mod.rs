//! The per-core operation interface.
//!
//! A [`CorePort`] is handed to each worker closure and is the only way to
//! act on the simulated machine: compute, loads/stores/AMOs on simulated
//! addresses, bulk cache operations, and user-level interrupts. Every
//! operation advances the core's local clock; operations on shared state are
//! serialized by the global [`Sequencer`](crate::sequencer::Sequencer) in
//! simulated-time order.
//!
//! Split along the paper's seams (DESIGN §3.1.3, "The core port"): `clock`,
//! `mem`, `uli`, `fault`, and `record`, the one writer of every channel.
//!
//! **Locking discipline:** a sequenced operation may park the calling
//! thread until its simulated turn. Never hold a lock (or a guard
//! temporary) across a `CorePort` call — bind values out of guards first —
//! or a token holder blocking on that lock deadlocks the simulation. The
//! same rule binds the port itself: the [`Section`](crate::sequencer::Section)
//! guard a sequenced operation holds *is* the sequencer lock, so it is
//! dropped before a ULI handler is dispatched — the handler's own sequenced
//! operations re-enter the sequencer on this thread.
//!
//! ULIs are delivered at instruction boundaries: every sequenced operation
//! checks (inside the same critical section, at no extra cost) whether an
//! enabled ULI request has arrived, and if so invokes the installed handler
//! after charging the architectural interrupt cost.

mod clock;
mod fault;
mod mem;
mod record;
mod uli;

use std::sync::Arc;

use bigtiny_mesh::XorShift64;

use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::config::{CoreKind, SystemConfig};
use crate::event::MemOp;
use crate::fault::{FaultCounters, FaultState};
use crate::sequencer::{PollOp, Section};
use crate::system::{GlobalState, Shared};

use clock::Clock;
pub use record::AttrSpan;
use record::Recorder;
pub(crate) use record::Recording;
pub use uli::{UliHandler, UliWait};

/// Handle through which a worker drives one simulated core.
pub struct CorePort {
    core: usize,
    kind: CoreKind,
    num_cores: usize,
    clock: Clock,
    instructions: u64,
    rec: Recorder,
    rng: XorShift64,
    faults: FaultState,
    shared: Arc<Shared>,
    handler: Option<UliHandler>,
    in_handler: bool,
}

impl std::fmt::Debug for CorePort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorePort")
            .field("core", &self.core)
            .field("kind", &self.kind)
            .field("clock", &self.clock.cycle)
            .finish_non_exhaustive()
    }
}

impl CorePort {
    /// The port of `core` in a system configured by `config`, with every
    /// recording channel the configuration arms. Built by the launching
    /// thread; the port then moves into the core's own thread or fiber.
    pub(crate) fn new(core: usize, config: &SystemConfig, shared: &Arc<Shared>) -> Self {
        let kind = config.cores[core].kind;
        // Only tiny cores other than core 0 are crash-eligible: core 0 runs
        // the program's root task, and the paper's big cores are the
        // reliable hosts of last resort.
        let crash_eligible = kind == CoreKind::Tiny && core != 0;
        CorePort {
            core,
            kind,
            num_cores: config.num_cores(),
            clock: Clock::default(),
            instructions: 0,
            rec: Recorder::new(core, config, shared.live.clone()),
            rng: XorShift64::new(config.seed ^ (core as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)),
            faults: FaultState::new(config.faults.clone(), core, crash_eligible),
            shared: Arc::clone(shared),
            handler: None,
            in_handler: false,
        }
    }

    /// This core's id.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Number of cores in the system.
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// This core's microarchitecture class.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// Instructions retired so far (used for work/span accounting).
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Deterministic per-core random value in `0..bound`.
    pub fn rng_below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// The one sequenced-op entry point: runs `f` under the token — in the
    /// section entered for it, or in one the caller `held` for this op at
    /// the current clock (a parked poll's wake-up grant) — records `op_of`'s
    /// checker event, then delivers at most one ULI observed in the same
    /// section. The event is recorded *before* that delivery, or a
    /// handler's own events would precede the op that admitted it.
    #[inline]
    fn seq<R>(
        &mut self,
        held: Option<Section<'_, GlobalState>>,
        f: impl FnOnce(&mut GlobalState, u64, usize) -> R,
        op_of: impl FnOnce(&R) -> Option<MemOp>,
    ) -> R {
        self.flush_compute();
        let check_uli = self.takes_requests();
        let (r, msg) = {
            let mut st = match held {
                Some(st) => st,
                None => self.shared.seq.enter(self.core, self.clock.cycle),
            };
            let at = self.clock.cycle;
            self.rec.grant(&self.shared.seq, at, &self.clock.breakdown, &self.faults.counters);
            let r = f(&mut st, at, self.core);
            let msg = if check_uli { st.uli.take_request(self.core, at) } else { None };
            (r, msg)
        };
        self.rec.event(self.clock.cycle, || op_of(&r));
        // Every sequenced operation is a ULI-delivery opportunity, and
        // ends an idle spin.
        self.clock.compute_since_poll = 0;
        self.clock.idle_charges = 0;
        if let Some(m) = msg {
            self.deliver_uli(m);
        }
        r
    }

    /// Signals global completion (called by the main worker when the
    /// program's root task finishes).
    pub fn set_done(&mut self) {
        self.seq(
            None,
            |st, now, _| {
                st.done = true;
                st.done_time = st.done_time.max(now);
            },
            |_| None,
        );
        self.mark_progress();
    }

    /// Tells the liveness watchdog that real forward progress happened
    /// (a task executed, a steal completed). Free when no watchdog is
    /// armed; never affects simulated timing.
    pub fn mark_progress(&mut self) {
        self.shared.seq.mark_progress();
    }

    /// Whether global completion has been signalled.
    pub fn is_done(&mut self) -> bool {
        self.is_done_in(None)
    }

    fn is_done_in(&mut self, held: Option<Section<'_, GlobalState>>) -> bool {
        let d = self.seq(held, |st, _, _| st.done, |_| None);
        self.charge(TimeCategory::Idle, PollOp::Done.cycles());
        d
    }

    pub(crate) fn into_report(mut self) -> PortReport {
        // Terminal flush: fold any coalesced compute without the poison
        // poll — report assembly runs after a worker has already unwound,
        // and panicking here again would lose the report (and abort the
        // process on the fiber backend).
        let pending = std::mem::take(&mut self.clock.pending_compute);
        self.book(TimeCategory::Compute, pending);
        PortReport {
            clock: self.clock.cycle,
            breakdown: self.clock.breakdown,
            instructions: self.instructions,
            faults: self.faults.counters,
            recording: self.rec.finish(self.clock.cycle, self.clock.breakdown),
        }
    }
}

/// Everything one core hands back to the system driver, including partial
/// state from a panicked or watchdog-aborted worker.
pub(crate) struct PortReport {
    pub clock: u64,
    pub breakdown: TimeBreakdown,
    pub instructions: u64,
    pub faults: FaultCounters,
    pub recording: Recording,
}
