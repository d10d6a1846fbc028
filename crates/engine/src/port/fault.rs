//! The fault model's hooks: steal misses, crash, revival, the dead mask.

use bigtiny_mesh::CoreSet;

use super::CorePort;
use crate::breakdown::TimeCategory;
use crate::flight::FlightKind;

impl CorePort {
    /// Fault-injection hook for the runtime's victim selection: `true`
    /// forces this lookup to miss. Always `false` without an armed plan.
    pub fn fault_steal_miss(&mut self) -> bool {
        let miss = self.faults.on_steal_lookup();
        if miss {
            self.flight_note(FlightKind::FaultStealMiss);
        }
        miss
    }

    /// Whether fail-stop crashes are armed in this run's fault plan (on
    /// any core). Runtimes gate their crash-recovery machinery on this;
    /// `false` guarantees none of it runs and the golden path is
    /// bit-for-bit unchanged.
    pub fn crash_armed(&self) -> bool {
        self.faults.crash_armed()
    }

    /// Whether this core's scheduled fail-stop is due. A pure host-side
    /// check (no sequencing, no cycle charge): runtimes poll it at
    /// scheduler safe points — never inside a ULI handler or while holding
    /// a simulated lock — and take the crash with [`CorePort::crash_now`].
    pub fn crash_pending(&self) -> bool {
        !self.in_handler && self.faults.crash_pending(self.now())
    }

    /// Takes this core's fail-stop: a sequenced operation that marks the
    /// core's ULI unit dead (all future steal requests answer
    /// [`UliOutcome::Dead`](bigtiny_mesh::UliOutcome)) and records the
    /// crash. The caller — the runtime's scheduler loop — then unwinds its
    /// own task frames and either retires the core (permanent crash) or
    /// goes dormant until [`CorePort::revive_now`].
    pub fn crash_now(&mut self) {
        self.seq(None, |st, now, core| st.uli.set_dead(core, now), |_| None);
        self.rec.note(self.clock.cycle, FlightKind::Crash);
        self.faults.note_crashed();
        // A crash is liveness-relevant: survivors need watchdog budget to
        // observe it and run recovery.
        self.mark_progress();
    }

    /// Revives this core after a crash (the `revive_after_cycles`
    /// rejoin): a sequenced operation clearing the dead flag. The runtime
    /// then re-enters its scheduler loop as a fresh worker.
    pub fn revive_now(&mut self) {
        self.seq(None, |st, _, core| st.uli.set_alive(core), |_| None);
        self.rec.note(self.clock.cycle, FlightKind::Revive);
        self.mark_progress();
    }

    /// Cycles after its crash at which this core revives (0 = permanent).
    pub fn revive_after(&self) -> u64 {
        self.faults.revive_after()
    }

    /// Sequenced read of the dead-core set (every core that has
    /// fail-stopped, with no 64-core ceiling). The universal crash
    /// observer: survivors poll this in their wait loops to detect deaths
    /// even on runtimes that never send ULIs. Charges one idle cycle,
    /// like [`CorePort::is_done`].
    pub fn dead_mask(&mut self) -> CoreSet {
        let m = self.seq(None, |st, _, _| st.uli.dead_mask(), |_| None);
        self.charge(TimeCategory::Idle, 1);
        m
    }
}
