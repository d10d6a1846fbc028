//! The [`Recorder`]: one core's recording channels, written in one place.
//! Each protocol point is one call that writes every armed channel. A hook
//! stores clocks and ids the simulation already computed, never sequences
//! or charges, and a disarmed channel is one never-taken branch: arming is
//! invisible to simulated timing (golden-pinned by `armed_observability`).

use std::sync::Arc;

use bigtiny_mesh::UliOutcome;

use super::CorePort;
use crate::breakdown::{TimeBreakdown, TimeCategory};
use crate::config::SystemConfig;
use crate::event::{MemEvent, MemOp, SyncNote};
use crate::fault::{FaultCounters, UliSendFault};
use crate::flight::{FlightEvent, FlightKind, FlightRing, LiveCounters};
use crate::sequencer::Sequencer;
use crate::system::GlobalState;
use crate::trace::{TraceEvent, UliMark, UliMarkKind};

/// One contiguous stretch of a core's timeline attributed to a single task
/// (or to no task — scheduler time between tasks: steal loops, idling,
/// runtime bookkeeping). Recorded when [`crate::SystemConfig::attr`] is
/// armed; the spans of one core tile its timeline without gaps or overlap,
/// and each span carries the [`TimeBreakdown`] of exactly its interval, so
/// summing span breakdowns reproduces the core's report breakdown.
#[derive(Clone, Debug)]
pub struct AttrSpan {
    /// The task this interval's cycles belong to, or `None` for scheduler
    /// time outside any task body.
    pub task: Option<u32>,
    /// First cycle of the interval (inclusive).
    pub start: u64,
    /// One past the last cycle of the interval (`end - start` cycles).
    pub end: u64,
    /// Where the interval's cycles went; totals exactly `end - start`.
    pub breakdown: TimeBreakdown,
}

/// The open attribution span's owner plus the clock/breakdown snapshot at
/// its start.
#[derive(Default)]
struct AttrState {
    current: Option<u32>,
    mark_clock: u64,
    mark_breakdown: TimeBreakdown,
    spans: Vec<AttrSpan>,
}

/// One core's recording channels; `None` or a capacity-0 ring is disarmed.
pub(super) struct Recorder {
    core: usize,
    trace: Option<Vec<TraceEvent>>,
    uli_marks: Option<Vec<UliMark>>,
    /// Checker events, each stamped with its sequenced op's grant counter
    /// (`last_stamp`, read under the token): the engine merges per-core
    /// buffers by it under a `Scripted` policy, whose ties are not broken
    /// by core id. Annotations take the stamp of the op they ride on.
    events: Option<Vec<(u64, MemEvent)>>,
    last_stamp: u64,
    attr: Option<AttrState>,
    flight: FlightRing,
    live: Option<Arc<LiveCounters>>,
}

impl Recorder {
    pub(super) fn new(core: usize, config: &SystemConfig, live: Option<Arc<LiveCounters>>) -> Self {
        Recorder {
            core,
            trace: config.trace.then(Vec::new),
            uli_marks: config.trace.then(Vec::new),
            events: config.check.armed().then(Vec::new),
            last_stamp: 0,
            attr: config.attr.then(AttrState::default),
            flight: FlightRing::new(config.flight_ring),
            live,
        }
    }

    /// A sequenced op granted at `clock`, recorded under the token: no
    /// other core is granted until this core's next `enter`, so heartbeat
    /// reads and the grant stamp are functions of the grant stream.
    #[inline]
    pub(super) fn grant(
        &mut self,
        seq: &Sequencer<GlobalState>,
        clock: u64,
        breakdown: &TimeBreakdown,
        faults: &FaultCounters,
    ) {
        self.flight.record(clock, FlightKind::Grant);
        if let Some(live) = &self.live {
            live.publish(self.core, clock, breakdown, faults);
        }
        if self.events.is_some() {
            self.last_stamp = seq.total_grants();
        }
    }

    /// The checker event `op_of` names at `cycle`, stamped with the last
    /// grant; `op_of` runs only when events are armed.
    #[inline]
    pub(super) fn event(&mut self, cycle: u64, op_of: impl FnOnce() -> Option<MemOp>) {
        if let Some(ev) = self.events.as_mut() {
            if let Some(op) = op_of() {
                ev.push((self.last_stamp, MemEvent { cycle, core: self.core, op }));
            }
        }
    }

    /// `cycles` from `start` spent in `cat`.
    #[inline]
    pub(super) fn book(&mut self, start: u64, cat: TimeCategory, cycles: u64) {
        if let Some(t) = self.trace.as_mut() {
            if cycles > 0 {
                t.push(TraceEvent { start, cycles, category: cat });
            }
        }
    }

    /// A flight-ring-only event at `time`.
    #[inline]
    pub(super) fn note(&mut self, time: u64, kind: FlightKind) {
        self.flight.record(time, kind);
    }

    /// A ULI protocol point: its trace mark at `cycle`, the point's
    /// architectural time, and its ring entry at the core's `clock` — later
    /// if entering the sequencer dispatched a handler first; the ring stays
    /// sorted. A request entering the handler is also a checker event.
    pub(super) fn uli(&mut self, cycle: u64, clock: u64, kind: UliMarkKind) {
        if let Some(m) = self.uli_marks.as_mut() {
            m.push(UliMark { cycle, kind });
        }
        let flight = match kind {
            UliMarkKind::ReqSend { to } => FlightKind::UliReqSend { to },
            UliMarkKind::ReqRecv { from } => FlightKind::UliReqRecv { from },
            UliMarkKind::ReqLost { .. } => FlightKind::FaultRxDrop,
            UliMarkKind::RespSend { to } => FlightKind::UliRespSend { to },
            UliMarkKind::RespRecv { from } => FlightKind::UliRespRecv { from },
        };
        self.flight.record(clock, flight);
        if let UliMarkKind::ReqRecv { from } = kind {
            self.event(clock, || Some(MemOp::Sync(SyncNote::HandlerEnter { from })));
        }
    }

    /// A steal request for `to` granted at `send_cycle`, with the fault
    /// injected into it and the network's answer. Every send the network
    /// accepts is marked, a delayed one too: its victim will receive it.
    pub(super) fn req_sent(
        &mut self,
        send_cycle: u64,
        clock: u64,
        to: usize,
        fault: UliSendFault,
        out: UliOutcome,
    ) {
        match fault {
            UliSendFault::None if out == UliOutcome::Sent => {
                self.uli(send_cycle, clock, UliMarkKind::ReqSend { to })
            }
            UliSendFault::None => {}
            UliSendFault::Drop => self.note(clock, FlightKind::FaultUliDrop),
            UliSendFault::Nack => self.note(clock, FlightKind::FaultUliNack),
            UliSendFault::Delay(extra) => {
                if let (Some(m), UliOutcome::Sent) = (self.uli_marks.as_mut(), out) {
                    m.push(UliMark { cycle: send_cycle, kind: UliMarkKind::ReqSend { to } });
                }
                self.note(clock, FlightKind::FaultUliDelay { extra });
            }
        }
        match out {
            UliOutcome::Nack { .. } => self.note(clock, FlightKind::UliNack { to }),
            UliOutcome::Dead { .. } => self.note(clock, FlightKind::UliDead { to }),
            UliOutcome::Sent => {}
        }
    }

    /// Closes the open attribution span at `at` (empty spans are dropped)
    /// and opens one owned by `task`; returns the previous owner, or `None`
    /// when disarmed. `breakdown` is the core's breakdown at `at`.
    fn attr_switch(&mut self, at: u64, breakdown: TimeBreakdown, task: Option<u32>) -> Option<u32> {
        let a = self.attr.as_mut()?;
        let prev = a.current;
        if at > a.mark_clock {
            let breakdown = breakdown.diff(&a.mark_breakdown);
            a.spans.push(AttrSpan { task: prev, start: a.mark_clock, end: at, breakdown });
        }
        a.current = task;
        a.mark_clock = at;
        a.mark_breakdown = breakdown;
        prev
    }

    /// Everything recorded, the final attribution span closed at `clock`.
    pub(super) fn finish(mut self, clock: u64, breakdown: TimeBreakdown) -> Recording {
        self.attr_switch(clock, breakdown, None);
        Recording {
            trace: self.trace.unwrap_or_default(),
            uli_marks: self.uli_marks.unwrap_or_default(),
            events: self.events.unwrap_or_default(),
            attr_spans: self.attr.map(|a| a.spans).unwrap_or_default(),
            flight_total: self.flight.total(),
            flight: self.flight.tail(),
        }
    }
}

/// What one core's recording channels captured (empty where disarmed): the
/// stamped checker events, and the flight-ring tail of `flight_total`.
pub(crate) struct Recording {
    pub trace: Vec<TraceEvent>,
    pub uli_marks: Vec<UliMark>,
    pub events: Vec<(u64, MemEvent)>,
    pub attr_spans: Vec<AttrSpan>,
    pub flight: Vec<FlightEvent>,
    pub flight_total: u64,
}

impl CorePort {
    /// Records one event on this core's flight recorder at the current
    /// local clock. Observation-only: never sequences, never charges a
    /// cycle — runtimes call this from their scheduler hooks (task
    /// lifecycle, steal attempts, deque operations) without perturbing
    /// simulated state. With a capacity-0 ring this is one never-taken
    /// branch.
    #[inline]
    pub fn flight_note(&mut self, kind: FlightKind) {
        let t = self.now();
        self.rec.note(t, kind);
    }

    /// Inserts a zero-cost synchronization annotation into the checker
    /// event stream (deque acquire/release, `has_stolen_child`
    /// transitions). Pure metadata: takes no sequencer grant, charges no
    /// cycles, and compiles to a never-taken branch when checking is off —
    /// so annotating the runtime cannot perturb any golden hash.
    pub fn annotate_sync(&mut self, note: SyncNote) {
        let t = self.now();
        self.rec.event(t, || Some(MemOp::Sync(note)));
    }

    /// Switches the open attribution span to `task`, returning the previous
    /// owner so callers can save/restore around nested task execution.
    /// Closes the span in flight at the current clock (empty spans are
    /// dropped) and opens a new one. Never sequences, never charges, and
    /// reads the clock and breakdown *with* coalesced compute folded in
    /// (without flushing it), so arming attribution is bit-for-bit
    /// invisible to simulated timing. Returns `None` when disarmed.
    pub fn attr_switch(&mut self, task: Option<u32>) -> Option<u32> {
        let (now, breakdown) = (self.now(), self.breakdown());
        self.rec.attr_switch(now, breakdown, task)
    }

    /// Closes and reopens the current attribution span at the current
    /// clock without changing its owner. Called at task-lifecycle event
    /// points so every recorded event cycle is also a span boundary — the
    /// DAG replay can then apportion a task's cycles across its events
    /// exactly, never splitting a span.
    #[inline]
    pub fn attr_mark(&mut self) {
        if let Some(task) = self.rec.attr.as_ref().map(|a| a.current) {
            self.attr_switch(task);
        }
    }
}

#[cfg(test)]
mod tests {
    /// Recording knowledge stays here: outside this file, no non-test
    /// `port/` code names a recording slot or builds a record — the other
    /// files call the [`Recorder`](super::Recorder) at their protocol
    /// points instead.
    #[test]
    fn only_the_recorder_writes_a_channel() {
        const SLOT_NAMES: [&str; 8] = [
            "TraceEvent {",
            "UliMark {",
            "FlightRing",
            "LiveCounters",
            "AttrSpan {",
            "last_stamp",
            ".flight.",
            ".uli_marks",
        ];
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src/port");
        let mut named = Vec::new();
        for entry in std::fs::read_dir(dir).expect("port directory") {
            let path = entry.expect("directory entry").path();
            let file = path.file_name().expect("file name").to_string_lossy().into_owned();
            if file == "record.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("source is readable");
            let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or_default();
            for line in code.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
                if SLOT_NAMES.iter().any(|name| line.contains(name)) {
                    named.push(format!("{file}: {line}"));
                }
            }
        }
        assert_eq!(named, Vec::<String>::new(), "record through the Recorder (record.rs)");
    }
}
