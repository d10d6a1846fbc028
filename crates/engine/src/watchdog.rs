//! Liveness watchdog and crash-consistent diagnostics.
//!
//! A hung simulation — a livelocked steal loop, a task waiting on a child
//! that is never spawned, a lost ULI — used to hang `cargo test` forever.
//! The watchdog turns a hang into a diagnosed failure. It has two rules,
//! and both count in simulated order, so the trip point — which core, at
//! which cycle — is bit-for-bit reproducible across reruns and backends:
//!
//! * **Sequenced-op budget**: the runtime marks *progress* (a task
//!   executed, a steal completed, completion signalled) through
//!   [`CorePort::mark_progress`](crate::CorePort::mark_progress). If more
//!   than `budget` sequencer grants happen with no progress mark, every
//!   core is demonstrably spinning and the run is declared stuck.
//! * **Idle spins**: a core that charges idle time more than
//!   [`MAX_IDLE_CHARGES`] times since its last sequenced op is stuck: idle
//!   cycles pass only while a core waits on sequenced state, which cannot
//!   change without a grant. Its own port trips the run, on that core.
//!
//! On a trip the sequencer is poisoned with [`PoisonReason::Watchdog`],
//! every core unwinds, and [`try_run_system`](crate::try_run_system)
//! hands its caller a [`RunFailure`] in place of the report. It carries a
//! [`DiagnosticBundle`]: per-core clocks, instruction counts, sequencer
//! state, in-flight ULI state, and the last few trace events per core
//! (when tracing is enabled). [`run_system`](crate::run_system) panics
//! with the failure rendered.
//!
//! The watchdog is **off by default** ([`SystemConfig::watchdog_budget`]
//! `= None`): golden-path runs are untouched.

use std::any::Any;

use bigtiny_mesh::UliCoreState;

use crate::breakdown::TimeCategory;
use crate::flight::FlightEvent;
use crate::port::PortReport;
use crate::trace::TraceEvent;

/// First line of a rendered watchdog [`RunFailure`], and so of the panic
/// message of a trip that nobody catches.
pub const WATCHDOG_MSG: &str = "watchdog: simulation made no progress within its budget";

/// Idle charges a core may make between two of its sequenced ops before an
/// armed watchdog trips on it. A constant, not a knob: a real run makes at
/// most a handful, since every runtime idle loop takes a grant per round.
pub const MAX_IDLE_CHARGES: u64 = 1 << 16;

/// Why the sequencer was poisoned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoisonReason {
    /// A worker closure panicked.
    WorkerPanic,
    /// The liveness watchdog tripped on `core` at simulated time `time`.
    Watchdog {
        /// The core that tripped: the grantee of the grant that ran the
        /// budget out, or the core that spun idle too long.
        core: usize,
        /// That core's simulated time at the trip.
        time: u64,
    },
}

/// One core's sequencer-level state: a line of the crash bundle, taken at
/// the trip, and of the heartbeat strip, taken at a heartbeat grant.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SeqCoreDiag {
    /// Total token grants to this core.
    pub grants: u64,
    /// Simulated time of the core's last grant.
    pub last_time: u64,
    /// Whether the core's worker returned.
    pub retired: bool,
    /// Simulated time at which the core is parked waiting for the token
    /// (`None` if it is running or retired).
    pub waiting_at: Option<u64>,
}

/// One core's slice of the crash diagnostic.
#[derive(Clone, Debug)]
pub struct CoreDiag {
    /// Core id.
    pub core: usize,
    /// Final local clock.
    pub clock: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles spent idle (a spinning core is mostly idle/uli-wait).
    pub idle_cycles: u64,
    /// Sequencer-level state.
    pub seq: SeqCoreDiag,
    /// In-flight ULI state of the core's ULI unit.
    pub uli: UliCoreState,
    /// The last few trace events (empty unless tracing was enabled).
    pub last_events: Vec<TraceEvent>,
    /// The core's flight-recorder tail — the black box. Non-empty whenever
    /// the default always-on ring is not disabled.
    pub flight_tail: Vec<FlightEvent>,
    /// Events ever recorded on the core's ring.
    pub flight_total: u64,
}

/// Crash-consistent snapshot of a watchdog-aborted run, assembled after
/// every core thread has unwound (so no state is mid-update).
#[derive(Clone, Debug)]
pub struct DiagnosticBundle {
    /// The trip that produced this bundle.
    pub reason: PoisonReason,
    /// Name of the [`SystemConfig`](crate::SystemConfig) that ran.
    pub config_name: String,
    /// Host execution backend the run actually used (after `Auto`
    /// resolution): `threads` or `fibers`.
    pub backend: String,
    /// The run's fault plan as a [`FaultPlan::to_spec`](crate::FaultPlan)
    /// string (`"none"` when no faults were armed). Together with
    /// `config_name` and `backend` this makes the bundle a self-contained
    /// repro recipe.
    pub fault_spec: String,
    /// Per-core diagnostics.
    pub cores: Vec<CoreDiag>,
    /// Total ULI messages at the trip.
    pub uli_messages: u64,
    /// Total ULI NACKs at the trip.
    pub uli_nacks: u64,
    /// Total sequencer grants over the run.
    pub total_grants: u64,
}

/// How many trailing trace events each core contributes to a bundle.
pub(crate) const DIAG_LAST_EVENTS: usize = 8;

impl DiagnosticBundle {
    pub(crate) fn core_diag(
        core: usize,
        report: &PortReport,
        seq: SeqCoreDiag,
        uli: UliCoreState,
    ) -> CoreDiag {
        let rec = &report.recording;
        CoreDiag {
            core,
            clock: report.clock,
            instructions: report.instructions,
            idle_cycles: report.breakdown.get(TimeCategory::Idle)
                + report.breakdown.get(TimeCategory::UliWait),
            seq,
            uli,
            last_events: rec.trace.iter().rev().take(DIAG_LAST_EVENTS).rev().copied().collect(),
            flight_tail: rec.flight.clone(),
            flight_total: rec.flight_total,
        }
    }
}

/// A failed run, handed back to whoever started it in place of its
/// [`RunReport`](crate::RunReport).
#[derive(Debug)]
pub struct RunFailure {
    /// The crash-consistent snapshot, assembled after every core unwound.
    /// Its `reason` says whether the watchdog tripped or a worker panicked.
    pub bundle: Box<DiagnosticBundle>,
    /// The payload of the worker panic that failed the run; `None` when the
    /// watchdog tripped.
    pub panic: Option<Box<dyn Any + Send>>,
    /// What the layer that drove the workers knew at the failure (the task
    /// runtime's deques and counters), rendered after the bundle.
    pub state: String,
}

impl RunFailure {
    /// Ends the caller as an uncaught failure would: a worker panic resumes
    /// with its own payload, a watchdog trip panics with the failure
    /// rendered.
    pub fn raise(mut self) -> ! {
        match self.panic.take() {
            Some(payload) => std::panic::resume_unwind(payload),
            None => panic!("{self}"),
        }
    }
}

/// A worker panic renders as its own message; a watchdog trip as
/// [`WATCHDOG_MSG`], the bundle, then the runtime state.
impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.panic {
            Some(payload) => f.write_str(&panic_message(payload.as_ref())),
            None => write!(f, "{WATCHDOG_MSG}\n{}{}", self.bundle, self.state),
        }
    }
}

/// The text of a caught panic's payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or(payload.downcast_ref::<&str>().copied()).unwrap_or("non-string panic payload").into()
}

impl std::fmt::Display for DiagnosticBundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason {
            PoisonReason::Watchdog { core, time } => writeln!(
                f,
                "watchdog tripped on core {core} at cycle {time} after {} grants without progress",
                self.total_grants
            )?,
            PoisonReason::WorkerPanic => writeln!(f, "a worker panicked; partial state follows")?,
        }
        writeln!(
            f,
            "run: config={} backend={} faults={}",
            self.config_name, self.backend, self.fault_spec
        )?;
        writeln!(f, "uli: {} messages, {} nacks", self.uli_messages, self.uli_nacks)?;
        for c in &self.cores {
            // A fail-stopped core is *expected*-silent: its worker either
            // retired (permanent crash) or idles awaiting revival. Label it
            // distinctly from a hung core so the bundle reads correctly.
            let state = if c.uli.dead {
                if c.seq.retired {
                    "dead".to_owned()
                } else {
                    "dead(revivable)".to_owned()
                }
            } else if c.seq.retired {
                "retired".to_owned()
            } else if let Some(t) = c.seq.waiting_at {
                format!("waiting@{t}")
            } else {
                "running".to_owned()
            };
            write!(
                f,
                "core {:>3} [{state:<14}] clock={} insts={} idle={} grants={} last_grant@{}",
                c.core, c.clock, c.instructions, c.idle_cycles, c.seq.grants, c.seq.last_time
            )?;
            if c.uli.enabled {
                write!(f, " uli=on")?;
            }
            if let Some(from) = c.uli.pending_req_from {
                write!(f, " uli_req(from={from}@{})", c.uli.pending_req_arrives_at.unwrap_or(0))?;
            }
            if c.uli.pending_responses > 0 {
                write!(f, " uli_resp={}", c.uli.pending_responses)?;
            }
            if !c.last_events.is_empty() {
                let tail: Vec<String> = c
                    .last_events
                    .iter()
                    .map(|e| format!("{:?}@{}+{}", e.category, e.start, e.cycles))
                    .collect();
                write!(f, " tail=[{}]", tail.join(" "))?;
            }
            if !c.flight_tail.is_empty() {
                let shown: Vec<String> = c
                    .flight_tail
                    .iter()
                    .rev()
                    .take(4)
                    .rev()
                    .map(|e| format!("{}@{}", e.kind.label(), e.time))
                    .collect();
                write!(f, " box({})=[{}]", c.flight_total, shown.join(" "))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}
