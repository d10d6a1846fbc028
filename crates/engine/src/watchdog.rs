//! Liveness watchdog and crash-consistent diagnostics.
//!
//! A hung simulation — a livelocked steal loop, a task waiting on a child
//! that is never spawned, a lost ULI — used to hang `cargo test` forever.
//! The watchdog turns a hang into a diagnosed failure:
//!
//! * **Sequenced-op budget** (deterministic): the runtime marks *progress*
//!   (a task executed, a steal completed, completion signalled) through
//!   [`CorePort::mark_progress`](crate::CorePort::mark_progress). If more
//!   than `budget` sequencer grants happen with no progress mark, every
//!   core is demonstrably spinning and the run is declared stuck. Because
//!   grants are counted in simulated order, the trip point is bit-for-bit
//!   reproducible.
//! * **Wall-clock fallback** (safety net): a monitor thread beside the
//!   cores that sees a core wait for the token through a whole `wall_ms`
//!   window with no grant and no productive local work anywhere trips the
//!   watchdog even if the token holder never re-enters the sequencer
//!   (e.g. an accidental host-level deadlock). This path is inherently
//!   non-deterministic and exists only to guarantee termination.
//!
//! On a trip the sequencer is poisoned with [`PoisonReason::Watchdog`],
//! every core thread unwinds, and [`run_system`](crate::run_system)
//! panics with a rendered [`DiagnosticBundle`]: per-core clocks,
//! instruction counts, sequencer state, in-flight ULI state, and the last
//! few trace events per core (when tracing is enabled).
//!
//! The watchdog is **off by default** ([`SystemConfig::watchdog_budget`]
//! `= None`): golden-path runs are untouched.

use bigtiny_mesh::UliCoreState;

use crate::breakdown::TimeCategory;
use crate::flight::FlightEvent;
use crate::port::PortReport;
use crate::sync::Mutex;
use crate::trace::TraceEvent;

/// Prefix of the panic message raised when the watchdog trips. Callers
/// (e.g. the runtime layer) match on this to recognise a watchdog abort
/// and enrich the diagnostic before re-raising.
pub const WATCHDOG_MSG: &str = "watchdog: simulation made no progress within its budget";

/// Why the sequencer was poisoned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PoisonReason {
    /// A worker closure panicked.
    WorkerPanic,
    /// The liveness watchdog tripped on `core` at simulated time `time`.
    Watchdog {
        /// Core holding the token when the budget ran out.
        core: usize,
        /// That core's simulated time at the trip.
        time: u64,
    },
}

/// Watchdog parameters, derived from
/// [`SystemConfig`](crate::SystemConfig).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WatchdogConfig {
    /// Maximum sequencer grants between progress marks.
    pub budget: u64,
    /// Wall-clock fallback: a core waiting this long with no grants and no
    /// productive local work anywhere trips the watchdog regardless of the
    /// budget.
    pub wall_ms: u64,
}

/// One core's sequencer-level state at the moment of a trip.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SeqCoreDiag {
    /// Simulated time at which the core is parked waiting for the token
    /// (`None` if it is running or retired).
    pub waiting_at: Option<u64>,
    /// Total token grants to this core.
    pub grants: u64,
    /// Simulated time of the core's last grant.
    pub last_time: u64,
    /// Whether the core's worker returned.
    pub retired: bool,
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
        CoreDiag {
            core,
            clock: report.clock,
            instructions: report.instructions,
            idle_cycles: report.breakdown.get(TimeCategory::Idle)
                + report.breakdown.get(TimeCategory::UliWait),
            seq,
            uli,
            last_events: report.trace.iter().rev().take(DIAG_LAST_EVENTS).rev().copied().collect(),
            flight_tail: report.flight.clone(),
            flight_total: report.flight_total,
        }
    }
}

/// How many bundles the engine-global black-box ring retains.
const BUNDLE_RING: usize = 16;

/// Engine-global ring of the most recent [`DiagnosticBundle`]s. A watchdog
/// trip surfaces as a *panic* out of [`run_system`](crate::run_system), so
/// the bundle itself would be lost to the caller (the panic payload is a
/// rendered string); the engine records it here first, and harnesses that
/// caught the panic retrieve it with [`last_bundle_for`] to write a
/// black-box dump. Bounded and process-wide; entries are keyed by config
/// name so concurrent tests do not race each other's retrievals.
fn bundle_ring() -> &'static Mutex<Vec<DiagnosticBundle>> {
    static RING: std::sync::OnceLock<Mutex<Vec<DiagnosticBundle>>> = std::sync::OnceLock::new();
    RING.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records `bundle` in the engine-global black-box ring (called by
/// `run_system` before it panics with the rendered bundle).
pub(crate) fn record_bundle(bundle: DiagnosticBundle) {
    let mut ring = bundle_ring().lock();
    if ring.len() >= BUNDLE_RING {
        ring.remove(0);
    }
    ring.push(bundle);
}

/// The most recently recorded [`DiagnosticBundle`] whose config name is
/// `config_name`, if any. Non-destructive: repeated calls return the same
/// bundle, and bundles from other configurations (e.g. parallel tests) are
/// left untouched.
pub fn last_bundle_for(config_name: &str) -> Option<DiagnosticBundle> {
    bundle_ring().lock().iter().rev().find(|b| b.config_name == config_name).cloned()
}

/// The most recently recorded [`DiagnosticBundle`] from any run in this
/// process, if any. Prefer [`last_bundle_for`] when the config name is
/// known (it is immune to interleaving from concurrent runs).
pub fn last_bundle() -> Option<DiagnosticBundle> {
    bundle_ring().lock().last().cloned()
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
