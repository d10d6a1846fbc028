#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine for big.TINY systems.
//!
//! This crate assembles the substrates of the ISCA 2020 big.TINY
//! reproduction — the [`bigtiny_coherence`] heterogeneous memory system and
//! the [`bigtiny_mesh`] networks — into a runnable machine:
//!
//! * [`SystemConfig`] describes a machine, with constructors for every named
//!   configuration the paper evaluates (`O3x{1,4,8}`, `big.TINY/MESI`,
//!   `big.TINY/HCC-{dnv,gwt,gwb}`, the 256-core system).
//! * [`run_system`] executes one worker closure per core. Each worker drives
//!   its core through a [`CorePort`]: compute, simulated loads/stores/AMOs,
//!   bulk cache operations, and user-level interrupts. Execution is
//!   serialized in simulated-time order by a min-time token
//!   scheduler, making runs bit-for-bit deterministic.
//! * [`ShVec`]/[`ShScalar`] pair real Rust values with simulated addresses
//!   so applications stay functionally checkable while producing accurate
//!   memory traffic.
//! * [`RunReport`] carries everything the paper's figures need: cycles,
//!   per-core time breakdowns, cache hit rates, invalidation/flush counts,
//!   per-category network traffic, and ULI statistics.
//!
//! # Example
//!
//! ```
//! use bigtiny_engine::{run_system, AddrSpace, ShVec, SystemConfig, Worker};
//! use std::sync::Arc;
//!
//! let config = SystemConfig::o3(1);
//! let mut space = AddrSpace::new();
//! let data = Arc::new(ShVec::from_vec(&mut space, vec![1u64, 2, 3, 4]));
//! let d = Arc::clone(&data);
//! let workers: Vec<Worker> = vec![Box::new(move |port| {
//!     let mut sum = 0;
//!     for i in 0..d.len() {
//!         sum += d.read(port, i);
//!     }
//!     assert_eq!(sum, 10);
//!     port.set_done();
//! })];
//! let report = run_system(&config, workers);
//! assert!(report.completion_cycles > 0);
//! ```

mod breakdown;
mod config;
mod energy;
mod event;
mod fault;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod fiber;
mod flight;
pub mod hash;
mod host;
mod port;
mod sequencer;
mod space;
pub mod sync;
mod system;
mod trace;
mod watchdog;

pub use breakdown::{TimeBreakdown, TimeCategory, TIME_CATEGORIES};
pub use config::{CoreConfig, CoreKind, ExecBackend, SchedulePolicy, SystemConfig};
pub use energy::EnergyReport;
pub use event::{CheckMode, MemEvent, MemOp, RacyTag, SyncNote};
pub use fault::{FaultCounters, FaultPlan, Knob, Role};
pub use flight::{
    FlightEvent, FlightKind, FlightRing, Heartbeat, HeartbeatSnap, DEFAULT_FLIGHT_CAPACITY,
};
pub use host::backend_label;
pub use port::{AttrSpan, CorePort, UliHandler, UliWait};
pub use sequencer::{
    ChoicePoint, PollOp, PollPlan, PollState, PollWake, Section, Sequencer, POLL_SPIN_CYCLES,
};
pub use space::{AddrSpace, ShScalar, ShVec};
pub use system::{merge_by_key, run_system, try_run_system, RunReport, UliReport, Worker};
pub use trace::{render_timeline, TraceEvent, UliMark, UliMarkKind};
pub use watchdog::{
    panic_message, CoreDiag, DiagnosticBundle, PoisonReason, RunFailure, SeqCoreDiag,
    MAX_IDLE_CHARGES, WATCHDOG_MSG,
};

// Re-export the vocabulary types callers need alongside the engine.
pub use bigtiny_coherence::{Addr, CoreMemStats, Protocol};
pub use bigtiny_mesh::{CoreSet, TrafficClass, UliCoreState, UliMessage, UliOutcome, XorShift64};
