#![warn(missing_docs)]

//! A TBB/Cilk-like work-stealing runtime for heterogeneous cache-coherent
//! systems — the Rust reproduction of the core contribution of
//! *"Efficiently Supporting Dynamic Task Parallelism on Heterogeneous
//! Cache-Coherent Systems"* (ISCA 2020).
//!
//! The runtime runs *inside the simulator*: every deque access, reference
//! count update, lock, `cache_invalidate`/`cache_flush`, and user-level
//! interrupt is a simulated operation with modelled latency and coherence
//! behaviour. Three variants are provided, transcribed from the paper's
//! Figure 3:
//!
//! * [`RuntimeKind::Baseline`] for hardware-based coherence,
//! * [`RuntimeKind::Hcc`] with the extra invalidate/flush protocol for
//!   software-centric coherence, and
//! * [`RuntimeKind::Dts`] — **direct task stealing** over user-level
//!   interrupts, with the `has_stolen_child` optimizations of Section IV.
//!
//! Applications use the TBB-like API of Figure 2: [`TaskCx::spawn`] /
//! [`TaskCx::wait`], or the patterns [`parallel_invoke`] and
//! [`parallel_for`].
//!
//! # Example: parallel Fibonacci (Figure 2 of the paper)
//!
//! ```
//! use bigtiny_core::{parallel_invoke, run_task_parallel, RuntimeConfig, RuntimeKind, TaskCx};
//! use bigtiny_engine::{AddrSpace, Protocol, ShVec, SystemConfig};
//! use std::sync::Arc;
//!
//! fn fib(cx: &mut TaskCx<'_>, out: Arc<ShVec<u64>>, slot: usize, n: u64) {
//!     cx.port().advance(4);
//!     if n < 2 {
//!         out.write(cx.port(), slot, n);
//!         return;
//!     }
//!     // Two fresh result slots for the children (x, y in the paper).
//!     let (a, b) = (Arc::clone(&out), Arc::clone(&out));
//!     let (sa, sb) = (2 * slot + 1, 2 * slot + 2);
//!     parallel_invoke(
//!         cx,
//!         move |cx| fib(cx, a, sa, n - 1),
//!         move |cx| fib(cx, b, sb, n - 2),
//!     );
//!     let x = out.read(cx.port(), sa);
//!     let y = out.read(cx.port(), sb);
//!     out.write(cx.port(), slot, x + y);
//! }
//!
//! let sys = SystemConfig::big_tiny(
//!     "demo",
//!     bigtiny_mesh::MeshConfig::with_topology(bigtiny_mesh::Topology::new(2, 2)),
//!     1, 3, Protocol::GpuWb);
//! let cfg = RuntimeConfig::new(RuntimeKind::Dts);
//! let mut space = AddrSpace::new();
//! let out = Arc::new(ShVec::new(&mut space, 1 << 8, 0u64));
//! let o = Arc::clone(&out);
//! let run = run_task_parallel(&sys, &cfg, &mut space, move |cx| fib(cx, o, 0, 7));
//! assert_eq!(out.host_read(0), 13);
//! assert_eq!(run.report.stale_reads, 0);
//! ```

mod config;
mod deque;
mod patterns;
mod runtime;
mod task;
mod telemetry;

pub use config::{
    DequeKind, Mutation, MutationKind, RuntimeConfig, RuntimeKind, RuntimeStats, VictimPolicy,
};
pub use deque::SimDeque;
pub use patterns::{parallel_for, parallel_invoke, parallel_invoke3};
pub use runtime::{run_task_parallel, TaskCx, TaskRun};
pub use task::{TaskBody, TaskId, TaskProfile, TaskRecord, WorkSpan};
pub use telemetry::{
    Log2Histogram, StealTelemetry, TaskEvent, TaskEventKind, TaskFault, TaskLedger, TaskLife,
    VictimCounters,
};
