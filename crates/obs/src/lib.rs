#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Unified observability for the big.TINY reproduction.
//!
//! Three pieces, all host-side and bit-for-bit invisible to simulated
//! cycles (the golden-trace pins in `tests/tests/golden_trace.rs` hold the
//! whole stack to that):
//!
//! * [`metrics_document`] — one schema-stable JSON document per harness
//!   invocation gathering time breakdowns, coherence counters, mesh
//!   traffic, ULI/fault/watchdog counters, and the scheduler's steal
//!   telemetry for every `(app, setup)` run (`eval_all --metrics-out`).
//! * [`export_chrome_trace`] / [`validate_chrome_trace`] — Chrome
//!   trace-event export of core spans, task lifetimes, and ULI flow
//!   arrows, loadable in `ui.perfetto.dev` (`eval_all --trace-out`), with
//!   a structural validator CI gates on.
//! * [`Json`] / [`parse_json`] — the dependency-free nested JSON value,
//!   strict parser, and deterministic serializer underneath both.
//! * [`replay`] / [`WhatIf`] — the critical-path profiler: cycle-accurate
//!   work/span analysis replayed over the task DAG from lifecycle events
//!   and per-task attribution spans, the cycle-conservation table, and
//!   what-if projections (zero-cost steals, zero coherence overhead,
//!   ideal P-core greedy bound).
//! * [`heartbeat_line`] / [`validate_heartbeat_stream`] — the
//!   `bigtiny-obs-heartbeat-v1` line-JSON live-telemetry stream a
//!   heartbeat-armed run emits every K sequencer grants
//!   (`eval_all --heartbeat-out`, followed live by `tail_run`).
//! * [`blackbox_from_bundle`] / [`blackbox_from_report`] — black-box
//!   dumps of the always-on per-core flight recorder (crash-time
//!   [`DiagnosticBundle`](bigtiny_engine::DiagnosticBundle)s and explicit
//!   dumps), with a validator and a Perfetto-loadable tail trace.

mod attribution;
mod blackbox;
mod critpath;
mod heartbeat;
mod json;
mod metrics;
mod perfetto;
#[cfg(test)]
mod testutil;

pub use attribution::{verify_attr_spans, CycleConservation, Projection, WhatIf};
pub use blackbox::{
    blackbox_from_bundle, blackbox_from_report, blackbox_tail_trace, reason_label,
    validate_blackbox, BlackboxSummary, BLACKBOX_SCHEMA,
};
pub use critpath::{
    check_task_dag, profiled, replay, replay_run, ChainLink, CritPath, CycleLens, DagCheck,
};
pub use heartbeat::{
    heartbeat_line, looks_like_heartbeat_stream, validate_heartbeat_line,
    validate_heartbeat_stream, HEARTBEAT_SCHEMA,
};
pub use json::{parse_json, Json, Keys};
pub use metrics::{metrics_document, RunMetrics, METRICS_SCHEMA, METRICS_SCHEMAS_ACCEPTED};
pub use perfetto::{
    export_chrome_trace, validate_chrome_trace, TraceRun, TraceSummary, TRACE_SCHEMA,
};
