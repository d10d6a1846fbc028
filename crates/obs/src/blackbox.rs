//! Black-box dumps: structured JSON serialization of flight-recorder
//! tails, plus a Perfetto-loadable tail trace.
//!
//! The engine's always-on per-core flight recorder keeps the last
//! [`bigtiny_engine::SystemConfig::flight_ring`] events of every core. On
//! a watchdog trip or worker panic the engine snapshots everything into a
//! [`DiagnosticBundle`]; harnesses retrieve it with
//! [`bigtiny_engine::last_bundle_for`] and call [`blackbox_from_bundle`]
//! to write the dump. A *clean* run that nevertheless needs forensics (a
//! dirty crash audit, an explicit `--blackbox-out`) dumps straight from
//! its [`RunReport`] via [`blackbox_from_report`].
//!
//! Each dump is one JSON document tagged [`BLACKBOX_SCHEMA`] whose header
//! (`config`, `backend`, `faults`) is a self-contained repro recipe, and
//! [`blackbox_tail_trace`] re-renders any dump as a Chrome trace-event
//! document of instant events (one Perfetto thread per core) that passes
//! [`validate_chrome_trace`](crate::validate_chrome_trace).

use bigtiny_engine::{DiagnosticBundle, FlightEvent, PoisonReason, RunReport};

use crate::json::{schemas, Json};
use crate::perfetto::{process_name, thread_name, trace_document, INSTANT};

/// Schema tag carried in every black-box document.
pub const BLACKBOX_SCHEMA: &str = "bigtiny-obs-blackbox-v1";

schemas! {
    DOCUMENT = [
        "schema", "reason", "config", "backend", "faults", "total_grants", "uli_messages",
        "uli_nacks", "cores",
    ];
    /// A core of a crash-time bundle; `waiting_at` only while it waits.
    BUNDLE_CORE = [
        "core", "clock", "instructions", "idle_cycles", "grants", "last_grant", "retired",
        "flight_total", "flight",
    ];
    BUNDLE_CORE_WAITING = [
        "core", "clock", "instructions", "idle_cycles", "grants", "last_grant", "retired",
        "waiting_at", "flight_total", "flight",
    ];
    REPORT_CORE = ["core", "clock", "instructions", "flight_total", "flight"];
    FLIGHT = ["t", "ev"];
    FLIGHT_PEER = ["t", "ev", "peer"];
    FLIGHT_TASK = ["t", "ev", "task"];
    FLIGHT_EXTRA = ["t", "ev", "extra"];
}

fn flight_json(tail: &[FlightEvent]) -> Json {
    let event = |e: &FlightEvent| {
        let (t, ev) = (Json::u64(e.time), Json::lit(e.kind.label()));
        let Some((key, value)) = e.kind.arg() else { return Json::row(&FLIGHT, [t, ev]) };
        let keys = [&FLIGHT_PEER, &FLIGHT_TASK, &FLIGHT_EXTRA]
            .into_iter()
            .find(|k| k.names()[2] == key)
            .unwrap_or_else(|| panic!("flight argument {key:?} has no schema"));
        Json::row(keys, [t, ev, Json::u64(value)])
    };
    Json::Arr(tail.iter().map(event).collect())
}

/// The dump itself: the repro header, the run's totals, one row per core.
fn document(
    [reason, config, backend, faults]: [&str; 4],
    [total_grants, uli_messages, uli_nacks]: [u64; 3],
    cores: Vec<Json>,
) -> Json {
    Json::row(
        &DOCUMENT,
        [
            Json::lit(BLACKBOX_SCHEMA),
            Json::str(reason),
            Json::str(config),
            Json::str(backend),
            Json::str(faults),
            Json::u64(total_grants),
            Json::u64(uli_messages),
            Json::u64(uli_nacks),
            Json::Arr(cores),
        ],
    )
}

/// Renders a [`PoisonReason`] as the dump's `reason` string.
pub fn reason_label(reason: PoisonReason) -> String {
    match reason {
        PoisonReason::WorkerPanic => "worker_panic".to_owned(),
        PoisonReason::Watchdog { core, time } => format!("watchdog(core={core},cycle={time})"),
    }
}

/// Serializes a crash-time [`DiagnosticBundle`] — the black box proper —
/// into one structured JSON document.
pub fn blackbox_from_bundle(bundle: &DiagnosticBundle) -> Json {
    let cores = bundle
        .cores
        .iter()
        .map(|c| {
            let head = [
                Json::u64(c.core as u64),
                Json::u64(c.clock),
                Json::u64(c.instructions),
                Json::u64(c.idle_cycles),
                Json::u64(c.seq.grants),
                Json::u64(c.seq.last_time),
                Json::Bool(c.seq.retired),
            ];
            let tail = [Json::u64(c.flight_total), flight_json(&c.flight_tail)];
            let (keys, waiting) = match c.seq.waiting_at {
                Some(t) => (&BUNDLE_CORE_WAITING, Some(Json::u64(t))),
                None => (&BUNDLE_CORE, None),
            };
            Json::row(keys, head.into_iter().chain(waiting).chain(tail).collect::<Vec<_>>())
        })
        .collect();
    document(
        [&reason_label(bundle.reason), &bundle.config_name, &bundle.backend, &bundle.fault_spec],
        [bundle.total_grants, bundle.uli_messages, bundle.uli_nacks],
        cores,
    )
}

/// Serializes the flight tails of a *completed* run — an explicit or
/// audit-triggered dump. `reason` names the trigger (e.g. `"explicit"`,
/// `"crash_audit"`); `backend` and `fault_spec` complete the repro header
/// (the report does not carry them itself).
pub fn blackbox_from_report(
    reason: &str,
    backend: &str,
    fault_spec: &str,
    report: &RunReport,
) -> Json {
    let cores = report
        .flight
        .iter()
        .enumerate()
        .map(|(core, tail)| {
            Json::row(
                &REPORT_CORE,
                [
                    Json::u64(core as u64),
                    Json::u64(report.core_cycles[core]),
                    Json::u64(report.instructions[core]),
                    Json::u64(report.flight_totals[core]),
                    flight_json(tail),
                ],
            )
        })
        .collect();
    document(
        [reason, &report.config_name, backend, fault_spec],
        [report.seq_grants, report.uli.messages, report.uli.nacks],
        cores,
    )
}

/// Counts from a structurally valid black-box document.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BlackboxSummary {
    /// Cores in the dump.
    pub cores: usize,
    /// Cores whose flight tail is non-empty.
    pub cores_with_tail: usize,
    /// Total flight events across all tails.
    pub events: usize,
}

/// Structurally validates a black-box document: the [`BLACKBOX_SCHEMA`]
/// tag, the repro header, and per-core tails each sorted by time with
/// every event carrying a label and a timestamp.
pub fn validate_blackbox(doc: &Json) -> Result<BlackboxSummary, String> {
    let schema = doc.get("schema").and_then(Json::as_str).ok_or("missing schema tag")?;
    if schema != BLACKBOX_SCHEMA {
        return Err(format!("schema {schema:?}, expected {BLACKBOX_SCHEMA:?}"));
    }
    for key in ["reason", "config", "backend", "faults"] {
        doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing header {key:?}"))?;
    }
    doc.get("total_grants").and_then(Json::as_num).ok_or("missing total_grants")?;
    let cores = doc.get("cores").and_then(Json::as_arr).ok_or("missing cores array")?;
    let mut summary = BlackboxSummary { cores: cores.len(), ..Default::default() };
    for c in cores {
        let id = c.get("core").and_then(Json::as_num).ok_or("core entry missing id")?;
        c.get("flight_total").and_then(Json::as_num).ok_or("core missing flight_total")?;
        let tail = c.get("flight").and_then(Json::as_arr).ok_or("core missing flight tail")?;
        let mut last = f64::NEG_INFINITY;
        for e in tail {
            e.get("ev").and_then(Json::as_str).ok_or("flight event missing label")?;
            let t = e.get("t").and_then(Json::as_num).ok_or("flight event missing time")?;
            if t < last {
                return Err(format!("core {id}: flight tail out of order ({t} after {last})"));
            }
            last = t;
        }
        if !tail.is_empty() {
            summary.cores_with_tail += 1;
        }
        summary.events += tail.len();
    }
    Ok(summary)
}

/// Re-renders a black-box document as a Chrome trace-event document: one
/// Perfetto thread per core, one `"i"` instant event per flight-tail
/// entry. Loadable at `ui.perfetto.dev`; passes
/// [`validate_chrome_trace`](crate::validate_chrome_trace).
pub fn blackbox_tail_trace(doc: &Json) -> Result<Json, String> {
    validate_blackbox(doc)?;
    let config = doc.get("config").and_then(Json::as_str).unwrap_or("?");
    let reason = doc.get("reason").and_then(Json::as_str).unwrap_or("?");
    let mut events = vec![process_name(1, format!("black box: {config} ({reason})"))];
    for c in doc.get("cores").and_then(Json::as_arr).expect("validated") {
        let core = c.get("core").and_then(Json::as_num).expect("validated") as u64;
        events.push(thread_name(1, core, Json::str(format!("core {core}"))));
        for e in c.get("flight").and_then(Json::as_arr).expect("validated") {
            let label = e.get("ev").and_then(Json::as_str).expect("validated");
            let t = e.get("t").and_then(Json::as_num).expect("validated");
            events.push(Json::row(
                &INSTANT,
                [
                    Json::str(label),
                    Json::lit("flight"),
                    Json::lit("i"),
                    Json::lit("t"),
                    Json::Num(t),
                    Json::u64(1),
                    Json::u64(core),
                ],
            ));
        }
    }
    Ok(trace_document(events, Some(BLACKBOX_SCHEMA)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::testutil::small_run_n;
    use crate::validate_chrome_trace;
    use bigtiny_core::RuntimeKind;

    #[test]
    fn report_dump_validates_and_traces() {
        let run = small_run_n(RuntimeKind::Dts, 11, false, false);
        let doc = blackbox_from_report("explicit", "threads", "none", &run.report);
        let s = validate_blackbox(&doc).expect("self-emitted dump validates");
        assert_eq!(s.cores, run.report.core_cycles.len());
        assert!(s.cores_with_tail > 0, "default-on ring captured events");
        assert!(s.events > 0);
        // Survives its own strict parser round trip.
        let reparsed = parse_json(&doc.to_json()).unwrap();
        assert_eq!(validate_blackbox(&reparsed).unwrap(), s);
        // And re-renders to a structurally valid Perfetto document.
        let trace = blackbox_tail_trace(&reparsed).unwrap();
        let ts = validate_chrome_trace(&trace).unwrap();
        assert_eq!(ts.instants, s.events);
        assert_eq!(ts.metadata, 1 + s.cores);
    }

    /// `flight_json` has a schema for every argument label the engine's
    /// recorder can produce — it panics on one it has none for, and its
    /// caller is the crash path. The successor chain makes the walk
    /// exhaustive: a new `FlightKind` does not compile until it is on it.
    #[test]
    fn every_flight_event_has_a_schema() {
        use bigtiny_engine::FlightKind::{self, *};
        fn successor(kind: FlightKind) -> Option<FlightKind> {
            Some(match kind {
                Grant => UliReqSend { to: 1 },
                UliReqSend { .. } => UliReqRecv { from: 1 },
                UliReqRecv { .. } => UliRespSend { to: 1 },
                UliRespSend { .. } => UliRespRecv { from: 1 },
                UliRespRecv { .. } => UliNack { to: 1 },
                UliNack { .. } => UliDead { to: 1 },
                UliDead { .. } => StealAttempt { victim: 1 },
                StealAttempt { .. } => StealHit { victim: 1 },
                StealHit { .. } => TaskSpawn { task: 1 },
                TaskSpawn { .. } => TaskBegin { task: 1 },
                TaskBegin { .. } => TaskEnd { task: 1 },
                TaskEnd { .. } => TaskStolen { task: 1 },
                TaskStolen { .. } => TaskJoin { task: 1 },
                TaskJoin { .. } => TaskRespawn { task: 1 },
                TaskRespawn { .. } => TaskDiscarded { task: 1 },
                TaskDiscarded { .. } => TaskDuplicate { task: 1 },
                TaskDuplicate { .. } => DequePush,
                DequePush => DequePop,
                DequePop => DequeSteal,
                DequeSteal => FaultUliDrop,
                FaultUliDrop => FaultUliNack,
                FaultUliNack => FaultUliDelay { extra: 1 },
                FaultUliDelay { .. } => FaultRxDrop,
                FaultRxDrop => FaultStealMiss,
                FaultStealMiss => Crash,
                Crash => Revive,
                Revive => return None,
            })
        }
        let tail: Vec<FlightEvent> = std::iter::successors(Some(Grant), |k| successor(*k))
            .map(|kind| FlightEvent { time: 7, kind })
            .collect();
        let Json::Arr(events) = flight_json(&tail) else { panic!("a tail is an array") };
        for (e, written) in tail.iter().zip(&events) {
            assert_eq!(written.get("ev").and_then(Json::as_str), Some(e.kind.label()));
            let arg = e.kind.arg().map(|(key, value)| (key, Json::u64(value)));
            assert_eq!(written.fields().nth(2), arg.as_ref().map(|(key, value)| (*key, value)));
        }
    }

    #[test]
    fn validator_rejects_malformed_dumps() {
        assert!(validate_blackbox(&parse_json("{}").unwrap()).is_err());
        let wrong = r#"{"schema":"other","reason":"x","config":"c","backend":"b","faults":"none","total_grants":1,"cores":[]}"#;
        assert!(validate_blackbox(&parse_json(wrong).unwrap()).unwrap_err().contains("schema"));
        let unordered = r#"{"schema":"bigtiny-obs-blackbox-v1","reason":"x","config":"c",
            "backend":"b","faults":"none","total_grants":1,
            "cores":[{"core":0,"flight_total":2,
                      "flight":[{"t":5,"ev":"grant"},{"t":3,"ev":"grant"}]}]}"#;
        assert!(validate_blackbox(&parse_json(unordered).unwrap())
            .unwrap_err()
            .contains("out of order"));
    }

    #[test]
    fn reason_labels() {
        assert_eq!(reason_label(PoisonReason::WorkerPanic), "worker_panic");
        assert_eq!(
            reason_label(PoisonReason::Watchdog { core: 3, time: 99 }),
            "watchdog(core=3,cycle=99)"
        );
    }
}
