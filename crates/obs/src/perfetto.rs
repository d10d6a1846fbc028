//! Chrome trace-event (Perfetto-loadable) export of a run's execution.
//!
//! One JSON document, loadable at `ui.perfetto.dev` or `chrome://tracing`:
//!
//! * each `(app, setup)` run becomes one *process* (pid), each simulated
//!   core one *thread* (tid), named via `M` metadata events;
//! * per-core [`TraceEvent`] spans become `"X"` complete events (`ts` and
//!   `dur` in simulated cycles);
//! * task lifetimes (first to last recorded lifecycle event) become async
//!   `"b"`/`"e"` pairs with globally unique ids, so a task's span is
//!   visible across the cores it migrated over, with steal claims as
//!   instant events;
//! * ULI request/response protocol marks become flow arrows (`"s"`/`"f"`)
//!   from sender to receiver, FIFO-paired per directed core pair.
//!
//! [`validate_chrome_trace`] structurally checks a document — balanced
//! async pairs, 1:1 flow ids, well-formed events — so CI can gate on the
//! exporter without a browser.

use std::collections::BTreeMap;
use std::fmt;

use bigtiny_core::{TaskEventKind, TaskLedger, TaskRun};
use bigtiny_engine::UliMarkKind;

use crate::json::{schemas, Json};

/// Schema tag carried in the document's `metadata.schema` field.
pub const TRACE_SCHEMA: &str = "bigtiny-obs-trace-v1";

/// One run to include in a trace document.
pub struct TraceRun<'a> {
    /// Kernel name.
    pub app: &'a str,
    /// Setup label.
    pub setup: &'a str,
    /// The run (with `SystemConfig::trace` and, for task lifetimes,
    /// `RuntimeConfig::record_task_events` enabled).
    pub run: &'a TaskRun,
}

schemas! {
    DOCUMENT = ["traceEvents", "displayTimeUnit", "metadata"];
    DOCUMENT_META = ["schema", "time_unit"];
    DERIVED_META = ["schema", "time_unit", "source"];
    PROCESS_NAME = ["name", "ph", "pid", "args"];
    THREAD_NAME = ["name", "ph", "pid", "tid", "args"];
    NAME_ARG = ["name"];
    /// An `"X"` span of one core: nearly every event of a document.
    CORE_SPAN = ["name", "cat", "ph", "ts", "dur", "pid", "tid"];
    /// A thread-scoped `"i"` instant (`"s":"t"`).
    pub(crate) INSTANT = ["name", "cat", "ph", "s", "ts", "pid", "tid"];
    STEAL_INSTANT = ["name", "cat", "ph", "s", "ts", "pid", "tid", "args"];
    STEAL_ARGS = ["from"];
    /// An async `"b"` / `"e"` edge or a flow start `"s"`.
    PAIRED = ["name", "cat", "ph", "id", "ts", "pid", "tid"];
    FLOW_FINISH = ["name", "cat", "ph", "bp", "id", "ts", "pid", "tid"];
    CRITPATH_SPAN = ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"];
    CRITPATH_ARGS = ["core", "stolen"];
}

/// The document around `events`. One rendered from another document (the
/// black box's tail trace) names that document's schema as its `source`.
pub(crate) fn trace_document(events: Vec<Json>, source: Option<&'static str>) -> Json {
    let (schema, unit) = (Json::lit(TRACE_SCHEMA), Json::lit("simulated cycles"));
    let metadata = match source {
        None => Json::row(&DOCUMENT_META, [schema, unit]),
        Some(source) => Json::row(&DERIVED_META, [schema, unit, Json::lit(source)]),
    };
    Json::row(&DOCUMENT, [Json::Arr(events), Json::lit("ns"), metadata])
}

/// The `"M"` event that names process `pid` in the Perfetto UI.
pub(crate) fn process_name(pid: u64, name: String) -> Json {
    let args = Json::row(&NAME_ARG, [Json::str(name)]);
    Json::row(&PROCESS_NAME, [Json::lit("process_name"), Json::lit("M"), Json::u64(pid), args])
}

/// The `"M"` event that names thread `tid` of process `pid`.
pub(crate) fn thread_name(pid: u64, tid: u64, name: Json) -> Json {
    let args = Json::row(&NAME_ARG, [name]);
    Json::row(
        &THREAD_NAME,
        [Json::lit("thread_name"), Json::lit("M"), Json::u64(pid), Json::u64(tid), args],
    )
}

/// Exports one Chrome trace-event document covering every run.
pub fn export_chrome_trace(runs: &[TraceRun<'_>]) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut flow_id = 0u64;
    for (ri, r) in runs.iter().enumerate() {
        let pid = ri as u64 + 1;
        emit_metadata(&mut events, pid, r);
        emit_core_spans(&mut events, pid, r);
        emit_task_lifetimes(&mut events, pid, r);
        emit_uli_flows(&mut events, pid, r, &mut flow_id);
        emit_critpath_track(&mut events, pid, r);
    }
    trace_document(events, None)
}

/// Process/thread naming so the Perfetto UI shows run and core labels.
fn emit_metadata(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    events.push(process_name(pid, format!("{} @ {}", r.app, r.setup)));
    for core in 0..r.run.report.traces.len() {
        events.push(thread_name(pid, core as u64, Json::str(format!("core {core}"))));
    }
}

/// Per-core execution spans as `"X"` complete events.
fn emit_core_spans(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    // Nearly every event of a document is one of these.
    events.reserve(r.run.report.traces.iter().map(Vec::len).sum());
    for (core, trace) in r.run.report.traces.iter().enumerate() {
        for t in trace {
            events.push(Json::row(
                &CORE_SPAN,
                [
                    Json::lit(t.category.label()),
                    Json::lit("core"),
                    Json::lit("X"),
                    Json::u64(t.start),
                    Json::u64(t.cycles),
                    Json::u64(pid),
                    Json::u64(core as u64),
                ],
            ));
        }
    }
}

/// Task lifetimes as async `"b"`/`"e"` pairs plus steal-claim instants.
///
/// A task's lifetime runs from its first to its last recorded lifecycle
/// event, which keeps every pair balanced by construction even for tasks
/// that were spawned but inlined, or whose join elided (the pair may be
/// zero-length). The async id embeds the pid so ids stay globally unique
/// across runs in one document.
fn emit_task_lifetimes(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    // The event stream is sorted by (cycle, core), so the ledger's first
    // and last sighting of a task are its lifetime. Faults are not this
    // reader's business: whatever was recorded is drawn.
    let mut ledger = TaskLedger::default();
    for e in &r.run.task_events {
        ledger.push(e);
        if let TaskEventKind::Stolen { from } = e.kind {
            events.push(Json::row(
                &STEAL_INSTANT,
                [
                    Json::lit("steal"),
                    Json::lit("steal"),
                    Json::lit("i"),
                    Json::lit("t"),
                    Json::u64(e.cycle),
                    Json::u64(pid),
                    Json::u64(e.core as u64),
                    Json::row(&STEAL_ARGS, [Json::u64(from as u64)]),
                ],
            ));
        }
    }
    for (task, life) in ledger.lives().iter().enumerate() {
        let Some(first) = life.first else { continue };
        let id = Json::str(format!("task-{pid}-{task}"));
        let name = Json::str(format!("task {task}"));
        for (ph, (ts, core)) in [("b", first), ("e", life.last)] {
            events.push(Json::row(
                &PAIRED,
                [
                    name.clone(),
                    Json::lit("task"),
                    Json::lit(ph),
                    id.clone(),
                    Json::u64(ts),
                    Json::u64(pid),
                    Json::u64(core as u64),
                ],
            ));
        }
    }
}

/// The burdened critical-path chain as a highlighted extra track.
///
/// Emitted only for profiled runs (task events + attribution spans both
/// recorded): one thread per run, tid one past the last core, carrying an
/// `"X"` span per chain task over its execution window. Parent windows
/// contain the child windows they descend into, so the track renders as a
/// nested flame of the chain in the Perfetto UI; `args` carry the task id,
/// executing core, and whether the task was stolen (a core crossing on
/// the path).
fn emit_critpath_track(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>) {
    if !crate::critpath::profiled(r.run) {
        return;
    }
    let Ok(cp) = crate::critpath::replay_run(r.run, crate::critpath::CycleLens::Burdened) else {
        return;
    };
    let tid = r.run.report.core_cycles.len() as u64;
    events.push(thread_name(pid, tid, Json::lit("critical path")));
    for link in &cp.chain {
        events.push(Json::row(
            &CRITPATH_SPAN,
            [
                Json::str(format!("task {}", link.task)),
                Json::lit("critpath"),
                Json::lit("X"),
                Json::u64(link.exec_begin),
                Json::u64(link.exec_end.saturating_sub(link.exec_begin)),
                Json::u64(pid),
                Json::u64(tid),
                Json::row(&CRITPATH_ARGS, [Json::u64(link.core as u64), Json::Bool(link.stolen)]),
            ],
        ));
    }
}

/// ULI request/response pairs as flow arrows.
///
/// Marks are FIFO-paired per directed `(sender, receiver)` pair — the ULI
/// network delivers in order per pair, so the k-th send matches the k-th
/// receive. Under fault injection a send may have been dropped in flight;
/// unmatched marks are skipped (a flow arrow needs both ends).
fn emit_uli_flows(events: &mut Vec<Json>, pid: u64, r: &TraceRun<'_>, flow_id: &mut u64) {
    // (sender, receiver, is_response) -> (send cycles, recv cycles)
    type PairKey = (usize, usize, bool);
    let mut pairs: BTreeMap<PairKey, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (core, marks) in r.run.report.uli_marks.iter().enumerate() {
        for m in marks {
            match m.kind {
                UliMarkKind::ReqSend { to } => {
                    pairs.entry((core, to, false)).or_default().0.push(m.cycle)
                }
                UliMarkKind::ReqRecv { from } => {
                    pairs.entry((from, core, false)).or_default().1.push(m.cycle)
                }
                UliMarkKind::RespSend { to } => {
                    pairs.entry((core, to, true)).or_default().0.push(m.cycle)
                }
                UliMarkKind::RespRecv { from } => {
                    pairs.entry((from, core, true)).or_default().1.push(m.cycle)
                }
            }
        }
    }
    for ((sender, receiver, is_resp), (sends, recvs)) in pairs {
        let name = if is_resp { "uli_resp" } else { "uli_req" };
        for (s_cycle, r_cycle) in sends.iter().zip(recvs.iter()) {
            let id = Json::u64(*flow_id);
            *flow_id += 1;
            events.push(Json::row(
                &PAIRED,
                [
                    Json::lit(name),
                    Json::lit("uli"),
                    Json::lit("s"),
                    id.clone(),
                    Json::u64(*s_cycle),
                    Json::u64(pid),
                    Json::u64(sender as u64),
                ],
            ));
            events.push(Json::row(
                &FLOW_FINISH,
                [
                    Json::lit(name),
                    Json::lit("uli"),
                    Json::lit("f"),
                    Json::lit("e"),
                    id,
                    Json::u64((*r_cycle).max(*s_cycle)),
                    Json::u64(pid),
                    Json::u64(receiver as u64),
                ],
            ));
        }
    }
}

/// Counts from a structurally valid trace document.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TraceSummary {
    /// `"X"` complete events.
    pub complete: usize,
    /// Balanced async `"b"`/`"e"` pairs.
    pub async_pairs: usize,
    /// Matched `"s"`/`"f"` flow pairs.
    pub flows: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"M"` metadata events.
    pub metadata: usize,
}

fn num_field(e: &Json, key: &str) -> Result<f64, String> {
    e.get(key).and_then(Json::as_num).ok_or_else(|| format!("event missing numeric {key:?}: {e}"))
}

/// The `id` of a paired event, typed: the string `"#7"` and the number `7`
/// are different ids. A number is keyed by its bits (ids are never NaN —
/// the parser admits no such number — so equal bits is equal value, bar
/// `0` and `-0`, which print differently too).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Id<'a> {
    Str(&'a str),
    Num(u64),
}

impl<'a> Id<'a> {
    fn of(e: &'a Json) -> Result<Self, String> {
        match e.get("id") {
            Some(Json::Str(s)) => Ok(Id::Str(s)),
            Some(Json::Num(n)) => Ok(Id::Num(n.to_bits())),
            _ => Err(format!("event missing id: {e}")),
        }
    }
}

impl fmt::Display for Id<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Id::Str(s) => f.write_str(s),
            Id::Num(bits) => write!(f, "#{}", f64::from_bits(*bits)),
        }
    }
}

/// Both ends of one async span or flow arrow: how many opening and closing
/// events carried its id, and when the first of each happened.
#[derive(Default)]
struct Pairing {
    opens: usize,
    closes: usize,
    opened: f64,
    closed: f64,
}

impl Pairing {
    fn record(&mut self, opening: bool, ts: f64) {
        let (count, first) = if opening {
            (&mut self.opens, &mut self.opened)
        } else {
            (&mut self.closes, &mut self.closed)
        };
        if *count == 0 {
            *first = ts;
        }
        *count += 1;
    }
}

/// Structurally validates a Chrome trace-event document:
///
/// * `traceEvents` is an array, every event an object with a known `ph`,
///   a `pid`, and (except metadata) a finite non-negative `ts`;
/// * every `"X"` has a non-negative `dur`;
/// * async `"b"`/`"e"` events pair 1:1 per `(cat, id)` with begin ≤ end;
/// * flow `"s"`/`"f"` events pair 1:1 per id with start ≤ finish.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events =
        doc.get("traceEvents").and_then(Json::as_arr).ok_or("missing traceEvents array")?;
    let mut summary = TraceSummary::default();
    let mut asyncs: BTreeMap<(&str, Id<'_>), Pairing> = BTreeMap::new();
    let mut flows: BTreeMap<Id<'_>, Pairing> = BTreeMap::new();
    for e in events {
        let ph =
            e.get("ph").and_then(Json::as_str).ok_or_else(|| format!("event missing ph: {e}"))?;
        num_field(e, "pid")?;
        let ts = if ph == "M" { 0.0 } else { num_field(e, "ts")? };
        if ts < 0.0 {
            return Err(format!("negative ts: {e}"));
        }
        match ph {
            "M" => {
                e.get("name").and_then(Json::as_str).ok_or("metadata event without name")?;
                summary.metadata += 1;
            }
            "X" => {
                if num_field(e, "dur")? < 0.0 {
                    return Err(format!("negative dur: {e}"));
                }
                summary.complete += 1;
            }
            "b" | "e" => {
                let cat = e
                    .get("cat")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("async event missing cat: {e}"))?;
                asyncs.entry((cat, Id::of(e)?)).or_default().record(ph == "b", ts);
            }
            "s" | "f" => flows.entry(Id::of(e)?).or_default().record(ph == "s", ts),
            "i" => summary.instants += 1,
            other => return Err(format!("unknown event phase {other:?}: {e}")),
        }
    }
    for ((cat, id), p) in &asyncs {
        if p.opens != 1 || p.closes != 1 {
            return Err(format!(
                "async {cat}/{id}: {} begins, {} ends (want 1:1)",
                p.opens, p.closes
            ));
        }
        if p.opened > p.closed {
            return Err(format!("async {cat}/{id}: begin {} after end {}", p.opened, p.closed));
        }
    }
    for (id, p) in &flows {
        if p.opens != 1 || p.closes != 1 {
            return Err(format!("flow {id}: {} starts, {} finishes (want 1:1)", p.opens, p.closes));
        }
        if p.opened > p.closed {
            return Err(format!("flow {id}: start {} after finish {}", p.opened, p.closed));
        }
    }
    summary.async_pairs = asyncs.len();
    summary.flows = flows.len();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::testutil::small_run_n;
    use bigtiny_core::RuntimeKind;

    #[test]
    fn dts_trace_exports_and_validates() {
        let run = small_run_n(RuntimeKind::Dts, 11, true, true);
        let tr = TraceRun { app: "fib", setup: "b.T/HCC-DTS-gwb", run: &run };
        let doc = export_chrome_trace(&[tr]);
        let s = validate_chrome_trace(&doc).expect("self-emitted trace validates");
        assert!(s.complete > 0, "core spans present");
        assert!(s.async_pairs > 0, "task lifetimes present");
        assert!(s.flows > 0, "ULI flow arrows present");
        assert!(s.instants as u64 >= run.stats.steals, "steal instants present");
        // 1 process_name + one thread_name per core
        assert_eq!(s.metadata, 1 + run.report.traces.len());
        // Each DTS steal is a request and a response round trip. Almost
        // every protocol mark pairs into a flow — except a completion-race
        // tail: when the program finishes, an already-sent request or
        // response can go forever un-received (at most one in-flight
        // message per core).
        let marks: usize = run.report.uli_marks.iter().map(Vec::len).sum();
        let unmatched = marks - s.flows * 2;
        assert!(
            unmatched <= run.report.traces.len(),
            "at most one unmatched in-flight ULI mark per core: {unmatched} from {marks} marks"
        );
        // The document survives its own strict parser.
        let text = doc.to_json();
        assert_eq!(validate_chrome_trace(&parse_json(&text).unwrap()).unwrap(), s);
    }

    #[test]
    fn flow_arrows_point_forward_in_time() {
        let run = small_run_n(RuntimeKind::Dts, 11, true, false);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &run }]);
        // validate_chrome_trace enforces start <= finish for every flow.
        let s = validate_chrome_trace(&doc).unwrap();
        assert!(s.flows > 0);
        assert_eq!(s.async_pairs, 0, "no task events recorded, no async spans");
    }

    #[test]
    fn multi_run_documents_keep_ids_distinct() {
        let a = small_run_n(RuntimeKind::Dts, 9, true, true);
        let b = small_run_n(RuntimeKind::Hcc, 9, true, true);
        let doc = export_chrome_trace(&[
            TraceRun { app: "fib", setup: "dts", run: &a },
            TraceRun { app: "fib", setup: "hcc", run: &b },
        ]);
        // Same task ids exist in both runs; validation would report a 2:2
        // async pairing if the ids collided across pids.
        validate_chrome_trace(&doc).expect("cross-run ids stay unique");
    }

    #[test]
    fn validator_rejects_unbalanced_documents() {
        let bad = |events: &str| -> String {
            let doc = parse_json(&format!("{{\"traceEvents\":{events}}}")).unwrap();
            validate_chrome_trace(&doc).unwrap_err()
        };
        let b = r#"{"name":"t","cat":"task","ph":"b","id":"x","ts":5,"pid":1,"tid":0}"#;
        let e_early = r#"{"name":"t","cat":"task","ph":"e","id":"x","ts":2,"pid":1,"tid":0}"#;
        assert!(bad(&format!("[{b}]")).contains("1 begins, 0 ends"));
        assert!(bad(&format!("[{b},{e_early}]")).contains("after end"));
        let s = r#"{"name":"u","cat":"uli","ph":"s","id":7,"ts":5,"pid":1,"tid":0}"#;
        assert!(bad(&format!("[{s}]")).contains("1 starts, 0 finishes"));
        assert!(bad(r#"[{"ph":"X","pid":1,"ts":0,"dur":-1}]"#).contains("negative dur"));
        assert!(bad(r#"[{"ph":"??","pid":1,"ts":0}]"#).contains("unknown event phase"));
        assert!(validate_chrome_trace(&parse_json(r#"{"traceEvents":[]}"#).unwrap()).is_ok());
    }

    /// Ids are typed: the string `"#7"` and the number `7` name two flows
    /// (and two async spans), however a number used to be spelled as a key.
    #[test]
    fn validator_keeps_string_and_numeric_ids_apart() {
        let flow = |ph: &str, id: &str, ts: u32| {
            format!(r#"{{"name":"u","cat":"uli","ph":"{ph}","id":{id},"ts":{ts},"pid":1,"tid":0}}"#)
        };
        let span = |ph: &str, id: &str, ts: u32| flow(ph, id, ts).replace("uli", "task");
        let events = [
            flow("s", "7", 1),
            flow("s", "\"#7\"", 2),
            flow("f", "7", 3),
            flow("f", "\"#7\"", 4),
            span("b", "7", 1),
            span("b", "\"#7\"", 2),
            span("e", "\"#7\"", 3),
            span("e", "7", 4),
        ];
        let doc = parse_json(&format!("{{\"traceEvents\":[{}]}}", events.join(","))).unwrap();
        let s = validate_chrome_trace(&doc).expect("four distinct ids, each paired 1:1");
        assert_eq!((s.flows, s.async_pairs), (2, 2));
        // The same number spelled twice is still one id.
        let twice = [flow("s", "7", 1), flow("s", "7.0", 2), flow("f", "7", 3)].join(",");
        let doc = parse_json(&format!("{{\"traceEvents\":[{twice}]}}")).unwrap();
        assert!(validate_chrome_trace(&doc).unwrap_err().contains("flow #7: 2 starts, 1 finishes"));
    }

    /// Heap allocations a value owns, from its representation: a row or a
    /// non-empty array is one block, an owned string one, a borrowed
    /// literal none, and an `Obj` one block plus one per key.
    fn allocations(j: &Json) -> usize {
        use std::borrow::Cow;
        match j {
            Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(Cow::Borrowed(_)) => 0,
            Json::Str(Cow::Owned(s)) => usize::from(s.capacity() > 0),
            Json::Arr(items) => {
                usize::from(items.capacity() > 0) + items.iter().map(allocations).sum::<usize>()
            }
            Json::Obj(kv) => {
                1 + kv
                    .iter()
                    .map(|(k, v)| usize::from(k.capacity() > 0) + allocations(v))
                    .sum::<usize>()
            }
            Json::Rec(_, values) => 1 + values.iter().map(allocations).sum::<usize>(),
        }
    }

    /// The event that is nearly all of every document — a core's `"X"`
    /// span — is one heap block: its keys are the schema's and its three
    /// labels are borrowed. (As an `Obj` with owned strings it was eleven.)
    #[test]
    fn a_core_span_is_one_allocation() {
        let run = small_run_n(RuntimeKind::Dts, 11, true, true);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &run }]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert!(spans.len() > 1000, "{} spans", spans.len());
        for e in &spans {
            assert_eq!(allocations(e), 1, "{e}");
        }
        // Flow arrows likewise, and nothing in the document owns a key.
        let flows = events.iter().filter(|e| e.get("cat").and_then(Json::as_str) == Some("uli"));
        assert!(flows.map(allocations).all(|n| n == 1));
        fn owns_a_key(j: &Json) -> bool {
            matches!(j, Json::Obj(_))
                || j.as_arr().is_some_and(|a| a.iter().any(owns_a_key))
                || j.fields().any(|(_, v)| owns_a_key(v))
        }
        assert!(!owns_a_key(&doc));
        // Parsed back, the same event owns its keys and its strings.
        let parsed = parse_json(&spans[0].to_json()).unwrap();
        assert_eq!((allocations(&parsed), &parsed), (11, spans[0]));
    }

    #[test]
    fn profiled_run_gets_a_critical_path_track() {
        use crate::critpath::{replay_run, CycleLens};
        use crate::testutil::small_run_profiled;
        let run = small_run_profiled(RuntimeKind::Dts, 10);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &run }]);
        let s = validate_chrome_trace(&doc).expect("profiled trace validates");
        let cp = replay_run(&run, CycleLens::Burdened).unwrap();
        assert!(!cp.chain.is_empty(), "burdened replay yields a chain");
        // Per-core tracing is off, so the only X spans are the chain's, and
        // the metadata adds the critical-path thread name.
        assert_eq!(s.complete, cp.chain.len());
        assert_eq!(s.metadata, 1 + run.report.traces.len() + 1);
        // An unprofiled run of the same shape emits no critpath track.
        let plain = small_run_n(RuntimeKind::Dts, 10, false, true);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "dts", run: &plain }]);
        let s = validate_chrome_trace(&doc).unwrap();
        assert_eq!(s.complete, 0);
        assert_eq!(s.metadata, 1 + plain.report.traces.len());
    }

    #[test]
    fn disabled_trace_run_exports_an_empty_but_valid_document() {
        let run = small_run_n(RuntimeKind::Baseline, 8, false, false);
        let doc = export_chrome_trace(&[TraceRun { app: "fib", setup: "base", run: &run }]);
        let s = validate_chrome_trace(&doc).unwrap();
        assert_eq!(s.complete, 0);
        assert_eq!(s.flows, 0);
    }
}
