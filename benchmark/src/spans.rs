//! In-memory spans around every call the harness makes into a layer.
//!
//! The harness records `{name, start_ns, end_ns, parent, cell}` at each
//! layer boundary of a *traced* pass, keeps them in memory, and writes
//! them out when the pass ends. A span's self time is its duration minus
//! the part its children cover. End-to-end metrics never come from a
//! traced pass; a disabled recorder does nothing at all.

use std::collections::BTreeMap;
use std::time::Instant;

use bigtiny_obs::Json;

/// Schema tag of the span document.
pub const SPANS_SCHEMA: &str = "bigtiny-benchmark-spans-v1";

/// One timed call into a layer.
#[derive(Clone, PartialEq, Debug)]
pub struct Span {
    /// `layer.call`, e.g. `checker.check_run`; `cell` for the whole cell.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the cell (in the workload's cell list) that caused it.
    pub cell: usize,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; free when not.
#[derive(Debug)]
pub struct Recorder {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: usize,
}

impl Recorder {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
        }
    }

    /// Sets the cell index stamped on spans entered from now on.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested inside the innermost open one.
    pub fn enter(&mut self, name: &str) -> SpanId {
        let Some(origin) = self.origin else { return SpanId(None) };
        let now = Self::now_ns(origin);
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id` and every span still open inside it (a panic caught
    /// around a cell unwinds past the exits of its inner spans).
    pub fn exit(&mut self, id: SpanId) {
        let (Some(origin), Some(id)) = (self.origin, id.0) else { return };
        let now = Self::now_ns(origin);
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Total and self seconds per span name.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of durations, seconds.
    pub total_s: f64,
    /// Sum of self times, seconds.
    pub self_s: f64,
}

/// Folds spans into per-name totals (sorted by name).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_s += s.duration_ns() as f64 / 1e9;
        t.self_s += own_ns as f64 / 1e9;
    }
    out
}

/// One span as a JSON object.
pub fn span_to_json(s: &Span) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(s.name.as_str())),
        ("start_ns".into(), Json::u64(s.start_ns)),
        ("end_ns".into(), Json::u64(s.end_ns)),
        ("parent".into(), s.parent.map_or(Json::Null, |p| Json::u64(p as u64))),
        ("cell".into(), Json::u64(s.cell as u64)),
    ])
}

/// Reads back what [`span_to_json`] wrote.
pub fn span_from_json(j: &Json) -> Result<Span, String> {
    let num = |k: &str| j.get(k).and_then(Json::as_num).ok_or(format!("span missing {k}"));
    Ok(Span {
        name: j.get("name").and_then(Json::as_str).ok_or("span missing name")?.to_owned(),
        start_ns: num("start_ns")? as u64,
        end_ns: num("end_ns")? as u64,
        parent: match j.get("parent") {
            Some(Json::Num(p)) => Some(*p as usize),
            _ => None,
        },
        cell: num("cell")? as usize,
    })
}

/// The span document of one traced pass.
pub fn spans_document(workload: &str, cells: &[String], spans: &[Span]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(SPANS_SCHEMA)),
        ("workload".into(), Json::str(workload)),
        ("cells".into(), Json::Arr(cells.iter().map(|c| Json::str(c.as_str())).collect())),
        ("spans".into(), Json::Arr(spans.iter().map(span_to_json).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns: start, end_ns: end, parent, cell: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("apps.prepare", 5, 15, Some(0)),
            span("core.run_task_parallel", 15, 75, Some(0)),
            span("inner", 20, 30, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 10, 50, 10]);
        let t = totals_by_name(&spans);
        assert!((t["cell"].self_s - 30e-9).abs() < 1e-15);
        assert!((t["cell"].total_s - 100e-9).abs() < 1e-15);
        assert_eq!(t["inner"].count, 1);
    }

    #[test]
    fn recorder_nests_and_unwinds() {
        let mut r = Recorder::new(true);
        r.set_cell(3);
        let cell = r.enter("cell");
        let _inner = r.enter("core.run_task_parallel");
        // No exit for the inner span: a caught panic skips it.
        r.exit(cell);
        r.time("after", || ());
        let spans = r.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].parent, spans[1].parent, spans[2].parent), (None, Some(0), None));
        assert_eq!(spans[1].end_ns, spans[0].end_ns, "open inner span closed with its parent");
        assert!(spans.iter().all(|s| s.cell == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.enter("cell");
        assert_eq!(r.time("x", || 7), 7);
        r.exit(id);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn span_document_round_trips_through_the_strict_parser() {
        let spans = vec![span("cell", 0, 9, None), span("apps.verify", 2, 4, Some(0))];
        let doc = spans_document("matrix-64", &["cilk5-nq@b.T/MESI".to_owned()], &spans);
        let back = bigtiny_obs::parse_json(&doc.to_json()).expect("span document parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(SPANS_SCHEMA));
        let read: Vec<Span> = back
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|j| span_from_json(j).unwrap())
            .collect();
        assert_eq!(read, spans);
    }
}
