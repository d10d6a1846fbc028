//! Turns the passes of a run into metrics, tables and documents.

use std::collections::BTreeMap;

use bigtiny_bench::render_table;
use bigtiny_obs::Json;

use crate::metrics::{per_layer, EndToEnd, END_TO_END};
use crate::micro::MicroResults;
use crate::pass::PassResult;
use crate::spans::{totals_by_name, NameTotals};
use crate::stats::Summary;
use crate::workloads::COUNT_NAMES;

/// Schema tag of the result document `compare` reads.
pub const RESULT_SCHEMA: &str = "bigtiny-benchmark-result-v1";

/// Everything measured for one workload.
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Untraced passes: the end-to-end samples.
    pub passes: Vec<PassResult>,
    /// The traced pass, if the trace phase ran.
    pub traced: Option<PassResult>,
}

impl WorkloadReport {
    fn all_passes(&self) -> impl Iterator<Item = &PassResult> {
        self.passes.iter().chain(&self.traced)
    }

    /// Cells run, over every pass.
    pub fn cells_attempted(&self) -> usize {
        self.all_passes().map(|p| p.cells.len()).sum()
    }

    /// Every failed cell, as `workload cell: reason`. A cell fails if it
    /// errored in any pass, or if its `(cycles, seq_op_hash)` differs
    /// between two passes: the simulator is deterministic for a seed.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in self.all_passes() {
            for c in &p.cells {
                if let Some(e) = &c.error {
                    out.push(format!("{} {}: {e}", self.name, c.id));
                }
            }
        }
        let Some(first) = self.all_passes().next() else { return out };
        for p in self.all_passes().skip(1) {
            for (a, b) in first.cells.iter().zip(&p.cells) {
                let both_ran = a.error.is_none() && b.error.is_none();
                if both_ran && (a.cycles, a.seq_op_hash) != (b.cycles, b.seq_op_hash) {
                    out.push(format!(
                        "{} {}: not deterministic across passes: ({}, {:#x}) vs ({}, {:#x})",
                        self.name, a.id, a.cycles, a.seq_op_hash, b.cycles, b.seq_op_hash
                    ));
                }
            }
        }
        out
    }

    /// The end-to-end metrics, one sample per untraced pass.
    pub fn end_to_end(&self) -> Vec<(EndToEnd, Summary)> {
        END_TO_END
            .iter()
            .filter_map(|m| {
                let samples: Vec<f64> = self
                    .passes
                    .iter()
                    .map(|p| match m.name {
                        "wall_s" => p.wall_s,
                        "sim_mips" => p.counts.get("instructions") as f64 / 1e6 / p.wall_s,
                        "setup_s" => p.setup_s,
                        "peak_rss_mb" => p.rss_kb as f64 / 1024.0,
                        "sim_cycles" => p.counts.get("cycles") as f64,
                        other => unreachable!("no sampler for end-to-end metric {other}"),
                    })
                    .collect();
                Summary::of(&samples).map(|s| (*m, s))
            })
            .collect()
    }

    /// Per-name span totals of the traced pass.
    pub fn span_totals(&self) -> BTreeMap<String, NameTotals> {
        self.traced.as_ref().map(|t| totals_by_name(&t.spans)).unwrap_or_default()
    }

    /// The per-workload layer metrics, from the traced pass: exact counts
    /// from the run reports, seconds from the spans.
    pub fn layer_values(&self) -> Vec<(String, f64)> {
        let Some(traced) = &self.traced else { return Vec::new() };
        let spans = self.span_totals();
        let total = |name: &str| spans.get(name).map_or(0.0, |t| t.total_s);
        let count = |name: &str| traced.counts.get(name) as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let simulate_s = total("core.run_task_parallel");
        let overhead = self
            .passes
            .first()
            .map_or(0.0, |untraced| (traced.wall_s - untraced.wall_s) / untraced.wall_s * 100.0);
        [
            ("mesh.msgs", count("mesh_msgs")),
            ("mesh.uli_msgs", count("uli_msgs")),
            ("coherence.ops", count("mem_ops")),
            ("coherence.l1_hit_rate", ratio(count("l1_hits"), count("l1_attempts"))),
            ("engine.seq_ops", count("seq_ops")),
            ("engine.fast_grant_share", ratio(count("fast_grants"), count("seq_ops"))),
            ("engine.ns_per_seq_op", ratio(simulate_s * 1e9, count("seq_ops"))),
            ("core.simulate_s", simulate_s),
            ("core.tasks", count("tasks")),
            ("core.steal_success_rate", ratio(count("steals"), count("steal_attempts"))),
            ("core.reexecutions", count("reexecutions")),
            ("apps.prepare_s", total("apps.prepare")),
            ("apps.verify_s", total("apps.verify")),
            ("checker.check_run_s", total("checker.check_run")),
            ("checker.events", count("checker_events")),
            ("obs.trace_export_s", total("obs.trace_export")),
            ("bench.harness_self_s", spans.get("cell").map_or(0.0, |t| t.self_s)),
            ("bench.wall_raw_s", traced.wall_raw_s),
            ("bench.host_ref_ms", traced.ref_s * 1e3),
            ("bench.trace_overhead_pct", overhead),
        ]
        .into_iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect()
    }
}

/// Unit of every per-layer metric, by name.
fn layer_units() -> BTreeMap<String, &'static str> {
    per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
}

/// `{"value": v, "unit": unit}`.
fn value_json(v: f64, unit: &str) -> Json {
    Json::Obj(vec![("value".into(), Json::f64(v)), ("unit".into(), Json::str(unit))])
}

/// A number at table precision.
pub fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if a != 0.0 && !(0.001..1e7).contains(&a) {
        format!("{v:.3e}")
    } else if a >= 1000.0 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

fn fmt_median(s: &Summary) -> String {
    s.median.map_or_else(|| "n/a".to_owned(), fmt_num)
}

/// The end-to-end table of every workload.
pub fn end_to_end_table(reports: &[WorkloadReport]) -> String {
    let header: Vec<String> =
        ["workload", "metric", "unit", "better", "bound", "median", "min", "max", "n"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    for r in reports {
        for (m, s) in r.end_to_end() {
            rows.push(vec![
                r.name.to_owned(),
                m.name.to_owned(),
                m.unit.to_owned(),
                m.better.label().to_owned(),
                format!("{:.0}%", m.bound * 100.0),
                fmt_median(&s),
                fmt_num(s.min),
                fmt_num(s.max),
                s.n.to_string(),
            ]);
        }
        // Uncalibrated figures, for the reader: nothing gates on them.
        let raw = |f: fn(&PassResult) -> f64| -> Vec<f64> { r.passes.iter().map(f).collect() };
        for (name, unit, samples) in [
            ("wall_raw_s", "s", raw(|p| p.wall_raw_s)),
            ("host_ref_ms", "ms", raw(|p| p.ref_s * 1e3)),
        ] {
            if let Some(s) = Summary::of(&samples) {
                rows.push(vec![
                    r.name.to_owned(),
                    name.to_owned(),
                    unit.to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    fmt_median(&s),
                    fmt_num(s.min),
                    fmt_num(s.max),
                    s.n.to_string(),
                ]);
            }
        }
        let failed = r.failures().len();
        rows.push(vec![
            r.name.to_owned(),
            "cells_failed".to_owned(),
            format!("of {}", r.cells_attempted()),
            "lower".to_owned(),
            "0%".to_owned(),
            failed.to_string(),
            failed.to_string(),
            failed.to_string(),
            "1".to_owned(),
        ]);
    }
    render_table(&header, &rows)
}

/// The per-workload layer metrics and span self-times of the traced pass.
pub fn layer_tables(reports: &[WorkloadReport]) -> String {
    let units = layer_units();
    let mut out = String::new();
    let header: Vec<String> = std::iter::once("per-workload metric".to_owned())
        .chain(std::iter::once("unit".to_owned()))
        .chain(reports.iter().map(|r| r.name.to_owned()))
        .collect();
    let columns: Vec<Vec<(String, f64)>> = reports.iter().map(|r| r.layer_values()).collect();
    let Some(first) = columns.iter().find(|c| !c.is_empty()) else { return out };
    let rows: Vec<Vec<String>> = first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let mut row = vec![name.clone(), units[name].to_owned()];
            row.extend(columns.iter().map(|c| c.get(i).map_or("-".into(), |(_, v)| fmt_num(*v))));
            row
        })
        .collect();
    out.push_str(&render_table(&header, &rows));

    let header: Vec<String> =
        ["workload", "span", "count", "total s", "self s"].map(String::from).to_vec();
    let mut rows = Vec::new();
    for r in reports {
        for (name, t) in r.span_totals() {
            rows.push(vec![
                r.name.to_owned(),
                name,
                t.count.to_string(),
                format!("{:.4}", t.total_s),
                format!("{:.4}", t.self_s),
            ]);
        }
    }
    out.push('\n');
    out.push_str(&render_table(&header, &rows));
    out
}

/// The micro-bench table (median of the repeats, with min and max: the
/// multi-threaded backend rows are bimodal on a small host).
pub fn micro_table(micro: &MicroResults) -> String {
    let units = layer_units();
    let header: Vec<String> =
        ["layer metric", "unit", "median", "min", "max", "n"].map(String::from).to_vec();
    let rows: Vec<Vec<String>> = micro
        .rows
        .iter()
        .map(|(name, s)| {
            vec![
                name.clone(),
                units[name].to_owned(),
                fmt_num(s.headline()),
                fmt_num(s.min),
                fmt_num(s.max),
                s.n.to_string(),
            ]
        })
        .collect();
    render_table(&header, &rows)
}

/// For each workload, the share of `core.simulate_s` that the engine,
/// coherence and mesh micro-bench costs account for: `count × ns ÷
/// core.simulate_s`, the most a faster layer could save there.
pub fn share_table(reports: &[WorkloadReport], micro: &MicroResults) -> String {
    let ns = |name: &str| {
        micro.rows.iter().find(|(n, _)| n == name).map_or(f64::NAN, |(_, s)| s.headline())
    };
    let header: Vec<String> =
        ["workload", "engine grant", "coherence access", "mesh send"].map(String::from).to_vec();
    let mut rows = Vec::new();
    for r in reports {
        let Some(traced) = &r.traced else { continue };
        let simulate_ns =
            r.span_totals().get("core.run_task_parallel").map_or(0.0, |t| t.total_s) * 1e9;
        let count = |name: &str| traced.counts.get(name) as f64;
        let cores = if r.name.ends_with("256") { "256" } else { "64" };
        let hit_rate = count("l1_hits") / count("l1_attempts").max(1.0);
        let access_ns = hit_rate * ns("coherence.load_hit_ns.gwb")
            + (1.0 - hit_rate) * ns("coherence.load_miss_ns.gwb");
        let pct = |v: f64| format!("{:.0}%", 100.0 * v / simulate_ns);
        rows.push(vec![
            r.name.to_owned(),
            pct(count("seq_ops") * ns(&format!("engine.grant_ns.fibers.{cores}"))),
            pct(count("mem_ops") * access_ns),
            pct(count("mesh_msgs") * ns("mesh.send_ns")),
        ]);
    }
    render_table(&header, &rows)
}

fn summary_json(s: &Summary) -> Vec<(String, Json)> {
    vec![
        ("median".into(), s.median.map_or(Json::Null, Json::f64)),
        ("min".into(), Json::f64(s.min)),
        ("max".into(), Json::f64(s.max)),
        ("n".into(), Json::u64(s.n as u64)),
    ]
}

/// The result document: what `compare` reads.
pub fn result_document(
    seed: u64,
    size: &str,
    reports: &[WorkloadReport],
    micro: Option<&MicroResults>,
) -> Json {
    let units = layer_units();
    let workloads = reports
        .iter()
        .map(|r| {
            let e2e = r
                .end_to_end()
                .into_iter()
                .map(|(m, s)| {
                    let mut fields = vec![
                        ("unit".to_owned(), Json::str(m.unit)),
                        ("better".to_owned(), Json::str(m.better.label())),
                        ("bound".to_owned(), Json::f64(m.bound)),
                    ];
                    fields.extend(summary_json(&s));
                    (m.name.to_owned(), Json::Obj(fields))
                })
                .collect();
            let counts = r.passes.first().or(r.traced.as_ref()).map_or(Vec::new(), |p| {
                COUNT_NAMES
                    .iter()
                    .zip(p.counts.0)
                    .map(|(n, v)| ((*n).to_owned(), Json::u64(v)))
                    .collect()
            });
            let layers = r
                .layer_values()
                .into_iter()
                .map(|(name, v)| {
                    let unit = units[&name];
                    (name, value_json(v, unit))
                })
                .collect();
            let spans = r
                .span_totals()
                .into_iter()
                .map(|(name, t)| {
                    (
                        name,
                        Json::Obj(vec![
                            ("count".into(), Json::u64(t.count)),
                            ("total_s".into(), Json::f64(t.total_s)),
                            ("self_s".into(), Json::f64(t.self_s)),
                        ]),
                    )
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::str(r.name)),
                ("cells_attempted".into(), Json::u64(r.cells_attempted() as u64)),
                ("cells_failed".into(), Json::u64(r.failures().len() as u64)),
                ("end_to_end".into(), Json::Obj(e2e)),
                ("counts".into(), Json::Obj(counts)),
                ("per_layer".into(), Json::Obj(layers)),
                ("spans".into(), Json::Obj(spans)),
            ])
        })
        .collect();
    let micro_rows = micro.map_or(Vec::new(), |m| {
        m.rows
            .iter()
            .map(|(name, s)| {
                let mut fields = vec![("unit".to_owned(), Json::str(units[name]))];
                fields.extend(summary_json(s));
                (name.clone(), Json::Obj(fields))
            })
            .collect()
    });
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::Obj(vec![
        ("schema".into(), Json::str(RESULT_SCHEMA)),
        ("seed".into(), Json::u64(seed)),
        ("size".into(), Json::str(size)),
        ("host_cores".into(), Json::u64(host_cores as u64)),
        ("workloads".into(), Json::Arr(workloads)),
        ("micro".into(), Json::Obj(micro_rows)),
    ])
}

/// The one-object result line the benchmark contract asks for: `metrics`
/// holds the end-to-end metrics of `report` when `timed` (the timed passes
/// ran), and every per-layer metric when `micro` is given (the trace
/// phase ran).
pub fn contract_line(
    report: &WorkloadReport,
    timed: bool,
    micro: Option<&MicroResults>,
    attempted: usize,
    failed: usize,
) -> String {
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if timed {
        for (m, s) in report.end_to_end() {
            metrics.push((m.name.to_owned(), value_json(s.headline(), m.unit)));
        }
    }
    if let Some(micro) = micro {
        let mut values: BTreeMap<String, f64> = report.layer_values().into_iter().collect();
        values.extend(micro.rows.iter().map(|(n, s)| (n.clone(), s.headline())));
        // Table order, so the line reads like BENCHMARK.json.
        for m in per_layer() {
            if let Some(v) = values.get(&m.name) {
                metrics.push((m.name.clone(), value_json(*v, m.unit)));
            }
        }
    }
    Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::u64(attempted.max(1) as u64)),
        ("failed".into(), Json::u64(failed as u64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::CellResult;
    use crate::spans::Span;
    use crate::workloads::Counts;
    use bigtiny_obs::parse_json;

    fn pass(wall_s: f64, cycles: u64, hash: u64) -> PassResult {
        let mut counts = Counts::default();
        counts.0[0] = cycles;
        counts.0[1] = 4_000_000;
        PassResult {
            setup_s: 0.01,
            wall_s,
            wall_raw_s: wall_s * 1.1,
            ref_s: 0.0033,
            rss_kb: 51_200,
            counts,
            cells: vec![CellResult { id: "a@b".into(), cycles, seq_op_hash: hash, error: None }],
            spans: Vec::new(),
        }
    }

    fn report(passes: Vec<PassResult>, traced: Option<PassResult>) -> WorkloadReport {
        WorkloadReport { name: "matrix-64", passes, traced }
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_the_passes() {
        let r = report(vec![pass(2.0, 100, 1), pass(4.0, 100, 1), pass(3.0, 100, 1)], None);
        let e2e = r.end_to_end();
        let get = |name: &str| e2e.iter().find(|(m, _)| m.name == name).unwrap().1;
        assert_eq!(get("wall_s").median, Some(3.0));
        assert!((get("sim_mips").median.unwrap() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(get("peak_rss_mb").median, Some(50.0));
        assert_eq!(get("sim_cycles").median, Some(100.0));
        assert!(r.failures().is_empty());
        assert_eq!(r.cells_attempted(), 3);
    }

    #[test]
    fn a_cell_that_differs_between_passes_fails() {
        let r = report(vec![pass(2.0, 100, 1), pass(2.0, 101, 1)], Some(pass(2.0, 100, 2)));
        let f = r.failures();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].contains("not deterministic"));
        let mut bad = pass(2.0, 0, 0);
        bad.cells[0].error = Some("audit: lost task".into());
        let r = report(vec![pass(2.0, 100, 1), bad], None);
        assert_eq!(r.failures(), vec!["matrix-64 a@b: audit: lost task".to_owned()]);
    }

    #[test]
    fn layer_values_come_from_the_traced_pass() {
        let mut traced = pass(2.2, 100, 1);
        traced.spans = vec![
            Span { name: "cell".into(), start_ns: 0, end_ns: 2_000_000_000, parent: None, cell: 0 },
            Span {
                name: "core.run_task_parallel".into(),
                start_ns: 0,
                end_ns: 1_500_000_000,
                parent: Some(0),
                cell: 0,
            },
        ];
        let r = report(vec![pass(2.0, 100, 1)], Some(traced));
        let v: BTreeMap<String, f64> = r.layer_values().into_iter().collect();
        assert!((v["core.simulate_s"] - 1.5).abs() < 1e-12);
        assert!((v["bench.harness_self_s"] - 0.5).abs() < 1e-12);
        assert!((v["bench.trace_overhead_pct"] - 10.0).abs() < 1e-9);
        let known: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert!(v.keys().all(|k| known.contains(k)), "every layer value is a tabled metric");
    }

    /// The traced pass and the micro-benches together produce exactly the
    /// per-layer table: the contract line must hold every per-layer metric.
    #[test]
    fn every_per_layer_metric_is_produced_once() {
        let r = report(vec![pass(2.0, 100, 1)], Some(pass(2.0, 100, 1)));
        let micro = crate::micro::run_all(7, true);
        assert!(micro.failures.is_empty(), "{:?}", micro.failures);
        let mut produced: Vec<String> = r.layer_values().into_iter().map(|(n, _)| n).collect();
        produced.extend(micro.rows.iter().map(|(n, _)| n.clone()));
        produced.sort();
        let mut tabled: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        tabled.sort();
        assert_eq!(produced, tabled);
        let line = contract_line(&r, false, Some(&micro), 1, 0);
        let back = parse_json(&line).expect("contract line parses");
        match back.get("metrics") {
            Some(Json::Obj(kv)) => assert_eq!(kv.len(), tabled.len()),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn documents_round_trip_through_the_strict_parser() {
        let r = report(vec![pass(2.0, 100, 1), pass(2.1, 100, 1), pass(2.2, 100, 1)], None);
        let doc = result_document(7, "eval", std::slice::from_ref(&r), None);
        let back = parse_json(&doc.to_json()).expect("result document parses");
        assert_eq!(back.get("schema").and_then(Json::as_str), Some(RESULT_SCHEMA));
        let w = &back.get("workloads").and_then(Json::as_arr).unwrap()[0];
        let wall = w.get("end_to_end").and_then(|e| e.get("wall_s")).unwrap();
        assert_eq!(wall.get("median").and_then(Json::as_num), Some(2.1));
        assert_eq!(wall.get("bound").and_then(Json::as_num), Some(END_TO_END[0].bound));

        let line = contract_line(&r, true, None, 3, 0);
        let back = parse_json(&line).expect("contract line parses");
        let keys: Vec<&str> = match &back {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = back.get("metrics").unwrap();
        for e in END_TO_END {
            let v = m.get(e.name).unwrap_or_else(|| panic!("{} missing", e.name));
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(e.unit));
            assert!(v.get("value").and_then(Json::as_num).unwrap() > 0.0);
        }
    }
}
