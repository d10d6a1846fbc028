//! The structured metrics document: one schema-stable JSON object
//! gathering everything a run measured — time breakdowns, coherence
//! counters, mesh traffic, ULI and fault/watchdog counters, and the
//! scheduler's steal telemetry — across every `(app, setup)` run of a
//! harness invocation.
//!
//! The document layout (section names, key names, histogram bucket count)
//! is frozen under [`METRICS_SCHEMA`]; extending it means bumping the
//! schema tag, never silently reshaping a section. Downstream tooling can
//! therefore `jq` the same paths across commits.

use bigtiny_core::{Log2Histogram, StealTelemetry, TaskRun};
use bigtiny_engine::{CoreMemStats, TimeBreakdown};

use crate::attribution::{CycleConservation, Projection, WhatIf};
use crate::json::{schemas, Json, Keys};

/// Schema tag carried in the document's `schema` field. Bump on any
/// structural change to the document.
///
/// History: `v1` → `v2` added the per-run `critpath` section
/// (cycle-conservation table, work/span profile, what-if projections)
/// and `p50`/`p90`/`p99` keys on every histogram object. `v2` → `v3`
/// added the per-run `deque_policy` label and the
/// `steals.lifecycle.duplicate_executions` counter (multiplicity deque
/// policies). Readers ([`crate::parse_json`] consumers like
/// `metrics_diff` and `json_check`) accept all three; older documents
/// simply lack the added keys.
pub const METRICS_SCHEMA: &str = "bigtiny-obs-metrics-v3";

/// Every schema tag readers must accept, oldest first.
pub const METRICS_SCHEMAS_ACCEPTED: [&str; 3] =
    ["bigtiny-obs-metrics-v1", "bigtiny-obs-metrics-v2", METRICS_SCHEMA];

/// One run to include in a metrics document.
pub struct RunMetrics<'a> {
    /// Kernel name (e.g. `cilk5-nq`).
    pub app: &'a str,
    /// Setup label (e.g. `b.T/HCC-DTS-gwb`).
    pub setup: &'a str,
    /// Deque-policy label the run scheduled under (e.g. `locked`,
    /// `chase-lev`, `fence-free`, `idempotent`).
    pub deque_policy: &'a str,
    /// The run's full measurements.
    pub run: &'a TaskRun,
    /// Tiny-core ids of the setup, for the aggregated tiny-core sections.
    pub tiny_cores: &'a [usize],
}

schemas! {
    DOCUMENT = ["schema", "runs"];
    RUN = [
        "app", "setup", "deque_policy", "cycles", "instructions", "seq_grants", "seq_op_hash",
        "breakdown", "coherence", "mesh", "uli", "faults", "watchdog", "steals", "critpath",
    ];
    BREAKDOWN = ["tiny_total", "per_core"];
    /// [`bigtiny_engine::TimeBreakdown::pairs`]' labels.
    TIME_CATEGORIES = [
        "compute", "load", "store", "atomic", "flush", "invalidate", "uli", "uli_wait", "idle",
    ];
    COHERENCE = ["tiny_total", "tiny_l1d_hit_rate", "stale_reads", "per_core"];
    /// [`bigtiny_engine::CoreMemStats::pairs`]' labels.
    MEM_STATS = [
        "loads", "load_hits", "stores", "store_hits", "amos", "invalidate_ops", "flush_ops",
        "lines_invalidated", "lines_flushed", "words_flushed", "stale_reads",
    ];
    MESH = ["classes", "total_data_bytes", "total_data_messages", "hop_cycles"];
    MESH_CLASS = ["class", "bytes", "messages"];
    ULI = ["messages", "nacks", "mean_latency", "mean_hops", "bytes", "utilization"];
    /// [`bigtiny_engine::FaultCounters::pairs`]' labels, then the run's own
    /// fault and crash-recovery counters (zero on fault-free runs).
    FAULTS = [
        "uli_drops", "uli_nacks", "uli_delays", "uli_rx_drops", "steal_misses", "crashes",
        "mesh_fault_spikes", "uli_timeouts", "fallback_steals", "forced_steal_misses",
        "orphans_reclaimed", "mailbox_rescues", "reexecutions", "joins_repaired", "quarantines",
        "revivals",
    ];
    WATCHDOG = ["seq_grants", "seq_fast_grants"];
    STEALS = [
        "attempts", "hits", "misses", "steal_nacks", "hsc_elisions", "joins", "per_victim",
        "uli_rtt", "lifecycle",
    ];
    VICTIM = ["victim", "attempts", "hits", "misses"];
    HISTOGRAM = ["count", "sum", "max", "mean", "p50", "p90", "p99", "bucket_lo", "buckets"];
    LIFECYCLE = [
        "spawns", "tasks_executed", "steals", "joins", "duplicate_executions",
        "task_events_recorded",
    ];
    CRITPATH = [
        "conservation", "profiled", "work", "span", "parallelism", "measured_tp", "workers",
        "span_breakdown", "chain_tasks", "chain_steals", "what_if",
    ];
    /// [`CycleConservation::pairs`]' labels, then the total and the verdict.
    CONSERVATION = [
        "compute", "steal_protocol", "amo", "invalidate", "flush", "idle", "total_core_cycles",
        "holds",
    ];
    /// The lens labels of [`WhatIf::projections`], in its order.
    WHAT_IF = ["zero_steal", "zero_coherence", "work_only"];
    PROJECTION = ["work", "span", "greedy_bound", "speedup_bound"];
}

/// Builds the complete metrics document for a set of runs.
pub fn metrics_document(runs: &[RunMetrics<'_>]) -> Json {
    let runs = runs.iter().map(run_object).collect();
    Json::row(&DOCUMENT, [Json::lit(METRICS_SCHEMA), Json::Arr(runs)])
}

fn run_object(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    Json::row(
        &RUN,
        [
            Json::str(r.app),
            Json::str(r.setup),
            Json::str(r.deque_policy),
            Json::u64(rep.completion_cycles),
            Json::u64(rep.total_instructions()),
            Json::u64(rep.seq_grants),
            Json::hash(rep.seq_op_hash),
            breakdown_section(r),
            coherence_section(r),
            mesh_section(r),
            uli_section(r),
            faults_section(r),
            watchdog_section(r),
            steals_section(r),
            critpath_section(r),
        ],
    )
}

/// A row of counters whose labels the measuring crate owns: `keys`
/// restates them (the document's layout is this module's to freeze),
/// `pairs` must agree, and `more` fills the keys past them.
fn counters(
    keys: &'static Keys,
    pairs: &[(&'static str, u64)],
    more: impl IntoIterator<Item = Json>,
) -> Json {
    debug_assert!(
        pairs.iter().map(|p| p.0).eq(keys.names().iter().copied().take(pairs.len())),
        "{pairs:?} relabelled under {:?}",
        keys.names()
    );
    Json::row(keys, pairs.iter().map(|p| Json::u64(p.1)).chain(more).collect::<Vec<_>>())
}

/// Per-core and tiny-core-aggregate time breakdowns, every category listed
/// (zeros included) so the key set never depends on the data.
fn breakdown_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let row = |b: &TimeBreakdown| counters(&TIME_CATEGORIES, &b.pairs(), []);
    Json::row(
        &BREAKDOWN,
        [
            row(&rep.breakdown_over(r.tiny_cores)),
            Json::Arr(rep.breakdowns.iter().map(row).collect()),
        ],
    )
}

fn coherence_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let tiny = rep.mem_stats_over(r.tiny_cores);
    let row = |m: &CoreMemStats| counters(&MEM_STATS, &m.pairs(), []);
    Json::row(
        &COHERENCE,
        [
            row(&tiny),
            Json::f64(tiny.l1d_hit_rate()),
            Json::u64(rep.stale_reads),
            Json::Arr(rep.mem_stats.iter().map(row).collect()),
        ],
    )
}

fn mesh_section(r: &RunMetrics<'_>) -> Json {
    let t = &r.run.report.traffic;
    let classes = t
        .by_class()
        .into_iter()
        .map(|(label, bytes, messages)| {
            Json::row(&MESH_CLASS, [Json::lit(label), Json::u64(bytes), Json::u64(messages)])
        })
        .collect();
    Json::row(
        &MESH,
        [
            Json::Arr(classes),
            Json::u64(t.total_data_bytes()),
            Json::u64(t.total_data_messages()),
            Json::u64(t.hop_cycles()),
        ],
    )
}

fn uli_section(r: &RunMetrics<'_>) -> Json {
    let u = &r.run.report.uli;
    Json::row(
        &ULI,
        [
            Json::u64(u.messages),
            Json::u64(u.nacks),
            Json::f64(u.mean_latency),
            Json::f64(u.mean_hops),
            Json::u64(u.bytes),
            Json::f64(u.utilization),
        ],
    )
}

fn faults_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let st = &r.run.stats;
    let more = [
        rep.mesh_fault_spikes,
        st.uli_timeouts,
        st.fallback_steals,
        st.forced_steal_misses,
        st.orphans_reclaimed,
        st.mailbox_rescues,
        st.reexecutions,
        st.joins_repaired,
        st.quarantines,
        st.revivals,
    ];
    counters(&FAULTS, &rep.fault_counters.pairs(), more.map(Json::u64))
}

fn watchdog_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    Json::row(&WATCHDOG, [Json::u64(rep.seq_grants), Json::u64(rep.seq_fast_grants)])
}

/// Steal telemetry: scheduler counters, per-victim outcomes, the ULI
/// round-trip histogram, and task lifecycle counts.
fn steals_section(r: &RunMetrics<'_>) -> Json {
    let st = &r.run.stats;
    let tel = &r.run.telemetry;
    let per_victim = tel
        .per_victim
        .iter()
        .enumerate()
        .map(|(victim, v)| {
            Json::row(&VICTIM, [victim as u64, v.attempts, v.hits, v.misses].map(Json::u64))
        })
        .collect();
    Json::row(
        &STEALS,
        [
            Json::u64(tel.total_attempts()),
            Json::u64(tel.total_hits()),
            Json::u64(tel.total_misses()),
            Json::u64(st.steal_nacks),
            Json::u64(tel.hsc_elisions),
            Json::u64(tel.joins),
            Json::Arr(per_victim),
            histogram_object(&tel.uli_rtt),
            lifecycle_object(r.run, tel),
        ],
    )
}

fn histogram_object(h: &Log2Histogram) -> Json {
    let bucket_lo = (0..Log2Histogram::NUM_BUCKETS).map(Log2Histogram::bucket_lo);
    Json::row(
        &HISTOGRAM,
        [
            Json::u64(h.count()),
            Json::u64(h.sum()),
            Json::u64(h.max()),
            Json::f64(h.mean()),
            Json::u64(h.p50()),
            Json::u64(h.p90()),
            Json::u64(h.p99()),
            Json::Arr(bucket_lo.map(Json::u64).collect()),
            Json::Arr(h.buckets().iter().map(|&c| Json::u64(c)).collect()),
        ],
    )
}

/// Critical-path profile (schema v2). The cycle-conservation table is
/// always present — the per-core breakdowns it folds are always measured.
/// The work/span profile and what-if projections need the run profiled
/// (task events + attribution spans armed); unprofiled runs emit the same
/// key set with `profiled: false` and zeros, so the schema's shape never
/// depends on the data.
fn critpath_section(r: &RunMetrics<'_>) -> Json {
    let cons = CycleConservation::from_report(&r.run.report);
    let conservation = counters(
        &CONSERVATION,
        &cons.pairs(),
        [Json::u64(cons.total_core_cycles), Json::Bool(cons.holds())],
    );

    // A run that is not profiled — or whose stream does not replay —
    // emits the all-zero analysis under `profiled: false`.
    let (profiled, w) = match WhatIf::project(r.run) {
        Ok(w) => (true, w),
        Err(_) => (false, WhatIf::unprofiled(&r.run.report)),
    };
    let projections = w.projections();
    debug_assert!(projections.iter().map(|p| p.lens.label()).eq(WHAT_IF.names().iter().copied()));
    Json::row(
        &CRITPATH,
        [
            conservation,
            Json::Bool(profiled),
            Json::u64(w.burdened.work),
            Json::u64(w.burdened.span),
            Json::f64(w.burdened.parallelism()),
            Json::u64(w.measured_tp),
            Json::u64(w.workers),
            counters(&TIME_CATEGORIES, &w.burdened.span_breakdown.pairs(), []),
            Json::u64(w.burdened.chain.len() as u64),
            Json::u64(w.burdened.chain_steals()),
            Json::row(&WHAT_IF, projections.map(projection_object)),
        ],
    )
}

fn projection_object(p: &Projection) -> Json {
    Json::row(
        &PROJECTION,
        [
            Json::u64(p.work),
            Json::u64(p.span),
            Json::u64(p.greedy_bound),
            Json::f64(p.speedup_bound),
        ],
    )
}

/// Task lifecycle counts. Spawn/exec counts come from the always-on
/// scheduler counters; join/elision counts from the telemetry, so the
/// section is populated even when per-event recording is off.
fn lifecycle_object(run: &TaskRun, tel: &StealTelemetry) -> Json {
    let counts = [
        run.stats.spawns,
        run.stats.tasks_executed,
        run.stats.steals,
        tel.joins,
        run.stats.duplicate_executions,
        run.task_events.len() as u64,
    ];
    Json::row(&LIFECYCLE, counts.map(Json::u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;
    use crate::testutil::small_run;
    use bigtiny_core::RuntimeKind;

    #[test]
    fn document_has_every_section_and_round_trips() {
        let run = small_run(RuntimeKind::Dts);
        let rm = RunMetrics {
            app: "fib",
            setup: "b.T/HCC-DTS-gwb",
            deque_policy: "locked",
            run: &run,
            tiny_cores: &[1, 2, 3, 4, 5, 6, 7],
        };
        let doc = metrics_document(&[rm]);
        let text = doc.to_json();
        let back = parse_json(&text).expect("self-emitted document parses strictly");
        assert_eq!(back.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        let runs = back.get("runs").unwrap().as_arr().unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        let sections =
            ["breakdown", "coherence", "mesh", "uli", "faults", "watchdog", "steals", "critpath"];
        for section in sections {
            assert!(r.get(section).is_some(), "missing section {section}");
        }
        // v3 keys: the policy label and the duplicate counter are always
        // present, even for the default locked policy.
        assert_eq!(r.get("deque_policy").unwrap().as_str(), Some("locked"));
        // The steal section carries real DTS telemetry.
        let steals = r.get("steals").unwrap();
        assert_eq!(
            steals.get("lifecycle").unwrap().get("duplicate_executions").unwrap().as_num(),
            Some(0.0)
        );
        assert!(steals.get("attempts").unwrap().as_num().unwrap() >= 1.0);
        let rtt = steals.get("uli_rtt").unwrap();
        assert_eq!(
            rtt.get("buckets").unwrap().as_arr().unwrap().len(),
            Log2Histogram::NUM_BUCKETS,
            "bucket count is part of the schema"
        );
        assert!(rtt.get("count").unwrap().as_num().unwrap() > 0.0, "DTS records round trips");
        // Hashes survive as exact hex strings.
        let hash = r.get("seq_op_hash").unwrap().as_str().unwrap();
        assert_eq!(hash, format!("{:#018x}", run.report.seq_op_hash));
        // Per-core sections cover every core.
        let cores = run.report.breakdowns.len();
        assert_eq!(
            r.get("breakdown").unwrap().get("per_core").unwrap().as_arr().unwrap().len(),
            cores
        );
        assert_eq!(
            r.get("coherence").unwrap().get("per_core").unwrap().as_arr().unwrap().len(),
            cores
        );
        // Mesh lists all ten classes regardless of data.
        assert_eq!(r.get("mesh").unwrap().get("classes").unwrap().as_arr().unwrap().len(), 10);
    }

    #[test]
    fn critpath_section_is_schema_stable_profiled_or_not() {
        // Unprofiled run: conservation present and holding, profiled:false,
        // every profile key present but zero.
        let plain = small_run(RuntimeKind::Dts);
        let rm = RunMetrics {
            app: "fib",
            setup: "dts",
            deque_policy: "locked",
            run: &plain,
            tiny_cores: &[1],
        };
        let doc = parse_json(&metrics_document(&[rm]).to_json()).unwrap();
        let cp = doc.get("runs").unwrap().as_arr().unwrap()[0].get("critpath").unwrap().clone();
        assert_eq!(cp.get("profiled").and_then(|v| v.as_num()), None, "profiled is a bool");
        assert!(matches!(cp.get("profiled"), Some(Json::Bool(false))));
        assert!(matches!(cp.get("conservation").unwrap().get("holds"), Some(Json::Bool(true))));
        assert_eq!(cp.get("span").unwrap().as_num(), Some(0.0));

        // Profiled run: the same key set, now populated, with the what-if
        // object carrying all three lenses.
        let prof = crate::testutil::small_run_profiled(RuntimeKind::Dts, 10);
        let rm = RunMetrics {
            app: "fib",
            setup: "dts",
            deque_policy: "locked",
            run: &prof,
            tiny_cores: &[1],
        };
        let doc = parse_json(&metrics_document(&[rm]).to_json()).unwrap();
        let pcp = doc.get("runs").unwrap().as_arr().unwrap()[0].get("critpath").unwrap().clone();
        assert!(matches!(pcp.get("profiled"), Some(Json::Bool(true))));
        assert!(pcp.get("span").unwrap().as_num().unwrap() > 0.0);
        assert!(
            pcp.get("work").unwrap().as_num().unwrap()
                >= pcp.get("span").unwrap().as_num().unwrap()
        );
        let keys = |j: &Json| -> Vec<String> {
            match j {
                Json::Obj(kv) => kv.iter().map(|(k, _)| k.clone()).collect(),
                _ => Vec::new(),
            }
        };
        assert_eq!(keys(&cp), keys(&pcp), "profiled and unprofiled sections must share a key set");
        for lens in ["zero_steal", "zero_coherence", "work_only"] {
            let p = pcp.get("what_if").unwrap().get(lens).unwrap();
            assert!(p.get("greedy_bound").unwrap().as_num().unwrap() > 0.0, "{lens}");
        }
        // Histograms now carry percentile keys.
        let steals = doc.get("runs").unwrap().as_arr().unwrap()[0].get("steals").unwrap().clone();
        let rtt = steals.get("uli_rtt").unwrap();
        for k in ["p50", "p90", "p99"] {
            assert!(rtt.get(k).and_then(Json::as_num).is_some(), "uli_rtt missing {k}");
        }
    }

    #[test]
    fn baseline_runs_emit_empty_but_valid_steal_histograms() {
        let run = small_run(RuntimeKind::Baseline);
        let rm = RunMetrics {
            app: "fib",
            setup: "b.T/MESI",
            deque_policy: "locked",
            run: &run,
            tiny_cores: &[1],
        };
        let doc = metrics_document(&[rm]);
        let back = parse_json(&doc.to_json()).unwrap();
        let rtt = back.get("runs").unwrap().as_arr().unwrap()[0]
            .get("steals")
            .unwrap()
            .get("uli_rtt")
            .unwrap();
        assert_eq!(rtt.get("count").unwrap().as_num(), Some(0.0));
        // mean of an empty histogram is 0, not null/NaN
        assert_eq!(rtt.get("mean").unwrap().as_num(), Some(0.0));
    }
}
