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

use crate::attribution::{CycleConservation, Projection, WhatIf};
use crate::json::Json;

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

/// Builds the complete metrics document for a set of runs.
pub fn metrics_document(runs: &[RunMetrics<'_>]) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str(METRICS_SCHEMA)),
        ("runs".into(), Json::Arr(runs.iter().map(run_object).collect())),
    ])
}

fn run_object(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    Json::Obj(vec![
        ("app".into(), Json::str(r.app)),
        ("setup".into(), Json::str(r.setup)),
        ("deque_policy".into(), Json::str(r.deque_policy)),
        ("cycles".into(), Json::u64(rep.completion_cycles)),
        ("instructions".into(), Json::u64(rep.total_instructions())),
        ("seq_grants".into(), Json::u64(rep.seq_grants)),
        ("seq_op_hash".into(), Json::hash(rep.seq_op_hash)),
        ("breakdown".into(), breakdown_section(r)),
        ("coherence".into(), coherence_section(r)),
        ("mesh".into(), mesh_section(r)),
        ("uli".into(), uli_section(r)),
        ("faults".into(), faults_section(r)),
        ("watchdog".into(), watchdog_section(r)),
        ("steals".into(), steals_section(r)),
        ("critpath".into(), critpath_section(r)),
    ])
}

fn pairs_object(pairs: impl IntoIterator<Item = (&'static str, u64)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), Json::u64(v))).collect())
}

/// Per-core and tiny-core-aggregate time breakdowns, every category listed
/// (zeros included) so the key set never depends on the data.
fn breakdown_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let tiny = rep.breakdown_over(r.tiny_cores);
    Json::Obj(vec![
        ("tiny_total".into(), pairs_object(tiny.pairs())),
        (
            "per_core".into(),
            Json::Arr(rep.breakdowns.iter().map(|b| pairs_object(b.pairs())).collect()),
        ),
    ])
}

fn coherence_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let tiny = rep.mem_stats_over(r.tiny_cores);
    Json::Obj(vec![
        ("tiny_total".into(), pairs_object(tiny.pairs())),
        ("tiny_l1d_hit_rate".into(), Json::f64(tiny.l1d_hit_rate())),
        ("stale_reads".into(), Json::u64(rep.stale_reads)),
        (
            "per_core".into(),
            Json::Arr(rep.mem_stats.iter().map(|m| pairs_object(m.pairs())).collect()),
        ),
    ])
}

fn mesh_section(r: &RunMetrics<'_>) -> Json {
    let t = &r.run.report.traffic;
    let classes = t
        .by_class()
        .into_iter()
        .map(|(label, bytes, messages)| {
            Json::Obj(vec![
                ("class".into(), Json::str(label)),
                ("bytes".into(), Json::u64(bytes)),
                ("messages".into(), Json::u64(messages)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("classes".into(), Json::Arr(classes)),
        ("total_data_bytes".into(), Json::u64(t.total_data_bytes())),
        ("total_data_messages".into(), Json::u64(t.total_data_messages())),
        ("hop_cycles".into(), Json::u64(t.hop_cycles())),
    ])
}

fn uli_section(r: &RunMetrics<'_>) -> Json {
    let u = &r.run.report.uli;
    Json::Obj(vec![
        ("messages".into(), Json::u64(u.messages)),
        ("nacks".into(), Json::u64(u.nacks)),
        ("mean_latency".into(), Json::f64(u.mean_latency)),
        ("mean_hops".into(), Json::f64(u.mean_hops)),
        ("bytes".into(), Json::u64(u.bytes)),
        ("utilization".into(), Json::f64(u.utilization)),
    ])
}

fn faults_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    let st = &r.run.stats;
    let mut kv: Vec<(String, Json)> =
        rep.fault_counters.pairs().into_iter().map(|(k, v)| (k.to_owned(), Json::u64(v))).collect();
    kv.push(("mesh_fault_spikes".into(), Json::u64(rep.mesh_fault_spikes)));
    kv.push(("uli_timeouts".into(), Json::u64(st.uli_timeouts)));
    kv.push(("fallback_steals".into(), Json::u64(st.fallback_steals)));
    kv.push(("forced_steal_misses".into(), Json::u64(st.forced_steal_misses)));
    // Crash-recovery counters (additive; zero on crash-free runs).
    kv.push(("orphans_reclaimed".into(), Json::u64(st.orphans_reclaimed)));
    kv.push(("mailbox_rescues".into(), Json::u64(st.mailbox_rescues)));
    kv.push(("reexecutions".into(), Json::u64(st.reexecutions)));
    kv.push(("joins_repaired".into(), Json::u64(st.joins_repaired)));
    kv.push(("quarantines".into(), Json::u64(st.quarantines)));
    kv.push(("revivals".into(), Json::u64(st.revivals)));
    Json::Obj(kv)
}

fn watchdog_section(r: &RunMetrics<'_>) -> Json {
    let rep = &r.run.report;
    Json::Obj(vec![
        ("seq_grants".into(), Json::u64(rep.seq_grants)),
        ("seq_fast_grants".into(), Json::u64(rep.seq_fast_grants)),
    ])
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
            Json::Obj(vec![
                ("victim".into(), Json::u64(victim as u64)),
                ("attempts".into(), Json::u64(v.attempts)),
                ("hits".into(), Json::u64(v.hits)),
                ("misses".into(), Json::u64(v.misses)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("attempts".into(), Json::u64(tel.total_attempts())),
        ("hits".into(), Json::u64(tel.total_hits())),
        ("misses".into(), Json::u64(tel.total_misses())),
        ("steal_nacks".into(), Json::u64(st.steal_nacks)),
        ("hsc_elisions".into(), Json::u64(tel.hsc_elisions)),
        ("joins".into(), Json::u64(tel.joins)),
        ("per_victim".into(), Json::Arr(per_victim)),
        ("uli_rtt".into(), histogram_object(&tel.uli_rtt)),
        ("lifecycle".into(), lifecycle_object(r.run, tel)),
    ])
}

fn histogram_object(h: &Log2Histogram) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(h.count())),
        ("sum".into(), Json::u64(h.sum())),
        ("max".into(), Json::u64(h.max())),
        ("mean".into(), Json::f64(h.mean())),
        ("p50".into(), Json::u64(h.p50())),
        ("p90".into(), Json::u64(h.p90())),
        ("p99".into(), Json::u64(h.p99())),
        (
            "bucket_lo".into(),
            Json::Arr(
                (0..Log2Histogram::NUM_BUCKETS)
                    .map(Log2Histogram::bucket_lo)
                    .map(Json::u64)
                    .collect(),
            ),
        ),
        ("buckets".into(), Json::Arr(h.buckets().iter().map(|&c| Json::u64(c)).collect())),
    ])
}

/// Critical-path profile (schema v2). The cycle-conservation table is
/// always present — the per-core breakdowns it folds are always measured.
/// The work/span profile and what-if projections need the run profiled
/// (task events + attribution spans armed); unprofiled runs emit the same
/// key set with `profiled: false` and zeros, so the schema's shape never
/// depends on the data.
fn critpath_section(r: &RunMetrics<'_>) -> Json {
    let cons = CycleConservation::from_report(&r.run.report);
    let mut cons_kv: Vec<(String, Json)> =
        cons.pairs().into_iter().map(|(k, v)| (k.to_owned(), Json::u64(v))).collect();
    cons_kv.push(("total_core_cycles".into(), Json::u64(cons.total_core_cycles)));
    cons_kv.push(("holds".into(), Json::Bool(cons.holds())));

    // A run that is not profiled — or whose stream does not replay —
    // emits the all-zero analysis under `profiled: false`.
    let (profiled, w) = match WhatIf::project(r.run) {
        Ok(w) => (true, w),
        Err(_) => (false, WhatIf::unprofiled(&r.run.report)),
    };
    let what_if = w
        .projections()
        .into_iter()
        .map(|p| (p.lens.label().to_owned(), projection_object(p)))
        .collect();
    Json::Obj(vec![
        ("conservation".into(), Json::Obj(cons_kv)),
        ("profiled".into(), Json::Bool(profiled)),
        ("work".into(), Json::u64(w.burdened.work)),
        ("span".into(), Json::u64(w.burdened.span)),
        ("parallelism".into(), Json::f64(w.burdened.parallelism())),
        ("measured_tp".into(), Json::u64(w.measured_tp)),
        ("workers".into(), Json::u64(w.workers)),
        ("span_breakdown".into(), pairs_object(w.burdened.span_breakdown.pairs())),
        ("chain_tasks".into(), Json::u64(w.burdened.chain.len() as u64)),
        ("chain_steals".into(), Json::u64(w.burdened.chain_steals())),
        ("what_if".into(), Json::Obj(what_if)),
    ])
}

fn projection_object(p: &Projection) -> Json {
    Json::Obj(vec![
        ("work".into(), Json::u64(p.work)),
        ("span".into(), Json::u64(p.span)),
        ("greedy_bound".into(), Json::u64(p.greedy_bound)),
        ("speedup_bound".into(), Json::f64(p.speedup_bound)),
    ])
}

/// Task lifecycle counts. Spawn/exec counts come from the always-on
/// scheduler counters; join/elision counts from the telemetry, so the
/// section is populated even when per-event recording is off.
fn lifecycle_object(run: &TaskRun, tel: &StealTelemetry) -> Json {
    Json::Obj(vec![
        ("spawns".into(), Json::u64(run.stats.spawns)),
        ("tasks_executed".into(), Json::u64(run.stats.tasks_executed)),
        ("steals".into(), Json::u64(run.stats.steals)),
        ("joins".into(), Json::u64(tel.joins)),
        ("duplicate_executions".into(), Json::u64(run.stats.duplicate_executions)),
        ("task_events_recorded".into(), Json::u64(run.task_events.len() as u64)),
    ])
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
