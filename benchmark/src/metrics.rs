//! The benchmark's metric tables: names, units, directions and bounds.
//! `BENCHMARK.json` repeats them; a unit test keeps the two in step.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Parses [`Better::label`].
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better). `base` is never 0 for an end-to-end metric.
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, reported for every workload from untraced
/// passes (median over the passes, with min, max and n beside it).
///
/// Host seconds are calibrated against a reference kernel timed around
/// every cell (see `pass.rs`), so they compare across the host's fast and
/// slow phases.
///
/// * `wall_s` — host time of one pass (Σ over its cells), harness
///   recording off.
/// * `sim_mips` — Σ simulated instructions ÷ `wall_s`, in millions:
///   host time normalised by the work simulated.
/// * `setup_s` — median of five repeats of a pass's set-up: the cell list,
///   every distinct kernel's input, every distinct machine's memory system.
/// * `peak_rss_mb` — `VmHWM` of the process that ran the pass.
/// * `sim_cycles` — Σ simulated completion cycles of the pass; exact for
///   a given seed, so it moves only when the model (or the schedule the
///   seed picks) does.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "sim_mips", unit: "Minstr/s", better: Better::Higher, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "sim_cycles", unit: "cycles", better: Better::Lower, bound: 0.10 },
];

/// A per-layer metric: no bound, informational.
#[derive(Clone, PartialEq, Debug)]
pub struct PerLayer {
    /// `layer.metric[.variant]`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Protocol labels, in the order the coherence rows expand.
pub const PROTOCOLS: [&str; 4] = ["mesi", "dnv", "gwt", "gwb"];
/// Deque-policy labels, in the order the deque rows expand.
pub const DEQUES: [&str; 4] = ["locked", "chase-lev", "fence-free", "idempotent"];
/// Recording channels priced by `engine.armed_overhead_pct.*`.
pub const CHANNELS: [&str; 5] = ["flight", "check", "trace", "attr", "task-events"];

/// Every per-layer metric, in report order. Layers are the crates.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better });
    };
    // mesh
    for m in ["send_ns", "latency_ns", "uli_roundtrip_ns", "uli_nack_ns"] {
        add(format!("mesh.{m}"), "ns", Lower);
    }
    add("mesh.msgs".into(), "count", Lower);
    add("mesh.uli_msgs".into(), "count", Lower);
    // coherence
    for op in ["load_hit_ns", "load_miss_ns", "store_ns", "amo_ns"] {
        for p in PROTOCOLS {
            add(format!("coherence.{op}.{p}"), "ns", Lower);
        }
    }
    for p in &PROTOCOLS[1..] {
        add(format!("coherence.invalidate_all_ns.{p}"), "ns", Lower);
    }
    add("coherence.flush_all_ns.gwb".into(), "ns", Lower);
    add("coherence.mem_build_ms.64".into(), "ms", Lower);
    add("coherence.mem_build_ms.256".into(), "ms", Lower);
    add("coherence.ops".into(), "count", Lower);
    add("coherence.l1_hit_rate".into(), "ratio", Higher);
    // engine
    for backend in ["fibers", "threads", "sharded"] {
        for n in ["64", "256"] {
            add(format!("engine.grant_ns.{backend}.{n}"), "ns", Lower);
        }
    }
    add("engine.grant_ns.threads-watchdog.64".into(), "ns", Lower);
    add("engine.run_fixed_ms.64".into(), "ms", Lower);
    add("engine.run_fixed_ms.256".into(), "ms", Lower);
    add("engine.flight_record_ns".into(), "ns", Lower);
    for c in CHANNELS {
        add(format!("engine.armed_overhead_pct.{c}"), "%", Lower);
    }
    add("engine.seq_ops".into(), "count", Lower);
    add("engine.fast_grant_share".into(), "ratio", Higher);
    add("engine.ns_per_seq_op".into(), "ns", Lower);
    // core
    for k in ["baseline", "hcc", "dts", "dts.256"] {
        add(format!("core.task_ns.{k}"), "ns", Lower);
    }
    for op in ["deque_pushpop_ns", "deque_steal_ns"] {
        for d in DEQUES {
            add(format!("core.{op}.{d}"), "ns", Lower);
        }
    }
    add("core.simulate_s".into(), "s", Lower);
    add("core.tasks".into(), "count", Lower);
    add("core.steal_success_rate".into(), "ratio", Higher);
    add("core.reexecutions".into(), "count", Lower);
    // apps
    add("apps.prepare_s".into(), "s", Lower);
    add("apps.verify_s".into(), "s", Lower);
    // checker
    add("checker.check_run_s".into(), "s", Lower);
    add("checker.events".into(), "count", Lower);
    add("checker.check_ns_per_event".into(), "ns", Lower);
    add("checker.audit_ns_per_event".into(), "ns", Lower);
    add("checker.explore_s".into(), "s", Lower);
    add("checker.explore_schedules_per_s".into(), "1/s", Higher);
    // obs
    add("obs.trace_export_s".into(), "s", Lower);
    add("obs.trace_export_ns_per_event".into(), "ns", Lower);
    add("obs.trace_bytes_per_event".into(), "B", Lower);
    add("obs.trace_validate_ns_per_event".into(), "ns", Lower);
    add("obs.metrics_doc_ms".into(), "ms", Lower);
    add("obs.attr_verify_ms".into(), "ms", Lower);
    add("obs.whatif_ms".into(), "ms", Lower);
    add("obs.json_parse_mb_per_s".into(), "MB/s", Higher);
    add("obs.blackbox_ms".into(), "ms", Lower);
    // bench (the harness itself)
    add("bench.harness_self_s".into(), "s", Lower);
    add("bench.wall_raw_s".into(), "s", Lower);
    add("bench.host_ref_ms".into(), "ms", Lower);
    add("bench.record_json_ns".into(), "ns", Lower);
    add("bench.trace_overhead_pct".into(), "%", Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_obs::{parse_json, Json};

    #[test]
    fn worsening_respects_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worsening(10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 12.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_charset() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_owned()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(crate::workloads::WORKLOADS.iter().map(|w| w.name.to_owned()));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root must list exactly these tables.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let arr = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap_or_else(|| panic!("{k}"));
        let s = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_owned();

        let workloads: Vec<String> = arr("workloads").iter().map(|w| s(w, "name")).collect();
        let want: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, want);

        let e2e = arr("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(
                (s(j, "name"), s(j, "unit"), s(j, "better")),
                (m.name.to_owned(), m.unit.to_owned(), m.better.label().to_owned())
            );
            assert_eq!(j.get("bound").and_then(Json::as_num), Some(m.bound), "{}", m.name);
        }

        let layers = per_layer();
        let listed = arr("per_layer");
        assert_eq!(listed.len(), layers.len());
        for (j, m) in listed.iter().zip(&layers) {
            assert_eq!(
                (s(j, "name"), s(j, "unit"), s(j, "better")),
                (m.name.clone(), m.unit.to_owned(), m.better.label().to_owned())
            );
        }
    }
}
