//! The figure and table renderers of the evaluation, each written once.
//!
//! Figures 5–8 and Table IV are "the same runs as Table III" read five
//! ways, so each is a function over the result matrix that `eval_all` (the
//! one-pass reference run) and the standalone `fig5`–`fig8`/`table4`
//! binaries both call: a figure cannot differ between the two. Titles and
//! "expected shape" footers stay with the caller.
//!
//! The matrix is the `Vec` [`Harness::run_matrix`](crate::live::Harness::run_matrix)
//! returns: kernel-major, every kernel run on the same setups, the
//! hardware-coherent baseline (`b.T/MESI` or `b.T-256/MESI`) first.

use bigtiny_checker::audit_task_events;
use bigtiny_engine::Protocol;
use bigtiny_mesh::{TrafficClass, TRAFFIC_CLASSES};

use crate::{find_result, geomean, render_table, AppResult};

const HCC_PROTOCOLS: [Protocol; 3] = [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb];

/// The matrix one kernel at a time: each chunk leads with the baseline run.
fn per_app(results: &[AppResult]) -> std::slice::Chunks<'_, AppResult> {
    let first = results.first().map_or("", |r| r.app);
    results.chunks(results.iter().take_while(|r| r.app == first).count().max(1))
}

/// The setup labels of the matrix, in run order.
fn setups(results: &[AppResult]) -> Vec<&str> {
    per_app(results).next().unwrap_or_default().iter().map(|r| r.setup.as_str()).collect()
}

fn header(cols: &[&str]) -> Vec<String> {
    cols.iter().map(|c| (*c).to_owned()).collect()
}

/// Figure 5: speedup of every other configuration over the baseline, per
/// kernel, with a geomean row.
pub fn fig5(results: &[AppResult]) -> String {
    let labels = setups(results);
    let mut rows = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); labels.len().saturating_sub(1)];
    for runs in per_app(results) {
        let mesi = runs[0].cycles as f64;
        let mut row = vec![runs[0].app.to_owned()];
        for (g, r) in geo.iter_mut().zip(&runs[1..]) {
            let v = mesi / r.cycles as f64;
            g.push(v);
            row.push(format!("{v:.2}"));
        }
        rows.push(row);
    }
    let mut geo_row = vec!["geomean".to_owned()];
    geo_row.extend(geo.iter().map(|g| format!("{:.2}", geomean(g.iter().copied()))));
    rows.push(geo_row);
    render_table(&header(&[&["Name"], &labels[1..]].concat()), &rows)
}

/// Figure 6: aggregate tiny-core L1D hit rate per kernel and configuration.
pub fn fig6(results: &[AppResult]) -> String {
    let rows: Vec<Vec<String>> = per_app(results)
        .map(|runs| {
            let mut row = vec![runs[0].app.to_owned()];
            row.extend(runs.iter().map(|r| format!("{:.1}%", 100.0 * r.l1d_hit_rate())));
            row
        })
        .collect();
    render_table(&header(&[&["Name"], &setups(results)[..]].concat()), &rows)
}

/// One row per run: each labelled part of a quantity and its total, all
/// over the total of the kernel's baseline run. `total` heads the last
/// column.
fn normalized(
    results: &[AppResult],
    total: &str,
    parts: impl Fn(&AppResult) -> (Vec<(&'static str, u64)>, u64),
) -> String {
    let mut cols = vec!["Name", "Config"];
    cols.extend(results.first().map(|r| parts(r).0).iter().flatten().map(|(label, _)| *label));
    cols.push(total);
    let mut rows = Vec::new();
    for runs in per_app(results) {
        let base = parts(&runs[0]).1.max(1) as f64;
        for r in runs {
            let (groups, sum) = parts(r);
            let mut row = vec![r.app.to_owned(), r.setup.clone()];
            row.extend(groups.iter().map(|(_, v)| format!("{:.3}", *v as f64 / base)));
            row.push(format!("{:.3}", sum as f64 / base));
            rows.push(row);
        }
    }
    render_table(&header(&cols), &rows)
}

/// Figure 7: tiny-core execution-time breakdown (the paper's six groups)
/// per kernel and configuration, normalized to the baseline.
pub fn fig7(results: &[AppResult], total: &str) -> String {
    normalized(results, total, |r| {
        let b = r.tiny_breakdown();
        (b.paper_groups().to_vec(), b.total())
    })
}

/// Figure 8: data-OCN bytes by message category (the paper's legend order)
/// per kernel and configuration, normalized to the baseline.
pub fn fig8(results: &[AppResult], total: &str) -> String {
    normalized(results, total, |r| {
        let classes = TRAFFIC_CLASSES.iter().filter(|c| **c != TrafficClass::Uli);
        let bytes = classes.map(|c| (c.label(), r.run.report.traffic.bytes(*c)));
        (bytes.collect(), r.traffic_bytes())
    })
}

/// One kernel's run under the HCC runtime on `proto`, with or without DTS
/// (the 64-core matrix has both for every software-centric protocol).
fn hcc_run(runs: &[AppResult], proto: Protocol, dts: bool) -> &AppResult {
    let label = format!("b.T/HCC-{}{}", if dts { "DTS-" } else { "" }, proto.label());
    find_result(runs, runs[0].app, &label)
}

/// Table IV: reduction in tiny-core line invalidations and flushes, and
/// the L1D hit-rate increase, of DTS relative to the HCC runtime. Needs
/// the full 64-core protocol matrix.
pub fn table4(results: &[AppResult]) -> String {
    let cols = [
        "App",
        "InvDec dnv",
        "InvDec gwt",
        "InvDec gwb",
        "FlsDec gwb",
        "HitInc dnv",
        "HitInc gwt",
        "HitInc gwb",
    ];
    let pct_dec = |hcc: u64, dts: u64| -> String {
        if hcc == 0 {
            "--".to_owned()
        } else {
            format!("{:.2}%", 100.0 * (hcc.saturating_sub(dts)) as f64 / hcc as f64)
        }
    };
    let mut rows = Vec::new();
    for runs in per_app(results) {
        let mut row = vec![runs[0].app.to_owned()];
        let mut hit_inc = Vec::new();
        let mut fls_dec = String::new();
        for proto in HCC_PROTOCOLS {
            let (hcc, dts) = (hcc_run(runs, proto, false), hcc_run(runs, proto, true));
            let (mh, md) = (hcc.tiny_mem(), dts.tiny_mem());
            row.push(pct_dec(mh.lines_invalidated, md.lines_invalidated));
            if proto == Protocol::GpuWb {
                fls_dec = pct_dec(mh.lines_flushed, md.lines_flushed);
            }
            hit_inc.push(format!("{:.2}%", 100.0 * (dts.l1d_hit_rate() - hcc.l1d_hit_rate())));
        }
        row.push(fls_dec);
        row.extend(hit_inc);
        rows.push(row);
    }
    render_table(&header(&cols), &rows)
}

/// The ULI-network overhead summary of the DTS configurations (Section
/// VI-C's claims), one line per kernel and protocol. Needs the full
/// 64-core protocol matrix.
pub fn uli_summary(results: &[AppResult]) -> String {
    let mut out = String::new();
    for runs in per_app(results) {
        for proto in HCC_PROTOCOLS {
            let u = &hcc_run(runs, proto, true).run.report.uli;
            out.push_str(&format!(
                "{:<12} {:<4} msgs {:>8}  nacks {:>6}  mean hops {:>5.1}  mean lat {:>6.1}  util {:>6.3}%\n",
                runs[0].app,
                proto.label(),
                u.messages,
                u.nacks,
                u.mean_hops,
                u.mean_latency,
                100.0 * u.utilization
            ));
        }
    }
    out
}

/// What fault injection did to every run: injected faults, what the
/// hardened retry paths absorbed, and the crash-recovery counters.
pub fn fault_summary(results: &[AppResult]) -> String {
    let cols = [
        "Name",
        "Config",
        "Injected",
        "MeshSpikes",
        "UliTimeouts",
        "Fallbacks",
        "ForcedMiss",
        "Crashes",
        "Orphans",
        "Rescues",
        "Reexec",
        "JoinsFix",
        "Quar",
        "Reviv",
    ];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let (faults, stats) = (&r.run.report.fault_counters, &r.run.stats);
            let counts = [
                faults.total(),
                r.run.report.mesh_fault_spikes,
                stats.uli_timeouts,
                stats.fallback_steals,
                stats.forced_steal_misses,
                faults.crashes,
                stats.orphans_reclaimed,
                stats.mailbox_rescues,
                stats.reexecutions,
                stats.joins_repaired,
                stats.quarantines,
                stats.revivals,
            ];
            let mut row = vec![r.app.to_owned(), r.setup.clone()];
            row.extend(counts.map(|n| n.to_string()));
            row
        })
        .collect();
    render_table(&header(&cols), &rows)
}

/// The crash-recovery audit of a crash-armed matrix.
pub struct CrashAudit<'a> {
    /// One row per run: tasks, respawns, discards, recovered, verdict.
    pub table: String,
    /// The runs whose task-event stream did not audit clean, in run order.
    pub dirty: Vec<&'a AppResult>,
}

/// Audits every run's task-event stream under the crash-armed contract:
/// at-least-once with full recovery accounting (a mid-execution death is
/// acceptable only if covered by a respawn; re-execution only for
/// idempotency-whitelisted kernels). Dirty runs are also rendered to
/// stderr as they are found.
pub fn crash_audit(results: &[AppResult]) -> CrashAudit<'_> {
    let cols = ["Name", "Config", "Tasks", "Respawns", "Discards", "Recovered", "Verdict"];
    let mut rows = Vec::new();
    let mut dirty = Vec::new();
    for r in results {
        let audit = audit_task_events(&r.run.task_events, true, r.app);
        if !audit.is_clean() {
            dirty.push(r);
            eprintln!("[audit] {} on {}:", r.app, r.setup);
            eprint!("{}", audit.render());
        }
        rows.push(vec![
            r.app.to_owned(),
            r.setup.clone(),
            audit.tasks.to_string(),
            audit.respawns.to_string(),
            audit.discards.to_string(),
            audit.recovered.to_string(),
            if audit.is_clean() {
                format!("clean {:#018x}", audit.verdict_hash())
            } else {
                format!("{} violation(s)", audit.violations.len())
            },
        ]);
    }
    CrashAudit { table: render_table(&header(&cols), &rows), dirty }
}
