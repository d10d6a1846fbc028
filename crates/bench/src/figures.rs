//! The figure and table renderers of the evaluation, each written once.
//!
//! Table III, Figures 5–8, Table IV, the energy table and the
//! collaborative-execution table are one set of 64-core runs read eight
//! ways, so each is a function over the result matrix that `eval_all`
//! runs once.
//!
//! The matrix is the `Vec` [`Harness::run_matrix`](crate::live::Harness::run_matrix)
//! returns: kernel-major, every kernel run on the same setups, the
//! hardware-coherent baseline (`b.T/MESI` or `b.T-256/MESI`) first. The
//! renderers that also read the machines outside big.TINY (serial-IO, the
//! O3 multicores, the tiny-only half) take those runs as a second matrix,
//! `base`, looked up by kernel and label.

use bigtiny_engine::{EnergyReport, Protocol};
use bigtiny_mesh::{TrafficClass, TRAFFIC_CLASSES};

use crate::{find_result, geomean, render_table, AppResult, Setup, Verdict};

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

/// Per kernel, the baseline's cycles over each other run's.
fn speedups(results: &[AppResult]) -> Vec<Vec<f64>> {
    per_app(results)
        .map(|runs| runs[1..].iter().map(|r| runs[0].cycles as f64 / r.cycles as f64).collect())
        .collect()
}

/// One row per kernel, its `ratios` to two decimals behind its `leads`,
/// then a `geomean` row of every ratio column.
fn ratio_rows(leads: Vec<Vec<String>>, ratios: &[Vec<f64>]) -> Vec<Vec<String>> {
    let cols = ratios.first().map_or(0, Vec::len);
    let geo: Vec<f64> = (0..cols).map(|c| geomean(ratios.iter().map(|row| row[c]))).collect();
    let mut geo_lead = vec![String::new(); leads.first().map_or(1, Vec::len)];
    geo_lead[0] = "geomean".to_owned();
    let rows = leads.into_iter().chain([geo_lead]).zip(ratios.iter().chain([&geo]));
    rows.map(|(lead, r)| lead.into_iter().chain(r.iter().map(|v| format!("{v:.2}"))).collect())
        .collect()
}

/// Figure 5: speedup of every other configuration over the baseline, per
/// kernel, with a geomean row.
pub fn fig5(results: &[AppResult]) -> String {
    let leads = per_app(results).map(|runs| vec![runs[0].app.to_owned()]).collect();
    let rows = ratio_rows(leads, &speedups(results));
    render_table(&header(&[&["Name"], &setups(results)[1..]].concat()), &rows)
}

/// Table III: per kernel, the work/span profile of its b.T/MESI run, the
/// speedup of `O3x{1,4,8}` and b.T/MESI over serial-IO, and Figure 5's
/// speedups of the six HCC configurations over b.T/MESI.
pub fn table3(base: &[AppResult], bt: &[AppResult]) -> String {
    let cols = [
        "Name", "DInst", "Work", "Span", "Para", "IPT", // Cilkview-style columns
        "O3x1", "O3x4", "O3x8", "b.T/MESI", // speedup over serial IO
        "dnv", "gwt", "gwb", // HCC vs b.T/MESI
        "DTS-dnv", "DTS-gwt", "DTS-gwb", // HCC+DTS vs b.T/MESI
    ];
    let (mut leads, mut ratios) = (Vec::new(), Vec::new());
    for (runs, protocol) in per_app(bt).zip(speedups(bt)) {
        let mesi = &runs[0];
        let serial = find_result(base, mesi.app, "serial-io").cycles as f64;
        let o3 = ["O3x1", "O3x4", "O3x8"].map(|label| find_result(base, mesi.app, label));
        let over_serial = o3.into_iter().chain([mesi]).map(|r| serial / r.cycles as f64);
        ratios.push(over_serial.chain(protocol).collect());
        let ws = mesi.run.stats.workspan;
        leads.push(vec![
            mesi.app.to_owned(),
            format!("{:.2}M", mesi.run.report.total_instructions() as f64 / 1e6),
            format!("{:.2}M", ws.work as f64 / 1e6),
            format!("{:.1}K", ws.span as f64 / 1e3),
            format!("{:.1}", ws.parallelism()),
            format!("{:.0}", ws.instructions_per_task()),
        ]);
    }
    render_table(&header(&cols), &ratio_rows(leads, &ratios))
}

/// Energy: each kernel's first-order energy estimate on `O3x8` and on
/// every big.TINY configuration, normalized to b.T/MESI. `machines` holds
/// the setup each run's label names.
pub fn energy(base: &[AppResult], bt: &[AppResult], machines: &[Setup]) -> String {
    let energy_of = |r: &AppResult| {
        let setup = machines.iter().find(|s| s.label == r.setup).expect("ran on a setup");
        EnergyReport::estimate(&setup.sys, &r.run.report).total()
    };
    let mut cols = vec!["Name".to_owned(), "E O3x8".to_owned()];
    cols.extend(setups(bt).iter().map(|label| format!("E {label}")));
    let (mut leads, mut ratios) = (Vec::new(), Vec::new());
    for runs in per_app(bt) {
        let (mesi, o3x8) = (energy_of(&runs[0]), find_result(base, runs[0].app, "O3x8"));
        ratios.push([o3x8].into_iter().chain(runs).map(|r| energy_of(r) / mesi).collect());
        leads.push(vec![runs[0].app.to_owned()]);
    }
    render_table(&cols, &ratio_rows(leads, &ratios))
}

/// Collaborative execution: each kernel's cycles on the 4 big cores alone
/// (`O3x4`), the 60 tiny cores alone (`tiny60/MESI`) and both together
/// (b.T/MESI), and the combined machine's gain over its faster half.
pub fn collab(base: &[AppResult], bt: &[AppResult]) -> String {
    let cols = ["Name", "4 big only", "60 tiny only", "4 big + 60 tiny", "combined / best half"];
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for runs in per_app(bt) {
        let app = runs[0].app;
        let (b, t, c) = (
            find_result(base, app, "O3x4").cycles,
            find_result(base, app, "tiny60/MESI").cycles,
            runs[0].cycles,
        );
        let gain = b.min(t) as f64 / c as f64;
        gains.push(gain);
        let gain = format!("{gain:.2}x");
        rows.push(vec![app.to_owned(), b.to_string(), t.to_string(), c.to_string(), gain]);
    }
    let blank = String::new;
    let geo = format!("{:.2}x", geomean(gains));
    rows.push(vec!["geomean".to_owned(), blank(), blank(), blank(), geo]);
    render_table(&header(&cols), &rows)
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
pub fn fig7(results: &[AppResult]) -> String {
    normalized(results, "Total", |r| {
        let b = r.tiny_breakdown();
        (b.paper_groups().to_vec(), b.total())
    })
}

/// Figure 8: data-OCN bytes by message category (the paper's legend order)
/// per kernel and configuration, normalized to the baseline.
pub fn fig8(results: &[AppResult]) -> String {
    normalized(results, "total", |r| {
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

/// The crash-recovery audit of a crash-armed matrix, one row per run of
/// `results`: the counts and verdict hash of the at-least-once audit in
/// the run's verdict (`verdicts` is in run order). Every row reads clean:
/// [`Harness::run_matrix`](crate::live::Harness::run_matrix) aborts on a
/// dirty verdict.
pub fn audit_table(results: &[AppResult], verdicts: &[Verdict]) -> String {
    let cols = ["Name", "Config", "Tasks", "Respawns", "Discards", "Recovered", "Verdict"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .zip(verdicts)
        .map(|(r, v)| {
            let audit = v.audit.as_ref().expect("a crash-armed run records its task events");
            let counts = [audit.tasks, audit.respawns, audit.discards, audit.recovered];
            let mut row = vec![r.app.to_owned(), r.setup.clone()];
            row.extend(counts.map(|n| n.to_string()));
            row.push(format!("clean {:#018x}", audit.verdict_hash()));
            row
        })
        .collect();
    render_table(&header(&cols), &rows)
}
