//! Critical-path profiler harness: answers "why doesn't my kernel
//! scale?" for one app on the big.TINY configurations.
//!
//! Arms task-event recording and per-task cycle attribution (both
//! bit-for-bit invisible to simulated results), replays the task DAG, and
//! reports per setup:
//!
//! * work T1, burdened span T∞, parallelism T1/T∞, measured Tp, and how
//!   close the run came to the greedy bound `max(⌈T1/P⌉, T∞)`;
//! * the cycle-conservation table — where every core-cycle of the run
//!   went, buckets summing exactly to total core-cycles;
//! * the burden on the critical path by category, and the chain itself
//!   (task ids, cores, steal crossings);
//! * what-if projections: completion bounds with zero-cost steals, zero
//!   coherence overhead, and pure compute.
//!
//! `--out` writes the v2 metrics document for the profiled runs;
//! `--trace-out` additionally arms per-core tracing and writes a Chrome
//! trace with the critical path as its own highlighted track.

use bigtiny_bench::live::{metrics_doc, observe, trace_doc, write_doc, Harness};
use bigtiny_bench::{cli, render_table, Setup};
use bigtiny_obs::{replay_run, verify_attr_spans, CycleConservation, CycleLens, WhatIf};

const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[
        &cli::APP,
        &cli::DTS_ONLY,
        &cli::OUT,
        &cli::TRACE_OUT,
        &cli::HEARTBEAT_OUT,
        &cli::SIZE,
        &cli::APPS,
    ],
);

fn main() {
    let args = CLI.parse();
    let harness = Harness::new(&args);
    let size = harness.size;
    let mut setups = Setup::big_tiny_matrix();
    if args.given(&cli::DTS_ONLY) {
        setups.retain(|s| s.label.contains("DTS"));
    }
    // The profile needs attribution and task events on every run;
    // `--trace-out` adds per-core tracing through the harness.
    setups.iter_mut().for_each(|s| observe(s, false));
    let results = harness.run_matrix(&setups);

    let mut summary_rows = Vec::new();
    let mut conservation_rows = Vec::new();
    for r in &results {
        verify_attr_spans(&r.run.report)
            .unwrap_or_else(|e| panic!("{} @ {}: bad attribution spans: {e}", r.app, r.setup));
        let w = WhatIf::project(&r.run)
            .unwrap_or_else(|e| panic!("{} @ {}: profile failed: {e}", r.app, r.setup));
        let cp = &w.burdened;
        summary_rows.push(vec![
            r.app.to_owned(),
            r.setup.clone(),
            cp.work.to_string(),
            cp.span.to_string(),
            format!("{:.2}", cp.parallelism()),
            w.measured_tp.to_string(),
            format!("{:.3}", w.measured.speedup_bound),
            w.zero_steal.greedy_bound.to_string(),
            w.zero_coherence.greedy_bound.to_string(),
            w.work_only.greedy_bound.to_string(),
            format!("{}/{}", cp.chain_steals(), cp.chain.len()),
        ]);

        let cons = CycleConservation::from_report(&r.run.report);
        assert!(
            cons.holds(),
            "{} @ {}: cycle conservation violated: buckets {} != core-cycles {}",
            r.app,
            r.setup,
            cons.bucket_sum(),
            cons.total_core_cycles
        );
        let mut row = vec![r.app.to_owned(), r.setup.clone()];
        let total = cons.total_core_cycles.max(1) as f64;
        for (_, v) in cons.pairs() {
            row.push(format!("{:.1}%", 100.0 * v as f64 / total));
        }
        row.push(cons.total_core_cycles.to_string());
        conservation_rows.push(row);
    }

    let summary_header: Vec<String> = [
        "App",
        "Config",
        "T1",
        "Tinf",
        "T1/Tinf",
        "Tp",
        "Tp/greedy",
        "0-steal",
        "0-coh",
        "ideal",
        "path steals",
    ]
    .map(String::from)
    .to_vec();
    println!("== Critical-path profile ({size:?}) ==\n");
    println!("{}", render_table(&summary_header, &summary_rows));
    println!(
        "Tp/greedy: measured completion over max(ceil(T1/P), Tinf) — 1.0 is a perfect greedy\n\
         schedule of the burdened DAG. 0-steal / 0-coh / ideal: the same greedy bound with\n\
         steal-protocol, coherence, or all overhead cycles removed from every task.\n"
    );

    let mut cons_header: Vec<String> = vec!["App".into(), "Config".into()];
    cons_header.extend(
        ["compute", "steal", "amo", "inval", "flush", "idle", "core-cycles"].map(String::from),
    );
    println!("== Cycle conservation (buckets sum exactly to core-cycles) ==\n");
    println!("{}", render_table(&cons_header, &conservation_rows));

    // The burdened span decomposed by category, for the slowest DTS run
    // (or the last run when DTS was filtered out): the direct answer to
    // "what is on my critical path?".
    if let Some(r) = results
        .iter()
        .filter(|r| r.setup.contains("DTS"))
        .max_by_key(|r| r.cycles)
        .or_else(|| results.last())
    {
        let cp = replay_run(&r.run, CycleLens::Burdened).expect("profiled above");
        println!("== Burden on the critical path: {} @ {} ==\n", r.app, r.setup);
        print!("{}", cp.span_breakdown);
        println!("{:>10}: {:>12}\n", "span", cp.span);
    }

    if let Some(path) = args.text(&cli::OUT) {
        write_doc(path, &metrics_doc(&results));
        println!("[profile_run] metrics document ({} runs) -> {path}", results.len());
    }
    if let Some(path) = args.text(&cli::TRACE_OUT) {
        let (doc, s) = trace_doc(&results);
        write_doc(path, &doc);
        println!(
            "[profile_run] chrome trace ({} spans incl. critical-path track, {} lifetimes) -> {path}",
            s.complete, s.async_pairs
        );
    }
    println!("[profile_run] OK: {} runs profiled", results.len());
}
