//! Runs the 13-kernel × 7-configuration big.TINY matrix once and emits the
//! data for Figures 5, 6, 7, 8 and Table IV in one pass.
//!
//! `--blackbox-out` leaves flight-recorder forensics behind: a crash-time
//! bundle on a watchdog trip or poison, the first dirty run on a failed
//! crash audit, an explicit dump of the last run on clean completion.

use bigtiny_bench::live::{metrics_doc, trace_doc, write_doc, Harness};
use bigtiny_bench::{cli, figures, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::Protocol;

const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[
        &cli::FAULT_SEED,
        &cli::FAULT_PLAN,
        &cli::WATCHDOG_BUDGET,
        &cli::METRICS_OUT,
        &cli::TRACE_OUT,
        &cli::HEARTBEAT_OUT,
        &cli::HEARTBEAT_EVERY,
        &cli::BLACKBOX_OUT,
        &cli::SETUPS_256,
        &cli::SIZE,
        &cli::APPS,
        &cli::JSON,
    ],
);

fn main() {
    let args = CLI.parse();
    let harness = Harness::new(&args);
    let size = harness.size;
    let setups_256 = args.given(&cli::SETUPS_256);
    // Every figure normalizes to the leading MESI baseline of whichever
    // matrix is running, so the Table V machines go smallest-first too.
    let setups = if setups_256 {
        vec![
            Setup::bt_256(Protocol::Mesi, RuntimeKind::Baseline),
            Setup::bt_256(Protocol::GpuWb, RuntimeKind::Hcc),
            Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts),
        ]
    } else {
        Setup::big_tiny_matrix()
    };
    harness.announce();
    let results = harness.run_matrix(&setups);

    if let Some(path) = args.text(&cli::METRICS_OUT) {
        write_doc(path, &metrics_doc(&results));
        println!("[obs] metrics document ({} runs) -> {path}", results.len());
    }
    if let Some(path) = args.text(&cli::TRACE_OUT) {
        let (doc, summary) = trace_doc(&results);
        write_doc(path, &doc);
        println!(
            "[obs] chrome trace ({} spans, {} task lifetimes, {} flows) -> {path} \
             (load in ui.perfetto.dev)",
            summary.complete, summary.async_pairs, summary.flows
        );
    }

    println!("== Figure 5: speedup over big.TINY/MESI ({size:?}) ==\n");
    println!("{}", figures::fig5(&results));
    println!("== Figure 6: tiny-core L1D hit rate ({size:?}) ==\n");
    println!("{}", figures::fig6(&results));
    println!("== Figure 7: tiny-core time breakdown, normalized to b.T/MESI ({size:?}) ==\n");
    println!("{}", figures::fig7(&results));
    println!("== Figure 8: OCN traffic by category, normalized to b.T/MESI ({size:?}) ==\n");
    println!("{}", figures::fig8(&results));

    // Table IV and the ULI summary compare every HCC protocol against its
    // DTS pairing, which only the 64-core matrix runs in full.
    if setups_256 {
        println!("(Table IV and the ULI summary need the full 64-core protocol matrix; skipped)");
    } else {
        println!("== Table IV: DTS vs HCC reductions ({size:?}) ==\n");
        println!("{}", figures::table4(&results));
        println!("== ULI network summary (DTS configurations) ==\n");
        print!("{}", figures::uli_summary(&results));
    }

    if harness.faults().is_some() {
        println!("== Fault injection summary ({size:?}) ==\n");
        println!("{}", figures::fault_summary(&results));
    }

    // A dirty crash-recovery audit fails the whole evaluation.
    if harness.faults().is_some_and(|plan| plan.crash_armed()) {
        let audit = figures::crash_audit(&results);
        println!("== Crash-recovery audit ({size:?}) ==\n");
        println!("{}", audit.table);
        if let Some(first) = audit.dirty.first() {
            // A dirty audit is a forensic event: dump the first offender's
            // flight tails before failing the evaluation.
            let setup = setups.iter().find(|s| s.label == first.setup).expect("ran on a setup");
            harness.dump_report("crash_audit", setup, first);
            eprintln!("[audit] {} run(s) failed the crash-recovery audit", audit.dirty.len());
            std::process::exit(1);
        }
        println!("all {} crash-armed runs audited clean", results.len());
    }

    // Clean completion: an explicit black-box dump of the last run.
    if let (Some(r), Some(setup)) = (results.last(), setups.last()) {
        harness.dump_report("explicit", setup, r);
    }
}
