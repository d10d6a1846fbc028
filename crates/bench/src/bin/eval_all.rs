//! Runs every machine of the 64-core evaluation once per kernel and
//! prints Table III, Figures 5–8, Table IV, the energy table and the
//! collaborative-execution table from those runs.
//!
//! Each kernel runs on serial-IO, `O3x{1,4,8}` and the 60 tiny cores
//! alone, then on the seven big.TINY configurations; the figures, Table
//! IV and the metrics and trace documents read only the big.TINY runs.
//! `--fault-plan` and `--setups-256` run only the big.TINY machines.
//!
//! Every run is decided by the harness's one judge (`bigtiny_bench::judge`);
//! a dirty verdict aborts the evaluation. Under a crash plan the judge's
//! at-least-once task-event audit is also printed as a table.
//!
//! `--blackbox-out` leaves flight-recorder forensics behind: a crash-time
//! bundle on a watchdog trip or poison, the dirty run on a dirty verdict,
//! an explicit dump of the last run on clean completion.

use bigtiny_bench::live::{metrics_doc, trace_doc, write_doc, Harness};
use bigtiny_bench::{cli, figures, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::{FaultPlan, Protocol};

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
    } else if harness.faults().is_some() {
        Setup::big_tiny_matrix()
    } else {
        let mut setups = vec![Setup::serial_io(), Setup::o3(1), Setup::o3(4), Setup::o3(8)];
        setups.push(Setup::tiny_only(60));
        setups.extend(Setup::big_tiny_matrix());
        setups
    };
    harness.announce();
    let (runs, verdicts) = harness.run_matrix(&setups);
    let audits = harness
        .faults()
        .is_some_and(FaultPlan::crash_armed)
        .then(|| figures::audit_table(&runs, &verdicts));
    // `partition` keeps run order: `results` is the kernel-major big.TINY
    // matrix the figures and documents read, `base` the other machines.
    let (results, base): (Vec<_>, Vec<_>) =
        runs.into_iter().partition(|r| r.setup.starts_with("b.T"));

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

    // A crash plan leaves no survivor on the 1-core serial-IO machine, and
    // the 64-core baselines do not pair with the 256-core machines.
    if base.is_empty() {
        println!(
            "(Table III, energy and collaborative execution need the fault-free 64-core \
             baselines; skipped)"
        );
    } else {
        println!("== Table III: simulated application kernels ({size:?}) ==\n");
        println!(
            "Speedups: O3x* and b.T/MESI over serial-IO; protocol columns relative to b.T/MESI.\n"
        );
        println!("{}", figures::table3(&base, &results));
        println!("== Energy (total, arbitrary units) normalized to b.T/MESI ({size:?}) ==\n");
        println!("{}", figures::energy(&base, &results, &setups));
        println!("== Collaborative execution on big.TINY/MESI: cycles ({size:?}) ==\n");
        println!("{}", figures::collab(&base, &results));
    }

    if harness.faults().is_some() {
        println!("== Fault injection summary ({size:?}) ==\n");
        println!("{}", figures::fault_summary(&results));
    }

    if let Some(table) = audits {
        println!("== Crash-recovery audit ({size:?}) ==\n");
        println!("{table}");
        println!("all {} crash-armed runs audited clean", results.len());
    }

    // Clean completion: an explicit black-box dump of the last run.
    if let (Some(r), Some(setup)) = (results.last(), setups.last()) {
        harness.dump_report("explicit", setup, r);
    }
}
