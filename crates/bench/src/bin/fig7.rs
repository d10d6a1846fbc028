//! Figure 7: aggregated tiny-core execution-time breakdown, normalized to
//! `b.T/MESI`, per application and configuration.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, figures, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let size = harness.size;
    let results = harness.run_matrix(&Setup::big_tiny_matrix());

    println!(
        "Figure 7: tiny-core execution-time breakdown, normalized to b.T/MESI ({size:?} inputs)\n"
    );
    println!("{}", figures::fig7(&results, "Total(norm)"));
    println!(
        "Expected shape: HCC adds Flush (gwb) and Atomic (gwt/gwb) time; DTS removes most of it."
    );
}
