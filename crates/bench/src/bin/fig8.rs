//! Figure 8: total on-chip network traffic in bytes, split by message
//! category and normalized to `b.T/MESI`, per application and configuration.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, figures, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let size = harness.size;
    let results = harness.run_matrix(&Setup::big_tiny_matrix());

    println!("Figure 8: OCN traffic by category, normalized to b.T/MESI ({size:?} inputs)\n");
    println!("{}", figures::fig8(&results, "total(norm)"));
    println!("Expected shape: gwt dominated by wb_req write-throughs; DTS cuts cpu_req/data_resp and (for gwb) wb_req.");
}
