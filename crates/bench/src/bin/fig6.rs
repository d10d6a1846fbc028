//! Figure 6: aggregate tiny-core L1 data-cache hit rate per application and
//! configuration.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, figures, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let size = harness.size;
    let results = harness.run_matrix(&Setup::big_tiny_matrix());

    println!("Figure 6: L1 data cache hit rate, tiny cores ({size:?} inputs)\n");
    println!("{}", figures::fig6(&results));
    println!(
        "Expected shape: MESI >= DTS variants >= HCC variants; gwt lowest (no write-allocate)."
    );
}
