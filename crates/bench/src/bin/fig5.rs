//! Figure 5: speedup of each big.TINY HCC configuration over `b.T/MESI`,
//! per application.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, figures, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let size = harness.size;
    let results = harness.run_matrix(&Setup::big_tiny_matrix());

    println!("Figure 5: speedup over big.TINY/MESI ({size:?} inputs)\n");
    println!("{}", figures::fig5(&results));
}
