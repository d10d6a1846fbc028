//! Table IV: reduction in cache-line invalidations and flushes, and the
//! resulting L1 hit-rate increase, of DTS relative to the HCC runtime.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, figures, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let size = harness.size;
    let results = harness.run_matrix(&Setup::big_tiny_matrix());

    println!("Table IV: DTS vs HCC — invalidation/flush reduction and L1D hit-rate increase ({size:?} inputs)\n");
    println!("{}", figures::table4(&results));
    println!("Expected shape: >90% reductions for most kernels; smaller for steal-heavy ones (bf, bfsbv, tc).");
}
