//! Generalization of Figure 4: task-granularity sensitivity of every
//! kernel, comparing `b.T/MESI` with `b.T/HCC-gwb` and `b.T/HCC-DTS-gwb` —
//! the paper's observation that fine granularity penalizes HCC most and
//! makes DTS's advantage grow.

use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_engine::Protocol;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS]);

fn main() {
    let args = CLI.parse();
    let (size, apps) = (args.size(), args.apps());
    let grains = [4usize, 16, 64, 256];

    let mesi = Setup::bt_mesi();
    let gwb = Setup::bt_hcc(Protocol::GpuWb, false);
    let dts = Setup::bt_hcc(Protocol::GpuWb, true);

    let header: Vec<String> = ["App", "grain", "MESI cycles", "gwb/MESI", "DTS-gwb/MESI", "tasks"]
        .map(String::from)
        .to_vec();
    let mut rows = Vec::new();
    for app in &apps {
        for grain in grains {
            let r_mesi = run_app(&mesi, app, size, grain);
            let r_gwb = run_app(&gwb, app, size, grain);
            let r_dts = run_app(&dts, app, size, grain);
            eprintln!("[ablate_grain] {} grain {grain}", app.name);
            rows.push(vec![
                app.name.to_owned(),
                grain.to_string(),
                r_mesi.cycles.to_string(),
                format!("{:.3}", r_mesi.cycles as f64 / r_gwb.cycles as f64),
                format!("{:.3}", r_mesi.cycles as f64 / r_dts.cycles as f64),
                r_mesi.run.stats.workspan.tasks.to_string(),
            ]);
        }
    }
    println!("Granularity sensitivity across kernels ({size:?} inputs)\n");
    println!("{}", render_table(&header, &rows));
    println!("Expected shape: finer grain widens the HCC penalty and the DTS recovery.");
}
