//! Table V: results on the 256-core big.TINY system (4 big + 252 tiny,
//! 8x32 mesh, 4x the banks and memory bandwidth) with larger inputs, for
//! the five kernels the paper selects.

use bigtiny_apps::app_by_name;
use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::Protocol;

/// Table V uses the Large inputs unless overridden for smoke runs.
const SIZE: cli::Opt = cli::Opt { default: Some("large"), ..cli::SIZE };
const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&SIZE]);

fn main() {
    let size = CLI.parse().size();
    let names = ["cilk5-cs", "ligra-bc", "ligra-bfs", "ligra-cc", "ligra-tc"];

    let o3x1 = Setup::o3(1);
    let mesi = Setup::bt_256(Protocol::Mesi, RuntimeKind::Baseline);
    let gwb = Setup::bt_256(Protocol::GpuWb, RuntimeKind::Hcc);
    let dts = Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts);

    let header: Vec<String> =
        ["Name", "b.T/MESI vs O3x1", "HCC-gwb vs b.T/MESI", "HCC-DTS-gwb vs b.T/MESI"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    for name in names {
        let app = app_by_name(name).expect("registered");
        let t0 = std::time::Instant::now();
        let r_o3 = run_app(&o3x1, &app, size, 0);
        let r_mesi = run_app(&mesi, &app, size, 0);
        let r_gwb = run_app(&gwb, &app, size, 0);
        let r_dts = run_app(&dts, &app, size, 0);
        eprintln!("[table5] {name}: {:.1}s wall", t0.elapsed().as_secs_f64());
        rows.push(vec![
            name.to_owned(),
            format!("{:.1}", r_o3.cycles as f64 / r_mesi.cycles as f64),
            format!("{:.2}", r_mesi.cycles as f64 / r_gwb.cycles as f64),
            format!("{:.2}", r_mesi.cycles as f64 / r_dts.cycles as f64),
        ]);
    }
    println!("Table V: 256-core big.TINY system ({size:?} inputs)\n");
    println!("{}", render_table(&header, &rows));
    println!(
        "Expected shape: large b.T/MESI speedups over one big core; DTS clearly above plain HCC,"
    );
    println!("with a larger DTS advantage than on the 64-core system (steals cost more at scale).");
}
