//! Table III: the headline results table — per-kernel work/span analysis
//! plus speedups of every simulated configuration.
//!
//! Columns mirror the paper: work, span, logical parallelism, and
//! instructions-per-task from the runtime's Cilkview-style profiler;
//! speedup over a serial in-order core for `O3x{1,4,8}` and `b.T/MESI`;
//! and speedup relative to `b.T/MESI` for the HCC and HCC-DTS
//! configurations.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, find_result, geomean, render_table, Setup};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let (size, apps) = (harness.size, &harness.apps);

    let mut setups = vec![Setup::serial_io(), Setup::o3(1), Setup::o3(4), Setup::o3(8)];
    setups.extend(Setup::big_tiny_matrix());
    let results = harness.run_matrix(&setups);

    let header: Vec<String> = [
        "Name", "DInst", "Work", "Span", "Para", "IPT", // Cilkview-style columns
        "O3x1", "O3x4", "O3x8", "b.T/MESI", // speedup over serial IO
        "dnv", "gwt", "gwb", // HCC vs b.T/MESI
        "DTS-dnv", "DTS-gwt", "DTS-gwb", // HCC+DTS vs b.T/MESI
    ]
    .map(String::from)
    .to_vec();

    let mut rows = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); 10];
    for app in apps {
        let serial = find_result(&results, app.name, "serial-io").cycles as f64;
        let mesi = find_result(&results, app.name, "b.T/MESI");
        let mesi_cycles = mesi.cycles as f64;
        let ws = mesi.run.stats.workspan;

        let over_serial =
            |label: &str| serial / find_result(&results, app.name, label).cycles as f64;
        let vs_mesi =
            |label: &str| mesi_cycles / find_result(&results, app.name, label).cycles as f64;

        let cols = [
            over_serial("O3x1"),
            over_serial("O3x4"),
            over_serial("O3x8"),
            over_serial("b.T/MESI"),
            vs_mesi("b.T/HCC-dnv"),
            vs_mesi("b.T/HCC-gwt"),
            vs_mesi("b.T/HCC-gwb"),
            vs_mesi("b.T/HCC-DTS-dnv"),
            vs_mesi("b.T/HCC-DTS-gwt"),
            vs_mesi("b.T/HCC-DTS-gwb"),
        ];
        for (g, v) in geo.iter_mut().zip(cols) {
            g.push(v);
        }
        let dinst: u64 = mesi.run.report.total_instructions();
        rows.push(vec![
            app.name.to_owned(),
            format!("{:.2}M", dinst as f64 / 1e6),
            format!("{:.2}M", ws.work as f64 / 1e6),
            format!("{:.1}K", ws.span as f64 / 1e3),
            format!("{:.1}", ws.parallelism()),
            format!("{:.0}", ws.instructions_per_task()),
            format!("{:.2}", cols[0]),
            format!("{:.2}", cols[1]),
            format!("{:.2}", cols[2]),
            format!("{:.2}", cols[3]),
            format!("{:.2}", cols[4]),
            format!("{:.2}", cols[5]),
            format!("{:.2}", cols[6]),
            format!("{:.2}", cols[7]),
            format!("{:.2}", cols[8]),
            format!("{:.2}", cols[9]),
        ]);
    }
    let mut geo_row = vec![
        "geomean".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ];
    geo_row.extend(geo.iter().map(|g| format!("{:.2}", geomean(g.iter().copied()))));
    rows.push(geo_row);

    println!("Table III: Simulated Application Kernels ({size:?} inputs)\n");
    println!(
        "Speedups: O3x* and b.T/MESI over serial-IO; protocol columns relative to b.T/MESI.\n"
    );
    println!("{}", render_table(&header, &rows));
}
