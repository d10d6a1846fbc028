//! Energy comparison across configurations (the abstract's "similar energy
//! efficiency" claim): first-order energy estimates, normalized to
//! `b.T/MESI`, plus an energy-efficiency view against `O3x8`.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, find_result, geomean, render_table, Setup};
use bigtiny_engine::{EnergyReport, SystemConfig};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let harness = Harness::new(&CLI.parse());
    let (size, apps) = (harness.size, &harness.apps);
    let mut setups = vec![Setup::o3(8)];
    setups.extend(Setup::big_tiny_matrix());
    let results = harness.run_matrix(&setups);

    let config_of = |label: &str| -> SystemConfig {
        setups.iter().find(|s| s.label == label).expect("known setup").sys.clone()
    };

    let mut header = vec!["Name".to_owned()];
    header.extend(setups.iter().map(|s| format!("E {}", s.label)));
    let mut rows = Vec::new();
    let mut geo: Vec<Vec<f64>> = vec![Vec::new(); setups.len()];
    for app in apps {
        let mesi_e = {
            let r = find_result(&results, app.name, "b.T/MESI");
            EnergyReport::estimate(&config_of("b.T/MESI"), &r.run.report).total()
        };
        let mut row = vec![app.name.to_owned()];
        for (i, setup) in setups.iter().enumerate() {
            let r = find_result(&results, app.name, &setup.label);
            let e = EnergyReport::estimate(&setup.sys, &r.run.report).total();
            let norm = e / mesi_e;
            geo[i].push(norm);
            row.push(format!("{norm:.2}"));
        }
        rows.push(row);
    }
    let mut geo_row = vec!["geomean".to_owned()];
    geo_row.extend(geo.iter().map(|g| format!("{:.2}", geomean(g.iter().copied()))));
    rows.push(geo_row);

    println!("Energy (total, arbitrary units) normalized to b.T/MESI ({size:?} inputs)\n");
    println!("{}", render_table(&header, &rows));
    println!("Expected shape: HCC within ~±20% of MESI; DTS recovers most of the overhead");
    println!(
        "(the paper: 'similar energy efficiency compared to full-system hardware coherence')."
    );
}
