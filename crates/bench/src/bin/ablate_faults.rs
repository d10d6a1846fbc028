//! Robustness ablation: each named fault plan against the DTS runtime, per
//! kernel, reporting the cycle overhead over the fault-free run and what the
//! hardened retry paths actually did (injected faults, response timeouts,
//! shared-memory fallback steals).
//!
//! `BIGTINY_SIZE` / `BIGTINY_APPS` / `BIGTINY_JSON` work as in `eval_all`;
//! `--fault-seed` seeds every plan (default 1).

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, find_result, render_table, Setup};
use bigtiny_core::{RuntimeConfig, RuntimeKind};
use bigtiny_engine::{FaultPlan, Protocol, SystemConfig};
use bigtiny_mesh::{MeshConfig, Topology};

const PLANS: [&str; 5] =
    ["none", "uli-drop-storm", "steal-miss-storm", "mesh-latency-spikes", "hostile"];

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::FAULT_SEED, &cli::SIZE, &cli::APPS, &cli::JSON]);

fn main() {
    let args = CLI.parse();
    let harness = Harness::new(&args);
    let (size, apps) = (harness.size, &harness.apps);
    let seed = args.get(&cli::FAULT_SEED);

    let base = SystemConfig::big_tiny(
        "ablate-faults",
        MeshConfig::with_topology(Topology::new(4, 4)),
        1,
        15,
        Protocol::GpuWb,
    );
    let setups: Vec<Setup> = PLANS
        .iter()
        .map(|plan| Setup {
            label: (*plan).to_owned(),
            sys: base.clone().with_faults(FaultPlan::by_name(plan, seed).unwrap()),
            rt: RuntimeConfig::new(RuntimeKind::Dts),
        })
        .collect();
    let (results, _) = harness.run_matrix(&setups);

    let header: Vec<String> = [
        "Name",
        "Plan",
        "Cycles",
        "Overhead",
        "Injected",
        "MeshSpikes",
        "UliTimeouts",
        "Fallbacks",
        "Steals",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    for app in apps {
        let clean = find_result(&results, app.name, "none").cycles.max(1) as f64;
        for plan in PLANS {
            let r = find_result(&results, app.name, plan);
            rows.push(vec![
                app.name.to_owned(),
                plan.to_owned(),
                r.cycles.to_string(),
                format!("{:+.1}%", 100.0 * (r.cycles as f64 / clean - 1.0)),
                r.run.report.fault_counters.total().to_string(),
                r.run.report.mesh_fault_spikes.to_string(),
                r.run.stats.uli_timeouts.to_string(),
                r.run.stats.fallback_steals.to_string(),
                r.run.stats.steals.to_string(),
            ]);
        }
    }
    println!("== Fault-plan ablation: DTS on 16-core b.T/gwb, seed {seed:#x} ({size:?}) ==\n");
    println!("{}", render_table(&header, &rows));
    println!(
        "Every run above completed and verified functionally; `none` is the\n\
         bit-for-bit golden path (hardened retry protocols disabled)."
    );
}
