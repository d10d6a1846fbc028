//! Figure 4: speedup and logical parallelism of `ligra-tc` versus task
//! granularity on a 64-tiny-core system.

use bigtiny_apps::app_by_name;
use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_core::RuntimeConfig;
use bigtiny_engine::{Protocol, SystemConfig};

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE]);

fn main() {
    let size = CLI.parse().size();
    let tc = app_by_name("ligra-tc").expect("ligra-tc registered");

    let serial = Setup::serial_io();
    let serial_cycles = run_app(&serial, &tc, size, 0).cycles as f64;

    let sixty_four_tiny = Setup {
        label: "tiny64/mesi".to_owned(),
        sys: SystemConfig::tiny_only(64, Protocol::Mesi),
        rt: RuntimeConfig::new(bigtiny_core::RuntimeKind::Baseline),
    };

    let header: Vec<String> =
        ["Task Granularity", "Speedup over serial", "Logical Parallelism", "Tasks", "IPT"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    for grain in [4usize, 8, 16, 32, 64, 128, 256] {
        let r = run_app(&sixty_four_tiny, &tc, size, grain);
        let ws = r.run.stats.workspan;
        eprintln!("[fig4] grain {grain}: {} cycles", r.cycles);
        rows.push(vec![
            grain.to_string(),
            format!("{:.2}", serial_cycles / r.cycles as f64),
            format!("{:.1}", ws.parallelism()),
            ws.tasks.to_string(),
            format!("{:.0}", ws.instructions_per_task()),
        ]);
    }
    println!("Figure 4: ligra-tc on 64 tiny cores, granularity sweep ({size:?} inputs)\n");
    println!("{}", render_table(&header, &rows));
    println!("Expected shape: speedup peaks at a moderate granularity; parallelism falls as tasks coarsen.");
}
