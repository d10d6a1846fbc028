//! Collaborative execution: the paper's premise is that the work-stealing
//! runtime lets big and tiny cores execute one task-parallel program
//! *together*. This harness compares the combined big.TINY machine against
//! its two halves run alone.

use bigtiny_bench::{cli, geomean, render_table, run_app, Setup};
use bigtiny_core::RuntimeKind;
use bigtiny_engine::{Protocol, SystemConfig};

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::SIZE, &cli::APPS]);

fn main() {
    let args = CLI.parse();
    let (size, apps) = (args.size(), args.apps());

    let big_only = Setup::o3(4);
    let tiny_only = Setup {
        label: "tiny60/MESI".to_owned(),
        sys: SystemConfig::tiny_only(60, Protocol::Mesi),
        rt: bigtiny_core::RuntimeConfig::new(RuntimeKind::Baseline),
    };
    let combined = Setup::bt_mesi();

    let header: Vec<String> =
        ["Name", "4 big only", "60 tiny only", "4 big + 60 tiny", "combined / best half"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    let mut gains = Vec::new();
    for app in &apps {
        let b = run_app(&big_only, app, size, 0).cycles;
        let t = run_app(&tiny_only, app, size, 0).cycles;
        let c = run_app(&combined, app, size, 0).cycles;
        eprintln!("[collab] {}", app.name);
        let gain = b.min(t) as f64 / c as f64;
        gains.push(gain);
        rows.push(vec![
            app.name.to_owned(),
            b.to_string(),
            t.to_string(),
            c.to_string(),
            format!("{gain:.2}x"),
        ]);
    }
    rows.push(vec![
        "geomean".to_owned(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}x", geomean(gains)),
    ]);
    println!("Collaborative execution on big.TINY/MESI ({size:?} inputs): cycles\n");
    println!("{}", render_table(&header, &rows));
    println!("Expected: the combined machine beats both the big-only and tiny-only halves,");
    println!("because the work-stealing runtime load-balances across heterogeneous cores.");
}
