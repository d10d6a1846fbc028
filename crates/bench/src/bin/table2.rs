//! Table II: simulated-system configuration, printed from the live
//! `SystemConfig`/`MemConfig` values.

use bigtiny_bench::cli;
use bigtiny_engine::{CoreKind, SystemConfig};

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[]);

fn main() {
    CLI.parse();
    let cfg = SystemConfig::big_tiny_mesi();
    let mem = cfg.mem_config();
    let topo = cfg.topology();
    let big = cfg.cores.iter().find(|c| c.kind == CoreKind::Big).expect("has big cores");
    let tiny = cfg.cores.iter().find(|c| c.kind == CoreKind::Tiny).expect("has tiny cores");

    println!("Table II: Simulator Configuration ({})\n", cfg.name);
    println!(
        "Tiny Core     single-issue in-order, 1 IPC non-memory; L1D: {} KB, {}-way, 1-cycle hit",
        tiny.mem.l1_bytes / 1024,
        tiny.mem.l1_ways
    );
    println!(
        "Big Core      {}-wide out-of-order (memory stall / {}); L1D: {} KB, {}-way, 1-cycle hit",
        cfg.big_issue_width,
        cfg.big_overlap_div,
        big.mem.l1_bytes / 1024,
        big.mem.l1_ways
    );
    println!(
        "L2 Cache      shared, {}-way, {} banks x {} KB (one bank per mesh column)",
        mem.l2_ways,
        topo.num_banks(),
        mem.l2_bank_bytes / 1024
    );
    println!(
        "OCN           {}x{} mesh, XY routing, 16 B flits, 1-cycle channel + 1-cycle router",
        topo.rows(),
        topo.cols()
    );
    println!(
        "Main Memory   {} DRAM controllers (one per column), {}-cycle access, {} cycles/line occupancy",
        topo.num_banks(),
        mem.dram_latency,
        mem.dram_cycles_per_line
    );
    println!(
        "Cores         {} total: {} big + {} tiny; ULI interrupt cost {} (tiny) / {} (big) cycles",
        cfg.num_cores(),
        cfg.num_big(),
        cfg.tiny_cores().len(),
        cfg.uli_cost_tiny,
        cfg.uli_cost_big
    );
}
