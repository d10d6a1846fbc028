//! Table II: simulated-system configuration, printed from the live
//! `SystemConfig`/`MemConfig` geometry and the machine's timing constants.

use bigtiny_bench::cli;
use bigtiny_coherence::{DRAM_ACCESS_CYCLES, DRAM_LINE_CYCLES};
use bigtiny_engine::{CoreKind, SystemConfig};
use bigtiny_mesh::{CHANNEL_CYCLES, FLIT_BYTES, ROUTER_CYCLES};

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
        "Tiny Core     single-issue in-order, {} IPC non-memory; L1D: {} KB, {}-way, 1-cycle hit",
        CoreKind::Tiny.issue_width(),
        tiny.mem.l1_bytes / 1024,
        tiny.mem.l1_ways
    );
    println!(
        "Big Core      {}-wide out-of-order (memory stall / {}); L1D: {} KB, {}-way, 1-cycle hit",
        CoreKind::Big.issue_width(),
        CoreKind::Big.overlap_div(),
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
        "OCN           {}x{} mesh, XY routing, {FLIT_BYTES} B flits, {CHANNEL_CYCLES}-cycle channel + \
         {ROUTER_CYCLES}-cycle router",
        topo.rows(),
        topo.cols()
    );
    println!(
        "Main Memory   {} DRAM controllers (one per column), {DRAM_ACCESS_CYCLES}-cycle access, \
         {DRAM_LINE_CYCLES} cycles/line occupancy",
        topo.num_banks(),
    );
    println!(
        "Cores         {} total: {} big + {} tiny; ULI interrupt cost {} (tiny) / {} (big) cycles",
        cfg.num_cores(),
        cfg.num_big(),
        cfg.tiny_cores().len(),
        CoreKind::Tiny.uli_cost(),
        CoreKind::Big.uli_cost()
    );
}
