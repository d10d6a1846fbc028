//! Ablation: Ligra's dense-only traversal (what the paper's evaluation
//! measures) vs the hybrid sparse/dense `edge_map_auto` extension, on BFS —
//! sparse iteration pays off when frontiers are small relative to the graph.

use std::sync::Arc;

use bigtiny_apps::graph::Graph;
use bigtiny_apps::ligra::{edge_map, edge_map_auto, VertexSubset};
use bigtiny_bench::{cli, render_table, Setup};
use bigtiny_core::run_task_parallel;
use bigtiny_engine::{AddrSpace, Protocol, RacyTag, ShVec};

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[]);

const UNVISITED: u64 = u64::MAX;

fn bfs_run(setup: &Setup, n: usize, ef: usize, auto: bool) -> (u64, u64) {
    let mut space = AddrSpace::new();
    let g = Arc::new(Graph::rmat(&mut space, n, ef, 0xbf5));
    let n = g.num_vertices();
    let src = g.first_nonisolated();
    let parent = Arc::new(ShVec::new(&mut space, n, UNVISITED));
    parent.host_write(src, src as u64);
    let cur = Arc::new(VertexSubset::new(&mut space, n));
    let nxt = Arc::new(VertexSubset::new(&mut space, n));
    cur.host_insert(src);

    let g2 = Arc::clone(&g);
    let p0 = Arc::clone(&parent);
    let run = run_task_parallel(&setup.sys, &setup.rt, &mut space, move |cx| {
        let mut cur = cur;
        let mut nxt = nxt;
        loop {
            let (pc, pu) = (Arc::clone(&p0), Arc::clone(&p0));
            // Benign race (LigraCondProbe): stale probe; the CAS decides.
            let cond = move |cx: &mut bigtiny_core::TaskCx<'_>, d: usize| {
                pc.read_racy(cx.port(), d, RacyTag::LigraCondProbe) == UNVISITED
            };
            let update = move |cx: &mut bigtiny_core::TaskCx<'_>, s: usize, d: usize, _| {
                pu.cas(cx.port(), d, UNVISITED, s as u64)
            };
            if auto {
                edge_map_auto(cx, &g2, &cur, &nxt, 128, cond, update);
            } else {
                edge_map(cx, &g2, &cur, &nxt, 128, cond, update);
            }
            if nxt.count(cx) == 0 {
                break;
            }
            std::mem::swap(&mut cur, &mut nxt);
            nxt.par_clear(cx, 128);
        }
    });
    assert_eq!(run.report.stale_reads, 0);
    // Sanity: reachable set is nonempty beyond the source.
    assert!(parent.snapshot().iter().filter(|p| **p != UNVISITED).count() > 1);
    (run.report.completion_cycles, run.report.total_instructions())
}

fn main() {
    CLI.parse();
    let header: Vec<String> = [
        "Config",
        "graph",
        "dense cycles",
        "auto cycles",
        "auto/dense",
        "dense insts",
        "auto insts",
    ]
    .map(String::from)
    .to_vec();
    let mut rows = Vec::new();
    for setup in [Setup::bt_mesi(), Setup::bt_hcc(Protocol::GpuWb, true)] {
        for (n, ef) in [(4096usize, 8usize), (16384, 4)] {
            let (dc, di) = bfs_run(&setup, n, ef, false);
            let (ac, ai) = bfs_run(&setup, n, ef, true);
            eprintln!("[ablate_sparse] {} n={n}", setup.label);
            rows.push(vec![
                setup.label.clone(),
                format!("rmat-{n}x{ef}"),
                dc.to_string(),
                ac.to_string(),
                format!("{:.3}", ac as f64 / dc as f64),
                di.to_string(),
                ai.to_string(),
            ]);
        }
    }
    println!("Dense vs hybrid sparse/dense edge_map (BFS)\n");
    println!("{}", render_table(&header, &rows));
    println!("Expected: auto <= dense, with the gap widening on larger, sparser graphs");
    println!("(small frontiers dominate more of the BFS rounds).");
}
