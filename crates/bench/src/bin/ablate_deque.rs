//! Deque-policy ablation: where do the AMO/fence cycles go?
//!
//! Sweeps the four deque policies (locked, Chase-Lev, fence-free with
//! multiplicity, idempotent) on the hardware-coherent baseline, next to
//! the HCC and HCC-DTS configurations (whose runtimes always use the
//! locked deque protocol — DTS is the *hardware* route to the same AMO
//! savings the software policies chase). Every cell reports the
//! critical-path profiler's cycle-conservation buckets, so the table
//! answers directly how many core-cycles each policy spends on atomics,
//! invalidations, flushes, and steal protocol.
//!
//! Correctness is gated, not assumed. Every run is decided by the
//! harness's one judge (`bigtiny_bench::judge`): kernel verification,
//! zero stale reads, the exact cycle-conservation identity, and the
//! task-event audit — in `Multiplicity` mode (at-most-twice,
//! thief-primary, duplicate-safe kernel) on the fence-free and idempotent
//! cells, exactly-once elsewhere. Two forced-duplicate cells (a `DupTask`
//! mutation on each multiplicity policy) must actually run a duplicate,
//! so "no duplicates happened to occur" can never masquerade as
//! "duplicates are safe", and an exactly-once cell must run none.
//!
//! `--metrics-out PATH` writes the v3 metrics document (per-run
//! `deque_policy` label + `steals.lifecycle.duplicate_executions`); CI
//! diffs it against the committed `results/metrics_deque_test.json` at
//! threshold 0.

use bigtiny_apps::app_by_name;
use bigtiny_bench::live::{metrics_doc, write_doc};
use bigtiny_bench::{cli, render_table, try_run_app, Setup};
use bigtiny_checker::kernel_is_duplicate_safe;
use bigtiny_obs::CycleConservation;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::METRICS_OUT, &cli::SIZE]);

/// The kernel set: every member must be duplicate-safe, because the
/// multiplicity policies may re-execute a completed task. The main
/// asserts this against the checker's whitelist so the two lists cannot
/// drift apart.
const KERNELS: [&str; 6] =
    ["cilk5-cs", "cilk5-mt", "ligra-bf", "ligra-bfs", "ligra-cc", "ligra-tc"];

fn main() {
    let args = CLI.parse();
    let size = args.size();
    for k in KERNELS {
        assert!(
            kernel_is_duplicate_safe(k),
            "{k} is in the ablation kernel set but not on DUPLICATE_SAFE_KERNELS"
        );
    }
    let cells = Setup::deque_ablation();

    println!("Deque-policy ablation ({size:?} inputs, {} kernels x {} cells)\n", KERNELS.len(), {
        cells.len()
    });

    let mut results = Vec::new();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for name in KERNELS {
        let app = app_by_name(name).expect("registered kernel");
        for cell in &cells {
            let judged = try_run_app(cell, &app, size, 0);
            let gate = judged.result.as_ref().and_then(|r| cell.duplicate_gate(r));
            if !judged.verdict.is_clean() || gate.is_some() {
                let why = judged.verdict.render() + gate.as_deref().unwrap_or_default();
                eprintln!("[ablate_deque] FAIL {name} @ {}:\n{why}", cell.label);
                failures += 1;
            }
            let Some(r) = judged.result else { continue };
            let cons = CycleConservation::from_report(&r.run.report);
            let dups = r.run.stats.duplicate_executions;
            rows.push(vec![
                name.to_owned(),
                r.setup.clone(),
                r.deque_policy.to_owned(),
                r.cycles.to_string(),
                cons.amo.to_string(),
                cons.invalidate.to_string(),
                cons.flush.to_string(),
                cons.steal_protocol.to_string(),
                cons.idle.to_string(),
                r.tiny_mem().amos.to_string(),
                dups.to_string(),
            ]);
            results.push(r);
        }
    }

    let header: Vec<String> = [
        "App",
        "Config",
        "policy",
        "cycles",
        "amo-cyc",
        "inval-cyc",
        "flush-cyc",
        "steal-cyc",
        "idle-cyc",
        "AMOs",
        "dups",
    ]
    .map(String::from)
    .to_vec();
    println!("{}", render_table(&header, &rows));

    // Per-policy totals over the MESI cells: the headline "where do the
    // AMO cycles go" comparison, software policies against each other and
    // against the DTS hardware route.
    {
        let mut totals: Vec<(String, u64, u64, u64, u64)> = Vec::new();
        for r in &results {
            // Forced-dup cells are audit fixtures, not comparison points.
            if r.setup.ends_with("-dup") {
                continue;
            }
            let cons = CycleConservation::from_report(&r.run.report);
            let key = format!("{} [{}]", r.setup.split('-').next().unwrap_or(&r.setup), {
                r.deque_policy
            });
            let key = if r.setup.contains("DTS") {
                format!("{} +DTS", key)
            } else if r.setup.contains("HCC") {
                format!("{} -DTS", key)
            } else {
                key
            };
            match totals.iter_mut().find(|(k, ..)| *k == key) {
                Some(t) => {
                    t.1 += r.cycles;
                    t.2 += cons.amo;
                    t.3 += r.tiny_mem().amos;
                    t.4 += r.run.stats.duplicate_executions;
                }
                None => totals.push((
                    key,
                    r.cycles,
                    cons.amo,
                    r.tiny_mem().amos,
                    r.run.stats.duplicate_executions,
                )),
            }
        }
        let header: Vec<String> =
            ["Policy cell", "sum cycles", "sum amo-cyc", "sum AMOs", "sum dups"]
                .map(String::from)
                .to_vec();
        let rows: Vec<Vec<String>> = totals
            .iter()
            .map(|(k, cyc, amo, amos, dups)| {
                vec![k.clone(), cyc.to_string(), amo.to_string(), amos.to_string(), {
                    dups.to_string()
                }]
            })
            .collect();
        println!("Per-policy totals over the kernel set\n{}", render_table(&header, &rows));
    }

    if let Some(path) = args.text(&cli::METRICS_OUT) {
        write_doc(path, &metrics_doc(&results));
        println!("[ablate_deque] metrics document ({} runs) -> {path}", results.len());
    }

    if failures > 0 {
        eprintln!("[ablate_deque] FAIL: {failures} gate(s) tripped");
        std::process::exit(1);
    }
    println!("[ablate_deque] OK: {} runs, all conservation + audit gates clean", results.len());
}
