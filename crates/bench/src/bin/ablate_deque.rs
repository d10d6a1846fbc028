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
//! Correctness is gated, not assumed:
//!
//! * every run passes kernel verification and the zero-stale-reads
//!   invariant (`run_app` panics otherwise);
//! * the cycle-conservation identity must hold exactly on every cell;
//! * multiplicity cells (fence-free / idempotent) run the task-event
//!   audit in `Multiplicity` mode — at-most-twice, thief-primary,
//!   duplicate-safe kernel — and two forced-duplicate cells (a `DupTask`
//!   mutation on each multiplicity policy) prove the audit passes with
//!   duplicates *actually present*, so "no duplicates happened to occur"
//!   can never masquerade as "duplicates are safe".
//!
//! `--metrics-out PATH` writes the v3 metrics document (per-run
//! `deque_policy` label + `steals.lifecycle.duplicate_executions`); CI
//! diffs it against the committed `results/metrics_deque_test.json` at
//! threshold 0.

use bigtiny_apps::app_by_name;
use bigtiny_bench::live::{metrics_doc, write_doc};
use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_checker::{audit_task_events_mode, kernel_is_duplicate_safe, AuditMode};
use bigtiny_core::{DequeKind, Mutation, MutationKind};
use bigtiny_engine::Protocol;
use bigtiny_obs::CycleConservation;

const CLI: cli::Spec = cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::METRICS_OUT, &cli::SIZE]);

/// The kernel set: every member must be duplicate-safe, because the
/// multiplicity policies may re-execute a completed task. The main
/// asserts this against the checker's whitelist so the two lists cannot
/// drift apart.
const KERNELS: [&str; 6] =
    ["cilk5-cs", "cilk5-mt", "ligra-bf", "ligra-bfs", "ligra-cc", "ligra-tc"];

/// One sweep cell: a setup plus whether a `DupTask` mutation is armed.
struct Cell {
    setup: Setup,
    dup_injected: bool,
}

fn cells() -> Vec<Cell> {
    let mut v = Vec::new();
    let mesi = |suffix: &str, kind: DequeKind, dup: bool| -> Cell {
        let mut s = Setup::bt_mesi();
        s.rt.deque_kind = kind;
        s.rt.record_task_events = true;
        s.label.push_str(suffix);
        if dup {
            // Re-execute the task claimed by core 0's first clean local
            // pop: the root spawns there, so the duplicate always lands.
            s.rt.mutation = Some(Mutation { kind: MutationKind::DupTask, core: 0, nth: 0 });
        }
        Cell { setup: s, dup_injected: dup }
    };
    v.push(mesi("", DequeKind::Locked, false));
    v.push(mesi("-cl", DequeKind::ChaseLev, false));
    v.push(mesi("-ff", DequeKind::FenceFree, false));
    v.push(mesi("-idem", DequeKind::Idempotent, false));
    // The hardware alternatives, DTS off and on (locked deque protocol).
    for dts in [false, true] {
        let mut s = Setup::bt_hcc(Protocol::DeNovo, dts);
        s.rt.record_task_events = true;
        v.push(Cell { setup: s, dup_injected: false });
    }
    // Forced-duplicate audit cells, one per multiplicity policy.
    v.push(mesi("-ff-dup", DequeKind::FenceFree, true));
    v.push(mesi("-idem-dup", DequeKind::Idempotent, true));
    v
}

fn main() {
    let args = CLI.parse();
    let size = args.size();
    for k in KERNELS {
        assert!(
            kernel_is_duplicate_safe(k),
            "{k} is in the ablation kernel set but not on DUPLICATE_SAFE_KERNELS"
        );
    }
    let cells = cells();

    println!("Deque-policy ablation ({size:?} inputs, {} kernels x {} cells)\n", KERNELS.len(), {
        cells.len()
    });

    let mut results = Vec::new();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    for name in KERNELS {
        let app = app_by_name(name).expect("registered kernel");
        for cell in &cells {
            let r = run_app(&cell.setup, &app, size, 0);

            let cons = CycleConservation::from_report(&r.run.report);
            if !cons.holds() {
                eprintln!(
                    "[ablate_deque] FAIL {name} @ {}: conservation broken: buckets {} != {}",
                    r.setup,
                    cons.bucket_sum(),
                    cons.total_core_cycles
                );
                failures += 1;
            }

            // The policy's execution contract, checked on the recorded
            // task events: exactly-once everywhere except the
            // multiplicity policies, which get the at-most-twice audit.
            let mode = AuditMode::for_run(&cell.setup.rt, false);
            let audit = audit_task_events_mode(&r.run.task_events, mode, name);
            if !audit.is_clean() {
                eprintln!("[ablate_deque] FAIL {name} @ {}: audit:\n{}", r.setup, audit.render());
                failures += 1;
            }
            let dups = r.run.stats.duplicate_executions;
            if cell.dup_injected && dups == 0 {
                eprintln!(
                    "[ablate_deque] FAIL {name} @ {}: DupTask armed but no duplicate ran",
                    r.setup
                );
                failures += 1;
            }
            if !mode.multiplicity() && dups > 0 {
                eprintln!(
                    "[ablate_deque] FAIL {name} @ {}: {dups} duplicates under an \
                     exactly-once policy",
                    r.setup
                );
                failures += 1;
            }

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
