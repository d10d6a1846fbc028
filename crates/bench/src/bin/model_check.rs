//! `model_check`: DPOR exploration of the schedule space of tiny configs.
//!
//! The conformance sweep (`check_all`) validates every kernel on exactly
//! one schedule per config — the sequencer's default `MinCore` tie-break.
//! This bin turns that single-trace check into a bounded proof over the
//! *schedule space*: for each kernel × setup it walks the sequencer's
//! tie-break choice tree with `bigtiny_checker::explore` (persistent-set
//! DFS + partial-order reduction), re-running the system under
//! `SchedulePolicy::Scripted` and applying the full battery to every
//! explored schedule:
//!
//! - the three checker passes (happens-before races, staleness replay,
//!   sync-discipline lint),
//! - kernel `verify()` against the host reference,
//! - the zero-stale-reads and cycle-conservation invariants,
//! - the task-event recovery audit,
//! - final-memory fingerprint invariance (schedule-deterministic kernels
//!   only), which doubles as the per-`RacyTag` idempotence-safety pass.
//!
//! Kernels: a local 2-core `fib` micro-kernel (pure spawn/sync + one AMO
//! accumulator — the smallest interesting steal pattern) plus the six
//! registry kernels with schedule-deterministic outputs. Setups: 2-core
//! tiny-only machines under MESI/Baseline (one cell per deque policy:
//! locked, Chase-Lev, fence-free, idempotent), DeNovo/HCC, and
//! DeNovo/HCC-DTS. The multiplicity policies (fence-free, idempotent)
//! audit their task-event streams in the checker's `Multiplicity` mode
//! (at-most-twice with idempotent side-effects) and run only the
//! idempotence-whitelisted kernels; each also gets a `+dup` cell with a
//! seeded [`MutationKind::DupTask`] so the sweep proves the battery,
//! kernel `verify()`, and fingerprint invariance hold with a duplicate
//! execution present under every explored tie-break.
//!
//! Writes a nested JSON verdict document (schema
//! `bigtiny-model-check-v2`, which added the per-cell `policy` and
//! `dup_injected` keys) to `MODEL_CHECK_verdicts.json` (or
//! `$BIGTINY_MC_OUT`), validated in CI by `json_check`. Env knobs:
//! `BIGTINY_MC_SCHEDULES` (execution budget per cell, default 24),
//! `BIGTINY_MC_DEPTH` (choice-point depth budget, default 5),
//! `BIGTINY_MC_APPS` (comma-separated subset of the kernel list).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin model_check                  # full sweep
//! BIGTINY_MC_APPS=fib cargo run --release --bin model_check
//! ```
//!
//! Replaying a repro: a failure row carries the minimal choice script;
//! re-run the same config with
//! `SystemConfig::with_schedule(SchedulePolicy::Scripted(script))` to
//! land on the failing schedule deterministically.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bigtiny_apps::{app_by_name, AppSize, Prepared, RootFn};
use bigtiny_bench::{cli, render_table, Setup};
use bigtiny_checker::explore::{explore, ExploreBudget, ExploreReport, ScheduleOutcome};
use bigtiny_checker::{audit_task_events_mode, check_run, kernel_is_duplicate_safe, AuditMode};
use bigtiny_core::{
    parallel_invoke, run_task_parallel, DequeKind, Mutation, MutationKind, RuntimeConfig,
    RuntimeKind, TaskCx,
};
use bigtiny_engine::{AddrSpace, CheckMode, Protocol, SchedulePolicy, ShScalar, SystemConfig};
use bigtiny_obs::CycleConservation;

const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[&cli::MC_OUT, &cli::MC_SCHEDULES, &cli::MC_DEPTH, &cli::MC_APPS],
);

/// Kernels with schedule-deterministic output (plus the local `fib`).
const MC_APPS: &[&str] =
    &["fib", "cilk5-nq", "cilk5-cs", "cilk5-mt", "ligra-bf", "ligra-cc", "ligra-tc"];

/// Simulated-core count of every explored config.
const CORES: usize = 2;

fn fib_body(cx: &mut TaskCx<'_>, n: u64, acc: Arc<ShScalar<u64>>) {
    if n < 2 {
        cx.port().advance(2);
        if n == 1 {
            acc.amo(cx.port(), |c| *c += 1);
        }
        return;
    }
    let (a, b) = (Arc::clone(&acc), acc);
    parallel_invoke(cx, move |cx| fib_body(cx, n - 1, a), move |cx| fib_body(cx, n - 2, b));
}

/// The local micro-kernel: `fib(8)` counted by one-AMO-per-leaf, the
/// smallest workload that steals, joins, and contends on one word.
fn fib_prepared(space: &mut AddrSpace) -> Prepared {
    const N: u64 = 8;
    const WANT: u64 = 21;
    let acc = Arc::new(ShScalar::new(space, 0u64));
    let (a2, a3) = (Arc::clone(&acc), Arc::clone(&acc));
    let root: RootFn = Box::new(move |cx| fib_body(cx, N, a2));
    let verify = Box::new(move || {
        let got = acc.host_read();
        if got == WANT {
            Ok(())
        } else {
            Err(format!("fib: counted {got}, expected {WANT}"))
        }
    });
    Prepared { root, verify, fingerprint: Some(Box::new(move || a3.host_read())) }
}

fn prepare(app: &str, space: &mut AddrSpace) -> Prepared {
    if app == "fib" {
        fib_prepared(space)
    } else {
        let spec = app_by_name(app).expect("validated by the parser");
        spec.prepare_default(space, AppSize::Test)
    }
}

/// One sweep cell: a setup (whose `rt.deque_kind` is the policy under
/// test) plus whether a `DupTask` mutation is armed.
struct Cell {
    setup: Setup,
    dup_injected: bool,
}

fn mc_cells() -> Vec<Cell> {
    let rt = |kind| {
        let mut rt = RuntimeConfig::new(kind);
        rt.record_task_events = true;
        rt
    };
    let baseline = |suffix: &str, deque: DequeKind, dup: bool| {
        let mut rt = rt(RuntimeKind::Baseline);
        rt.deque_kind = deque;
        if dup {
            // Seed one permitted duplicate: re-execute the task claimed by
            // core 0's first clean local pop. Core 0 always pops (the root
            // spawns there), so the duplicate lands on every schedule.
            rt.mutation = Some(Mutation { kind: MutationKind::DupTask, core: 0, nth: 0 });
        }
        Cell {
            setup: Setup {
                label: format!("tiny{CORES}/MESI{suffix}"),
                sys: SystemConfig::tiny_only(CORES, Protocol::Mesi),
                rt,
            },
            dup_injected: dup,
        }
    };
    vec![
        baseline("", DequeKind::Locked, false),
        baseline("-cl", DequeKind::ChaseLev, false),
        baseline("-ff", DequeKind::FenceFree, false),
        baseline("-ff+dup", DequeKind::FenceFree, true),
        baseline("-idem", DequeKind::Idempotent, false),
        baseline("-idem+dup", DequeKind::Idempotent, true),
        Cell {
            setup: Setup {
                label: format!("tiny{CORES}/HCC-dnv"),
                sys: SystemConfig::tiny_only(CORES, Protocol::DeNovo),
                rt: rt(RuntimeKind::Hcc),
            },
            dup_injected: false,
        },
        Cell {
            setup: Setup {
                label: format!("tiny{CORES}/HCC-DTS-dnv"),
                sys: SystemConfig::tiny_only(CORES, Protocol::DeNovo),
                rt: rt(RuntimeKind::Dts),
            },
            dup_injected: false,
        },
    ]
}

/// Executes one scripted schedule of `app` on `setup` and gathers the
/// full battery's verdicts.
fn run_scripted(setup: &Setup, app: &str, script: &[u32]) -> ScheduleOutcome {
    let sys = setup
        .sys
        .clone()
        .with_check(CheckMode::Full)
        .with_schedule(SchedulePolicy::Scripted(script.to_vec()));
    let mut space = AddrSpace::new();
    let prepared = prepare(app, &mut space);
    let rt = setup.rt.clone();
    let run =
        catch_unwind(AssertUnwindSafe(|| run_task_parallel(&sys, &rt, &mut space, prepared.root)));
    let run = match run {
        Ok(run) => run,
        Err(p) => {
            let what = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic".to_owned());
            return ScheduleOutcome {
                choices: Vec::new(),
                events: Vec::new(),
                report: bigtiny_checker::check_events(&[], CheckMode::Full, &[]),
                failure: Some(format!("panic: {}", what.lines().next().unwrap_or(""))),
                fingerprint: None,
            };
        }
    };
    let report = check_run(&sys, &run.report);
    let mut failure = (prepared.verify)().err();
    if failure.is_none() && run.report.stale_reads > 0 {
        failure = Some(format!("{} stale reads", run.report.stale_reads));
    }
    if failure.is_none() {
        let cons = CycleConservation::from_report(&run.report);
        if !cons.holds() {
            failure = Some(format!(
                "cycle conservation breach: buckets {} != core cycles {}",
                cons.bucket_sum(),
                cons.total_core_cycles
            ));
        }
    }
    if failure.is_none() {
        // Multiplicity policies relax the audit from exactly-once to
        // at-most-twice-with-idempotent-side-effects; everything else
        // keeps the exact contract.
        let mode = AuditMode::for_run(&setup.rt, false);
        let audit = audit_task_events_mode(&run.task_events, mode, app);
        if !audit.is_clean() {
            failure = audit.violations.first().map(|v| format!("audit: {v}"));
        }
    }
    ScheduleOutcome {
        choices: run.report.choice_points.clone(),
        events: run.report.mem_events.clone(),
        report,
        failure,
        fingerprint: prepared.fingerprint.map(|f| f()),
    }
}

fn json_row(app: &str, cell: &Cell, r: &ExploreReport) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"app\":\"{app}\",\"setup\":\"{}\"", cell.setup.label));
    s.push_str(&format!(",\"policy\":\"{}\"", cell.setup.rt.deque_kind.label()));
    s.push_str(&format!(",\"dup_injected\":{}", u8::from(cell.dup_injected)));
    s.push_str(&format!(",\"explored\":{}", r.schedules_explored));
    s.push_str(&format!(",\"pruned\":{}", r.schedules_pruned));
    s.push_str(&format!(",\"max_depth\":{}", r.max_depth));
    s.push_str(&format!(",\"truncated\":{}", u8::from(r.truncated)));
    s.push_str(&format!(",\"clean\":{}", u8::from(r.is_clean())));
    s.push_str(&format!(",\"failures\":{}", r.failures.len()));
    let script = r.failures.first().map_or(String::new(), |f| {
        f.script.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    });
    s.push_str(&format!(",\"first_fail_script\":\"{script}\""));
    s.push_str(&format!(",\"fingerprint_invariant\":{}", u8::from(r.fingerprint_invariant)));
    let tags_ok = r.tags.iter().all(|t| t.schedule_invariant);
    s.push_str(&format!(",\"tags_schedule_invariant\":{}", u8::from(tags_ok)));
    s.push_str(&format!(
        ",\"tags_fired\":{}",
        r.tags.iter().filter(|t| t.schedules_fired > 0).count()
    ));
    s.push('}');
    s
}

fn main() {
    let args = CLI.parse();
    let budget = ExploreBudget {
        max_choice_points: args.get(&cli::MC_DEPTH),
        max_schedules: args.get(&cli::MC_SCHEDULES),
    };
    let apps = args.names(&cli::MC_APPS).unwrap_or_else(|| MC_APPS.to_vec());
    let cells = mc_cells();

    let header: Vec<String> = ["app", "setup", "policy", "explored", "pruned", "depth", "verdict"]
        .map(String::from)
        .to_vec();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut dirty = 0usize;

    for app in &apps {
        for cell in &cells {
            let setup = &cell.setup;
            // The multiplicity policies may legitimately re-execute a task;
            // that is only sound for kernels on the *duplicate-safe*
            // whitelist (strictly stronger than respawn idempotence:
            // `fib`'s and nqueens' accumulators survive a cut-short
            // respawn but double-count a completed task run twice).
            if setup.rt.deque_kind.multiplicity() && !kernel_is_duplicate_safe(app) {
                continue;
            }
            let report = explore(&budget, |script| run_scripted(setup, app, script));
            eprintln!(
                "[model_check] {:<10} {:<22} explored {:>4} pruned {:>4}  {}",
                app,
                setup.label,
                report.schedules_explored,
                report.schedules_pruned,
                if report.is_clean() { "clean" } else { "SCHEDULE-DEPENDENT" },
            );
            if !report.is_clean() {
                dirty += 1;
                eprint!("{}", report.render());
            }
            rows.push(vec![
                (*app).to_owned(),
                setup.label.clone(),
                setup.rt.deque_kind.label().to_owned(),
                report.schedules_explored.to_string(),
                report.schedules_pruned.to_string(),
                format!("{}{}", report.max_depth, if report.truncated { "+" } else { "" }),
                if report.is_clean() {
                    "clean".to_owned()
                } else {
                    format!("{} failing schedule(s)", report.failures.len())
                },
            ]);
            json_rows.push(json_row(app, cell, &report));
        }
    }

    println!(
        "schedule-space sweep ({} kernels x {} cells, budget {} schedules / depth {})\n",
        apps.len(),
        cells.len(),
        budget.max_schedules,
        budget.max_choice_points,
    );
    println!("{}", render_table(&header, &rows));

    let doc = format!(
        "{{\"schema\":\"bigtiny-model-check-v2\",\"budget\":{{\"max_schedules\":{},\"max_choice_points\":{}}},\"runs\":[\n{}\n]}}\n",
        budget.max_schedules,
        budget.max_choice_points,
        json_rows.join(",\n"),
    );
    let out_path = args.text(&cli::MC_OUT).expect("has a default");
    std::fs::write(out_path, doc).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[model_check] wrote {out_path}");

    if dirty > 0 {
        eprintln!("[model_check] {dirty} cell(s) schedule-dependent");
        std::process::exit(1);
    }
    println!("all {} cells schedule-independent within budget", rows.len());
}
