//! `model_check`: DPOR exploration of the schedule space of tiny configs.
//!
//! The conformance sweep (`check_all`) validates every kernel on exactly
//! one schedule per config — the sequencer's default `MinCore` tie-break.
//! This bin turns that single-trace check into a bounded proof over the
//! *schedule space*: for each kernel × setup it walks the sequencer's
//! tie-break choice tree with `bigtiny_checker::explore` (persistent-set
//! DFS + partial-order reduction), re-running the system under
//! `SchedulePolicy::Scripted` with the DRF checker armed, and has the
//! harness's one judge (`bigtiny_bench::judge`: kernel `verify()`, zero
//! stale reads, cycle conservation, the task-event audit and the three
//! checker passes) decide every explored schedule. The explorer adds
//! final-memory fingerprint invariance (schedule-deterministic kernels
//! only), which doubles as the per-`RacyTag` idempotence-safety pass.
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
//! seeded `MutationKind::DupTask` so the sweep proves the judge's
//! checks and fingerprint invariance hold with a duplicate execution
//! present under every explored tie-break.
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

use bigtiny_apps::{app_by_name, AppSpec};
use bigtiny_bench::{cli, render_table, run_scripted, Setup, FIB};
use bigtiny_checker::explore::{explore, ExploreBudget, ExploreReport};
use bigtiny_checker::kernel_is_duplicate_safe;
use bigtiny_obs::Json;

const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[&cli::MC_OUT, &cli::MC_SCHEDULES, &cli::MC_DEPTH, &cli::MC_APPS],
);

/// Kernels with schedule-deterministic output (plus the local `fib`).
const MC_APPS: &[&str] =
    &["fib", "cilk5-nq", "cilk5-cs", "cilk5-mt", "ligra-bf", "ligra-cc", "ligra-tc"];

fn spec(app: &str) -> AppSpec {
    if app == FIB.name {
        FIB
    } else {
        app_by_name(app).expect("validated by the parser")
    }
}

/// One cell's verdict row, through the workspace's one JSON writer.
fn json_row(app: &str, cell: &Setup, r: &ExploreReport) -> Json {
    let flag = |b: bool| Json::u64(u64::from(b));
    let script = r.failures.first().map_or(String::new(), |f| {
        f.script.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
    });
    let fields = [
        ("app", Json::str(app)),
        ("setup", Json::str(&cell.label)),
        ("policy", Json::lit(cell.rt.deque_kind.label())),
        ("dup_injected", flag(cell.dup_injected())),
        ("explored", Json::u64(r.schedules_explored)),
        ("pruned", Json::u64(r.schedules_pruned)),
        ("max_depth", Json::u64(r.max_depth as u64)),
        ("truncated", flag(r.truncated)),
        ("clean", flag(r.is_clean())),
        ("failures", Json::u64(r.failures.len() as u64)),
        ("first_fail_script", Json::str(script)),
        ("fingerprint_invariant", flag(r.fingerprint_invariant)),
        ("tags_schedule_invariant", flag(r.tags.iter().all(|t| t.schedule_invariant))),
        ("tags_fired", Json::u64(r.tags.iter().filter(|t| t.schedules_fired > 0).count() as u64)),
    ];
    Json::Obj(fields.into_iter().map(|(key, v)| (key.to_owned(), v)).collect())
}

/// The verdict document: the envelope and every row through the same
/// writer, laid out one row per line so that a diff names the cell.
fn verdict_doc(budget: &ExploreBudget, rows: &[Json]) -> String {
    let count = |n: usize| Json::u64(n as u64);
    let envelope = Json::Obj(vec![
        ("schema".to_owned(), Json::lit("bigtiny-model-check-v2")),
        (
            "budget".to_owned(),
            Json::Obj(vec![
                ("max_schedules".to_owned(), count(budget.max_schedules)),
                ("max_choice_points".to_owned(), count(budget.max_choice_points)),
            ]),
        ),
        ("runs".to_owned(), Json::Arr(Vec::new())),
    ])
    .to_json();
    let head = envelope.strip_suffix("]}").expect("the envelope ends with its empty run list");
    let rows: Vec<String> = rows.iter().map(Json::to_json).collect();
    format!("{head}\n{}\n]}}\n", rows.join(",\n"))
}

fn main() {
    let args = CLI.parse();
    let budget = ExploreBudget {
        max_choice_points: args.get(&cli::MC_DEPTH),
        max_schedules: args.get(&cli::MC_SCHEDULES),
    };
    let apps = args.names(&cli::MC_APPS).unwrap_or_else(|| MC_APPS.to_vec());
    let cells = Setup::model_check_cells();

    let header: Vec<String> = ["app", "setup", "policy", "explored", "pruned", "depth", "verdict"]
        .map(String::from)
        .to_vec();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut dirty = 0usize;

    for app in &apps {
        let spec = spec(app);
        for setup in &cells {
            // The multiplicity policies may legitimately re-execute a task;
            // that is only sound for kernels on the *duplicate-safe*
            // whitelist (strictly stronger than respawn idempotence:
            // `fib`'s and nqueens' accumulators survive a cut-short
            // respawn but double-count a completed task run twice).
            if setup.rt.deque_kind.multiplicity() && !kernel_is_duplicate_safe(app) {
                continue;
            }
            let report = explore(&budget, |script| run_scripted(setup, &spec, script));
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
            json_rows.push(json_row(app, setup, &report));
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

    let doc = verdict_doc(&budget, &json_rows);
    let out_path = args.text(&cli::MC_OUT).expect("has a default");
    std::fs::write(out_path, doc).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[model_check] wrote {out_path}");

    if dirty > 0 {
        eprintln!("[model_check] {dirty} cell(s) schedule-dependent");
        std::process::exit(1);
    }
    println!("all {} cells schedule-independent within budget", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_checker::explore::ExploreFailure;

    /// The exact bytes of a verdict document with one row, key order and
    /// layout included: `MODEL_CHECK_verdicts.json` readers depend on both.
    #[test]
    fn a_verdict_row_has_pinned_bytes() {
        let cell = Setup::model_check_cells().swap_remove(3);
        let report = ExploreReport {
            schedules_explored: 24,
            schedules_pruned: 7,
            max_depth: 5,
            truncated: true,
            failures: vec![ExploreFailure { script: vec![0, 1, 1], what: String::new() }],
            fingerprint_invariant: true,
            divergent_fingerprint: None,
            tags: Vec::new(),
        };
        let row = json_row("fib", &cell, &report);
        let want = concat!(
            r#"{"app":"fib","setup":"tiny2/MESI-ff+dup","policy":"fence-free","dup_injected":1,"#,
            r#""explored":24,"pruned":7,"max_depth":5,"truncated":1,"clean":0,"failures":1,"#,
            r#""first_fail_script":"0,1,1","fingerprint_invariant":1,"#,
            r#""tags_schedule_invariant":1,"tags_fired":0}"#,
        );
        assert_eq!(row.to_json(), want);
        let budget = ExploreBudget { max_choice_points: 5, max_schedules: 24 };
        assert_eq!(
            verdict_doc(&budget, &[row.clone(), row]),
            format!(
                "{{\"schema\":\"bigtiny-model-check-v2\",\"budget\":{{\"max_schedules\":24,\
                 \"max_choice_points\":5}},\"runs\":[\n{want},\n{want}\n]}}\n"
            )
        );
    }
}
