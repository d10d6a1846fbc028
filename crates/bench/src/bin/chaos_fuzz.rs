//! `chaos_fuzz`: sample random fault plans, check the self-healing
//! invariants under each, and shrink any failure to a minimal reproducer.
//!
//! Each sampled plan runs the kernel list (restricted by `BIGTINY_APPS`,
//! sized by `BIGTINY_SIZE`) on the 16-core DTS fault-ablation machine with
//! the watchdog armed and task events recorded. A plan fails on the first
//! dirty verdict of the harness's one judge (`bigtiny_bench::judge`): a
//! panic (watchdog abort, poison), kernel verification, stale reads,
//! cycle conservation or the task-event audit. On failure the plan is shrunk — whole dimensions
//! dropped, crash-core mask bit-shrunk, magnitudes binary-searched — and
//! the minimal plan prints as an `eval_all --fault-plan <spec>` command.
//!
//! Usage:
//!
//! ```text
//! BIGTINY_SIZE=test cargo run --release --bin chaos_fuzz -- --budget 25 --seed 1
//! ```
//!
//! Exit status: 0 when every sampled plan survives, 1 on a reproduced
//! failure, 2 on usage errors.

use bigtiny_bench::cli;
use bigtiny_bench::fuzz::{check_app, check_plan, plan_dimensions, sample_plan, shrink_plan};
use bigtiny_bench::live::Harness;
use bigtiny_engine::{FaultPlan, XorShift64};

/// `--heartbeat-out` streams from every probe run; `--blackbox-out` gets
/// the crash-time bundle of a failing plan whose probe run failed (a
/// watchdog trip, a worker panic).
const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[&cli::BUDGET, &cli::SEED, &cli::HEARTBEAT_OUT, &cli::BLACKBOX_OUT, &cli::SIZE, &cli::APPS],
);

fn main() {
    let args = CLI.parse();
    let (budget, seed) = (args.get(&cli::BUDGET), args.get(&cli::SEED));
    let harness = Harness::new(&args);
    let size = harness.size;
    let mut rng = XorShift64::new(seed);
    println!(
        "[chaos] fuzzing {budget} plans (seed {seed:#x}) over {} kernel(s) at {size:?}",
        harness.apps.len()
    );

    for i in 1..=budget {
        let plan = sample_plan(&mut rng);
        let t0 = std::time::Instant::now();
        // Probing intentionally panics on broken runs; keep the default
        // hook's backtrace chatter off the fuzzing log.
        let failed = quiet(|| check_plan(&plan, &harness));
        match failed {
            None => {
                println!(
                    "[chaos] {i:>3}/{budget} ok    {:<60} ({:.1}s)",
                    plan.to_spec(),
                    t0.elapsed().as_secs_f64()
                );
            }
            Some(failure) => {
                println!("[chaos] {i:>3}/{budget} FAIL  {}", plan.to_spec());
                println!("[chaos] {}: {}", failure.app, failure.message);
                // A failed probe run (watchdog trip, worker panic) handed
                // back a crash-time bundle; audit-only failures did not.
                harness.dump_bundle(failure.bundle.as_ref());
                let app = bigtiny_apps::app_by_name(failure.app).expect("failing app exists");
                println!("[chaos] shrinking against {}...", failure.app);
                let mut fails = |p: &FaultPlan| quiet(|| check_app(p, &app, size)).is_some();
                let min = shrink_plan(&plan, &mut fails);
                println!(
                    "[chaos] minimal reproducer ({} dimension(s)): {}",
                    plan_dimensions(&min),
                    min.to_spec()
                );
                println!(
                    "[chaos]   BIGTINY_SIZE={size_env} BIGTINY_APPS={app} cargo run --release \
                     --bin eval_all -- --fault-plan '{spec}' --fault-seed {fseed}",
                    size_env = format!("{size:?}").to_lowercase(),
                    app = failure.app,
                    spec = min.to_spec(),
                    fseed = min.seed,
                );
                std::process::exit(1);
            }
        }
    }
    println!("[chaos] all {budget} sampled plans survived: every run verified, audited clean");
}

/// Runs `f` with the panic hook silenced (probe panics are expected and
/// caught; their default-hook output would drown the fuzzing log).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}
