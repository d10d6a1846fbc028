//! Chaos fuzzer: random fault-plan sampling, an invariant runner, and a
//! shrinking pass that reduces any failing plan to a minimal reproducer.
//!
//! The sampler draws [`FaultPlan`]s from a seeded stream, arming each fault
//! dimension independently at realistic magnitudes (crash dimensions
//! included). The invariant runner executes kernels under the plan on the
//! 16-core DTS machine of the fault ablation, with the watchdog armed and
//! task-lifecycle events recorded, and fails the plan on the first dirty
//! verdict of the harness's one judge ([`judge`](crate::judge)): a panic
//! (watchdog abort, poison), kernel verification, stale reads, cycle
//! conservation or the task-event audit. The shrinker then minimizes a
//! failing plan against any still-fails oracle: whole dimensions are
//! dropped to a fixpoint, the crash-core mask is bit-shrunk, and the
//! surviving magnitudes are binary-searched down. The result prints as a
//! `--fault-plan` spec (`FaultPlan::to_spec`) that `eval_all` accepts
//! directly.

use bigtiny_apps::{AppSize, AppSpec};
use bigtiny_core::{RuntimeConfig, RuntimeKind};
use bigtiny_engine::{DiagnosticBundle, FaultPlan, Knob, Protocol, Role, SystemConfig, XorShift64};
use bigtiny_mesh::{MeshConfig, Topology};

use crate::live::Harness;
use crate::{try_run_app, Judged, Setup};

/// One invariant failure: the kernel that broke and why.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Name of the kernel whose run violated an invariant.
    pub app: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// The crash-time bundle, when the run itself failed (a watchdog trip,
    /// a worker panic) rather than only its verdict.
    pub bundle: Option<DiagnosticBundle>,
}

/// The machine the fuzzer drives: the 16-core (1 big + 15 tiny) DTS/gwb
/// system of the fault ablation, with the liveness watchdog armed so a hung
/// plan aborts (and counts as a failure) instead of wedging the fuzzer, and
/// task events recorded for the exactly/at-least-once audit.
pub fn fuzz_setup(plan: FaultPlan) -> Setup {
    let label = format!("chaos[{}]", plan.to_spec());
    let sys = SystemConfig::big_tiny(
        "chaos-fuzz",
        MeshConfig::with_topology(Topology::new(4, 4)),
        1,
        15,
        Protocol::GpuWb,
    )
    .with_faults(plan)
    .with_watchdog(2_000_000);
    let mut rt = RuntimeConfig::new(RuntimeKind::Dts);
    rt.record_task_events = true;
    Setup { label, sys, rt }
}

/// Runs one kernel under `plan` and checks every invariant: the run must
/// complete (no watchdog abort) and its verdict must be clean — the audit
/// exactly-once without a crash dimension, at-least-once with full
/// recovery accounting with one.
pub fn check_app(plan: &FaultPlan, app: &AppSpec, size: AppSize) -> Option<FuzzFailure> {
    probe(plan, app, size, |_| {})
}

/// [`check_app`] with `arm` run on the probe's setup before the run (a
/// heartbeat sink — observation only).
fn probe(
    plan: &FaultPlan,
    app: &AppSpec,
    size: AppSize,
    arm: impl FnOnce(&mut Setup),
) -> Option<FuzzFailure> {
    let mut setup = fuzz_setup(plan.clone());
    arm(&mut setup);
    let Judged { verdict, bundle, .. } = try_run_app(&setup, app, size, 0);
    let message = verdict.render().trim_end().to_owned();
    (!verdict.is_clean()).then_some(FuzzFailure { app: app.name, message, bundle })
}

/// Checks every kernel of the invocation under `plan`, each probe armed by
/// `harness` (whose own fault and watchdog options a fuzzing binary does
/// not take: the plan under test and [`fuzz_setup`]'s watchdog stand);
/// returns the first failure.
pub fn check_plan(plan: &FaultPlan, harness: &Harness) -> Option<FuzzFailure> {
    harness
        .apps
        .iter()
        .find_map(|app| probe(plan, app, harness.size, |setup| harness.arm(setup, app.name)))
}

/// Samples one fault plan from the stream: each dimension arms
/// independently, crash dimensions at a higher rate (they are the ones this
/// fuzzer exists to stress), with at least one dimension always armed.
pub fn sample_plan(rng: &mut XorShift64) -> FaultPlan {
    let mut p = FaultPlan::none();
    p.seed = rng.next_u64() | 1;
    if rng.next_below(3) == 0 {
        p.uli_drop_per_mille = 1 + rng.next_below(350) as u32;
    }
    if rng.next_below(3) == 0 {
        p.uli_nack_per_mille = 1 + rng.next_below(300) as u32;
    }
    if rng.next_below(3) == 0 {
        p.uli_delay_per_mille = 1 + rng.next_below(300) as u32;
        p.uli_delay_cycles = 50 + rng.next_below(500);
    }
    if rng.next_below(3) == 0 {
        p.uli_rx_drop_per_mille = 1 + rng.next_below(200) as u32;
    }
    if rng.next_below(3) == 0 {
        p.steal_miss_per_mille = 1 + rng.next_below(600) as u32;
    }
    if rng.next_below(3) == 0 {
        p.mesh_spike_per_mille = 1 + rng.next_below(80) as u32;
        p.mesh_spike_cycles = 100 + rng.next_below(500);
    }
    if rng.next_below(2) == 0 {
        // Doom one to three of the 15 tiny cores (core 0 is ineligible).
        for _ in 0..1 + rng.next_below(3) {
            p.crash_cores.insert(1 + rng.next_below(15) as usize);
        }
        p.crash_at_cycle = 500 + rng.next_below(3500);
        if rng.next_below(3) == 0 {
            p.revive_after_cycles = 2000 + rng.next_below(6000);
        }
    }
    if !p.is_active() {
        p.steal_miss_per_mille = 1 + rng.next_below(600) as u32;
    }
    p
}

/// The knobs the shrinker drops whole, in table order: each arms a
/// dimension of its own. A knob that scales a dimension, the crash cycle
/// and the seed go with the plan they belong to.
fn dimensions() -> impl Iterator<Item = &'static Knob> {
    FaultPlan::KNOBS
        .iter()
        .filter(|k| matches!(k.role, Role::Transient | Role::Crash | Role::Revive))
}

/// Drops dimension `dim` and the knobs that scale it.
fn clear_dimension(p: &mut FaultPlan, dim: &Knob) {
    for knob in &FaultPlan::KNOBS {
        if knob.key == dim.key || knob.role == Role::Scales(dim.key) {
            knob.clear(p);
        }
    }
    // A plan with no crash dimension has no use for the crash schedule.
    if !p.crash_armed() {
        for knob in
            FaultPlan::KNOBS.iter().filter(|k| matches!(k.role, Role::CrashAt | Role::Revive))
        {
            knob.clear(p);
        }
    }
}

/// Count of armed dimensions — the shrinker's minimality measure.
pub fn plan_dimensions(p: &FaultPlan) -> usize {
    dimensions().filter(|k| k.is_armed(p)).count()
}

/// Binary-searches one magnitude down to the smallest value for which
/// `fails` still holds (assuming rough monotonicity; the final probe guards
/// against a non-monotone oracle by only committing a confirmed failure).
fn binary_shrink(
    cur: &mut FaultPlan,
    read: fn(&FaultPlan) -> u64,
    write: fn(&mut FaultPlan, u64),
    fails: &mut dyn FnMut(&FaultPlan) -> bool,
) {
    let top = read(cur);
    if top <= 1 {
        return;
    }
    let (mut lo, mut hi) = (1u64, top);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let mut cand = cur.clone();
        write(&mut cand, mid);
        if fails(&cand) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut cand = cur.clone();
    write(&mut cand, lo);
    if fails(&cand) {
        *cur = cand;
    }
}

/// Shrinks a failing plan against the `fails` oracle: drops whole
/// dimensions to a fixpoint, bit-shrinks the crash-core mask, then
/// binary-searches every surviving magnitude down. The returned plan still
/// fails the oracle and is dimension-minimal with respect to single
/// removals.
pub fn shrink_plan(start: &FaultPlan, fails: &mut dyn FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut cur = start.clone();
    // Phase 1: drop whole dimensions until no single removal still fails.
    loop {
        let mut changed = false;
        for dim in dimensions() {
            if !dim.is_armed(&cur) {
                continue;
            }
            let mut cand = cur.clone();
            clear_dimension(&mut cand, dim);
            if fails(&cand) {
                cur = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Phase 2: shrink the crash set one doomed core at a time.
    for core in cur.crash_cores.iter().collect::<Vec<_>>() {
        if cur.crash_cores.count() > 1 {
            let mut cand = cur.clone();
            cand.crash_cores.remove(core);
            if fails(&cand) {
                cur = cand;
            }
        }
    }
    // Phase 3: binary-search the surviving magnitudes down (a crash cycle
    // is a time, not a magnitude; a seed is neither).
    for knob in FaultPlan::KNOBS.iter().filter(|k| !matches!(k.role, Role::CrashAt | Role::Seed)) {
        if let Some((read, write)) = knob.scalar() {
            binary_shrink(&mut cur, read, write, fails);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_mesh::CoreSet;

    /// The idempotence whitelist names real registry kernels, both
    /// directions: every entry resolves, and every registered kernel is
    /// claimed (all thirteen follow the at-least-once side-effect
    /// discipline). A stale or misspelled entry silently exempts nothing —
    /// the audit just flags every respawn on that kernel — and the chaos
    /// fuzzer only catches it when a crash happens to land a respawn
    /// there, so pin the mapping directly.
    #[test]
    fn idempotence_whitelist_matches_the_registry_exactly() {
        use bigtiny_checker::IDEMPOTENT_KERNELS;
        for name in IDEMPOTENT_KERNELS {
            assert!(
                bigtiny_apps::app_by_name(name).is_some(),
                "whitelist entry {name:?} is not a registered kernel"
            );
        }
        for app in bigtiny_apps::all_apps() {
            assert!(
                IDEMPOTENT_KERNELS.contains(&app.name),
                "kernel {:?} is not claimed idempotent — harden it or audit why",
                app.name
            );
        }
    }

    /// The acceptance test: a fat "known-bad" mutation (hostile storm plus
    /// a three-core crash) whose failure actually hinges on two dimensions
    /// must shrink to exactly those two, with minimal magnitudes.
    #[test]
    fn shrinker_reduces_a_seeded_known_bad_mutation_to_two_dimensions() {
        let mut fails = |p: &FaultPlan| p.crash_cores.contains(9) && p.steal_miss_per_mille >= 200;
        let mut seeded = FaultPlan::by_name("hostile", 7).unwrap();
        seeded.steal_miss_per_mille = 600;
        seeded.crash_cores = CoreSet::from_mask((1 << 5) | (1 << 9) | (1 << 13));
        seeded.crash_at_cycle = 1500;
        seeded.revive_after_cycles = 3000;
        assert!(fails(&seeded), "seeded mutation must fail the oracle");
        assert!(plan_dimensions(&seeded) >= 8, "the mutation starts fat");

        let min = shrink_plan(&seeded, &mut fails);
        assert!(fails(&min), "the minimal plan still fails");
        assert_eq!(plan_dimensions(&min), 2, "spec: {}", min.to_spec());
        assert_eq!(min.crash_cores, CoreSet::from_mask(1 << 9), "crash set shrunk to the culprit");
        assert_eq!(min.steal_miss_per_mille, 200, "magnitude binary-searched to the threshold");
        assert_eq!(min.uli_drop_per_mille, 0);
        assert_eq!(min.uli_nack_per_mille, 0);
        assert_eq!(min.uli_delay_per_mille, 0);
        assert_eq!(min.uli_rx_drop_per_mille, 0);
        assert_eq!(min.mesh_spike_per_mille, 0);
        assert_eq!(min.revive_after_cycles, 0, "revive dropped with the rest");
        // The reproducer spec round-trips through the CLI parser.
        assert_eq!(FaultPlan::from_spec(&min.to_spec()), Some(min.clone()));
    }

    #[test]
    fn shrinker_handles_single_dimension_failures() {
        let mut fails = |p: &FaultPlan| p.uli_drop_per_mille >= 37;
        let seeded = FaultPlan::by_name("hostile", 3).unwrap();
        assert!(fails(&seeded));
        let min = shrink_plan(&seeded, &mut fails);
        assert_eq!(plan_dimensions(&min), 1);
        assert_eq!(min.uli_drop_per_mille, 37);
    }

    #[test]
    fn sampling_is_deterministic_and_always_active() {
        let draw = |seed| {
            let mut rng = XorShift64::new(seed);
            (0..50).map(|_| sample_plan(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1), "same seed, same plan stream");
        assert_ne!(a, draw(2), "seed varies the stream");
        assert!(a.iter().all(|p| p.is_active()), "every sampled plan arms something");
        assert!(
            a.iter().any(|p| p.crash_armed()) && a.iter().any(|p| !p.crash_armed()),
            "the stream mixes crash and transient-only plans"
        );
        // Every sampled plan's spec round-trips (the reproducer printing
        // path works for anything the sampler can draw).
        for p in &a {
            assert_eq!(FaultPlan::from_spec(&p.to_spec()), Some(p.clone()), "{}", p.to_spec());
        }
    }

    /// The invariant runner accepts a real surviving crash run end to end
    /// (and exercises the audit wiring on a genuine task-event stream).
    #[test]
    fn invariant_runner_accepts_a_surviving_crash_plan() {
        let app = bigtiny_apps::app_by_name("cilk5-nq").unwrap();
        let plan = FaultPlan::by_name("crash-one", 11).unwrap();
        let failure = check_app(&plan, &app, AppSize::Test);
        assert!(failure.is_none(), "{failure:?}");
    }
}
