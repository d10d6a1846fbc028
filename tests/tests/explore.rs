//! Schedule-space exploration: golden pins for the default policy,
//! schedule-robustness of clean kernels, and a seeded mutation proving
//! the explorer catches what single-schedule checking cannot.
//!
//! The engine's only schedule freedom is the sequencer tie-break
//! ([`SchedulePolicy`]), so these tests pin three layers of the new
//! machinery:
//!
//! 1. making the default policy *explicit* (and running under an empty
//!    script) is bit-for-bit invisible — the golden `cilk5-nq` pin from
//!    `golden_trace.rs` must replay exactly, on both backends;
//! 2. a clean kernel stays clean under *any* scripted permutation of its
//!    tie-breaks (kernel `verify()`, the full checker battery, and cycle
//!    conservation all hold);
//! 3. a seeded schedule-dependent lost-update bug that the default
//!    schedule masks is found by [`explore`], with a minimal replayable
//!    script.

use std::sync::Arc;

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_checker::check_run;
use bigtiny_checker::explore::{explore, ExploreBudget, ScheduleOutcome};
use bigtiny_checker::{audit_task_events_mode, AuditMode};
use bigtiny_core::{parallel_invoke, run_task_parallel, DequeKind, RuntimeConfig, RuntimeKind};
use bigtiny_engine::{
    run_system, AddrSpace, CheckMode, ExecBackend, Protocol, SchedulePolicy, ShScalar,
    SystemConfig, Worker,
};
use bigtiny_obs::CycleConservation;

/// The `("cilk5-nq", "b.T/MESI")` golden pin from `golden_trace.rs`:
/// simulated cycles and sequenced-op-stream hash at `AppSize::Test`,
/// default seed, default grain.
const NQ_PIN: (u64, u64) = (7808, 0x7cc8_52c9_2c4f_0918);

/// Spelling out `SchedulePolicy::MinCore` (the default) must replay the
/// golden op stream exactly, on every execution backend: the policy
/// plumbing may not perturb the default path by a single grant.
#[test]
fn explicit_min_core_policy_replays_the_golden_pin_on_every_backend() {
    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let app = app_by_name("cilk5-nq").unwrap();
    for backend in [ExecBackend::Threads, ExecBackend::Fibers] {
        if backend != ExecBackend::Threads && !fibers_supported {
            continue;
        }
        let mut setup = Setup::bt_mesi();
        setup.sys = setup.sys.clone().with_backend(backend).with_schedule(SchedulePolicy::MinCore);
        let r = run_app(&setup, &app, AppSize::Test, 0);
        assert_eq!(
            (r.cycles, r.run.report.seq_op_hash),
            NQ_PIN,
            "explicit MinCore diverged from the golden pin on {backend:?}"
        );
        assert!(
            r.run.report.choice_points.is_empty(),
            "MinCore must record no choice points ({backend:?})"
        );
    }
}

/// The empty script replays the default tie-breaks bit-for-bit while
/// recording every tie it took: same cycles, same op hash, non-empty
/// choice points, each well-formed and resolved to the min-core default.
#[test]
fn empty_script_matches_min_core_bit_for_bit_and_records_ties() {
    let app = app_by_name("cilk5-nq").unwrap();
    let mut scripted = Setup::bt_mesi();
    scripted.sys = scripted.sys.clone().with_schedule(SchedulePolicy::Scripted(Vec::new()));
    let r = run_app(&scripted, &app, AppSize::Test, 0);
    assert_eq!(
        (r.cycles, r.run.report.seq_op_hash),
        NQ_PIN,
        "empty script diverged from the MinCore golden pin"
    );
    let cps = &r.run.report.choice_points;
    assert!(!cps.is_empty(), "an 8-core nqueens run must hit at least one sequencer tie");
    for cp in cps {
        assert!(cp.candidates.len() >= 2, "a choice point needs at least two tied waiters");
        assert_eq!(cp.chosen, 0, "an empty script must always take the default choice");
        assert_eq!(
            cp.candidates[cp.chosen as usize],
            *cp.candidates.iter().min().unwrap(),
            "the default choice must be the min-core candidate"
        );
    }
}

/// Property test: any scripted permutation of a clean kernel's tie-breaks
/// is still a correct execution. Random scripts (including out-of-range
/// entries, which clamp) must preserve kernel `verify()`, a clean full
/// checker battery, zero stale reads, and cycle conservation.
#[test]
fn random_scripts_of_a_clean_run_stay_clean() {
    // XorShift64: deterministic, seed fixed — failures are replayable.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let spec = app_by_name("cilk5-nq").unwrap();
    for trial in 0..6 {
        let len = 1 + (next() as usize) % 6;
        let script: Vec<u32> = (0..len).map(|_| (next() % 4) as u32).collect();
        let sys = SystemConfig::tiny_only(2, Protocol::Mesi)
            .with_check(CheckMode::Full)
            .with_schedule(SchedulePolicy::Scripted(script.clone()));
        let mut space = AddrSpace::new();
        let prepared = spec.prepare_default(&mut space, AppSize::Test);
        let rt = RuntimeConfig::new(RuntimeKind::Baseline);
        let run = run_task_parallel(&sys, &rt, &mut space, prepared.root);
        let ctx = format!("trial {trial}, script {script:?}");
        if let Err(e) = (prepared.verify)() {
            panic!("{ctx}: kernel verify failed under permuted schedule: {e}");
        }
        assert_eq!(run.report.stale_reads, 0, "{ctx}: stale reads under permuted schedule");
        let check = check_run(&sys, &run.report);
        assert!(
            check.violations.is_empty(),
            "{ctx}: checker violations under permuted schedule: {}",
            check.violations[0]
        );
        let cons = CycleConservation::from_report(&run.report);
        assert!(
            cons.holds(),
            "{ctx}: cycle conservation breach: buckets {} != core cycles {}",
            cons.bucket_sum(),
            cons.total_core_cycles
        );
    }
}

/// The Chase-Lev regression cell pinned from the `model_check`
/// deque-policy sweep: the local `fib` micro-kernel (one AMO per leaf —
/// the smallest workload that pushes, pops, steals, and joins) on a
/// 2-core MESI machine with `DequeKind::ChaseLev`. This is the cell
/// class where a steal CAS that consulted *fresher* deque state than the
/// thief's peeks was schedule-dependent: with a sequencer tie flipped,
/// the CAS could claim a task pushed after the thief's acquiring `tail`
/// peek (breaking the push-publish happens-before edge) or double-claim
/// the last element against the owner's pop. `cl_steal` now validates
/// the claim against the peeked `head`/`tail`, and every explored
/// tie-break must keep the full battery clean: kernel `verify()`, the
/// checker passes, zero stale reads, an exactly-once task-event audit,
/// and one fingerprint.
fn chase_lev_fib_run(script: &[u32]) -> ScheduleOutcome {
    let sys = SystemConfig::tiny_only(2, Protocol::Mesi)
        .with_check(CheckMode::Full)
        .with_schedule(SchedulePolicy::Scripted(script.to_vec()));
    let mut rt = RuntimeConfig::new(RuntimeKind::Baseline);
    rt.deque_kind = DequeKind::ChaseLev;
    rt.record_task_events = true;
    let mut space = AddrSpace::new();
    // fib(8) by one-AMO-per-leaf: leaves of value 1 bump the accumulator.
    let acc = Arc::new(ShScalar::new(&mut space, 0u64));
    let a = Arc::clone(&acc);
    fn fib(cx: &mut bigtiny_core::TaskCx<'_>, n: u64, acc: Arc<ShScalar<u64>>) {
        if n < 2 {
            cx.port().advance(2);
            if n == 1 {
                acc.amo(cx.port(), |c| *c += 1);
            }
            return;
        }
        let (x, y) = (Arc::clone(&acc), acc);
        parallel_invoke(cx, move |cx| fib(cx, n - 1, x), move |cx| fib(cx, n - 2, y));
    }
    let run = run_task_parallel(&sys, &rt, &mut space, move |cx| fib(cx, 8, a));
    let got = acc.host_read();
    let mut failure = (got != 21).then(|| format!("fib: counted {got}, expected 21"));
    if failure.is_none() && run.report.stale_reads > 0 {
        failure = Some(format!("{} stale reads", run.report.stale_reads));
    }
    if failure.is_none() {
        let audit = audit_task_events_mode(&run.task_events, AuditMode::ExactlyOnce, "fib");
        if !audit.is_clean() {
            failure = audit.violations.first().map(|v| format!("audit: {v}"));
        }
    }
    ScheduleOutcome {
        choices: run.report.choice_points.clone(),
        events: run.report.mem_events.clone(),
        report: check_run(&sys, &run.report),
        failure,
        fingerprint: Some(got),
    }
}

/// Regression pin for the Chase-Lev steal-validation fix: the fib cell
/// explores clean — no failing schedule, no checker violation, one
/// fingerprint, every racy tag schedule-invariant — and actually flips
/// at least one dependent tie (a vacuous one-schedule walk would hide a
/// reintroduced race exactly the way the pre-fix sweep did).
#[test]
fn chase_lev_steal_cell_is_schedule_independent() {
    let baseline = chase_lev_fib_run(&[]);
    assert!(baseline.failure.is_none(), "default schedule broken: {:?}", baseline.failure);
    assert!(!baseline.choices.is_empty(), "a 2-core fib run must hit at least one sequencer tie");
    let budget = ExploreBudget { max_choice_points: 5, max_schedules: 24 };
    let report = explore(&budget, chase_lev_fib_run);
    assert!(report.is_clean(), "Chase-Lev cell regressed:\n{}", report.render());
    assert!(
        report.schedules_explored >= 2,
        "only one schedule explored ({} pruned); the pin is vacuous",
        report.schedules_pruned
    );
}

/// A seeded schedule-dependent mutation: two cores AMO the same word at a
/// tied time, and the (deliberately wrong) "kernel" asserts core 1's
/// update lands last — true under the default min-core tie-break, false
/// the moment the tie flips. This run executes one scripted schedule.
fn lost_update_run(script: &[u32]) -> ScheduleOutcome {
    let sys = SystemConfig::tiny_only(2, Protocol::Mesi)
        .with_check(CheckMode::Full)
        .with_schedule(SchedulePolicy::Scripted(script.to_vec()));
    let mut space = AddrSpace::new();
    let cell = Arc::new(ShScalar::new(&mut space, 0u64));
    let (c0, c1) = (Arc::clone(&cell), Arc::clone(&cell));
    let workers: Vec<Worker> = vec![
        Box::new(move |port| {
            c0.amo(port, |v| *v = 1);
        }),
        Box::new(move |port| {
            c1.amo(port, |v| *v = 2);
        }),
    ];
    let report = run_system(&sys, workers);
    let got = cell.host_read();
    ScheduleOutcome {
        choices: report.choice_points.clone(),
        events: report.mem_events.clone(),
        report: check_run(&sys, &report),
        failure: (got != 2).then(|| format!("lost update: final value {got}, want 2")),
        fingerprint: Some(got),
    }
}

/// The default schedule masks the seeded bug; the explorer must find a
/// failing schedule anyway and hand back a minimal script that replays
/// it deterministically.
#[test]
fn explorer_finds_a_schedule_dependent_bug_the_default_schedule_misses() {
    // Single-schedule checking — the status quo before the explorer —
    // is blind to the mutation.
    let baseline = lost_update_run(&[]);
    assert!(
        baseline.failure.is_none(),
        "the default schedule must mask the seeded bug: {:?}",
        baseline.failure
    );
    assert!(!baseline.choices.is_empty(), "the tied AMOs must record a choice point");

    let budget = ExploreBudget { max_choice_points: 4, max_schedules: 16 };
    let report = explore(&budget, lost_update_run);
    assert!(!report.is_clean(), "the explorer must catch the seeded mutation");
    let f = &report.failures[0];
    assert!(f.what.contains("lost update"), "unexpected failure kind: {}", f.what);
    assert!(!f.script.is_empty(), "a failing script must pin at least one flipped tie");
    assert!(
        f.script.len() <= budget.max_choice_points,
        "repro script {:?} exceeds the depth budget",
        f.script
    );

    // The script is a deterministic repro: replaying it reproduces the
    // exact failure, outside the explorer.
    let replay = lost_update_run(&f.script);
    assert_eq!(replay.failure.as_deref(), Some(f.what.as_str()), "repro script did not replay");
}
