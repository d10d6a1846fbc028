//! End-to-end tests of fail-stop core crashes and self-healing recovery:
//! tiny cores die mid-run, survivors reclaim orphans, rescue mailboxes,
//! re-execute the tasks the dead cores were inside, and the program still
//! computes the right answer on every runtime variant. A watchdog is armed
//! in every test so a recovery bug fails with a diagnostic instead of
//! hanging the suite.

use std::sync::Arc;

use bigtiny_core::{
    parallel_invoke, run_task_parallel, RuntimeConfig, RuntimeKind, TaskCx, TaskRun,
};
use bigtiny_engine::{AddrSpace, FaultPlan, Protocol, ShVec, SystemConfig};
use bigtiny_mesh::{MeshConfig, Topology};

/// A named fault plan ([`FaultPlan::by_name`]).
fn named(name: &str, seed: u64) -> FaultPlan {
    FaultPlan::by_name(name, seed).expect("a named plan")
}

fn sys(proto: Protocol, plan: FaultPlan) -> SystemConfig {
    SystemConfig::big_tiny("crash", MeshConfig::with_topology(Topology::new(4, 4)), 1, 15, proto)
        .with_faults(plan)
        .with_watchdog(2_000_000)
}

/// Slot-tree fib: every write lands a deterministic value in a private
/// slot, so re-executed subtrees are idempotent (the crash-tolerant
/// side-effect discipline).
fn fib(cx: &mut TaskCx<'_>, out: Arc<ShVec<u64>>, slot: usize, n: u64) {
    cx.port().advance(6);
    if n < 2 {
        out.write(cx.port(), slot, n);
        return;
    }
    let (a, b) = (Arc::clone(&out), Arc::clone(&out));
    let (sa, sb) = (2 * slot + 1, 2 * slot + 2);
    parallel_invoke(cx, move |cx| fib(cx, a, sa, n - 1), move |cx| fib(cx, b, sb, n - 2));
    let x = out.read(cx.port(), sa);
    let y = out.read(cx.port(), sb);
    out.write(cx.port(), slot, x + y);
}

fn run_fib(sys_cfg: &SystemConfig, rt: &RuntimeConfig, n: u64) -> (u64, TaskRun) {
    let mut space = AddrSpace::new();
    let out = Arc::new(ShVec::new(&mut space, 1 << (n + 1), 0u64));
    let o = Arc::clone(&out);
    let run = run_task_parallel(sys_cfg, rt, &mut space, move |cx| fib(cx, o, 0, n));
    (out.host_read(0), run)
}

fn serial_fib(n: u64) -> u64 {
    if n < 2 {
        n
    } else {
        serial_fib(n - 1) + serial_fib(n - 2)
    }
}

/// One tiny core fail-stops mid-run: every runtime variant survives it and
/// still computes the right answer, and at least one survivor observed the
/// death (quarantine).
#[test]
fn single_crash_survived_on_all_runtimes() {
    let cases = [
        (RuntimeKind::Baseline, Protocol::Mesi),
        (RuntimeKind::Hcc, Protocol::DeNovo),
        (RuntimeKind::Dts, Protocol::GpuWb),
    ];
    for (kind, proto) in cases {
        let cfg = sys(proto, named("crash-one", 7));
        let rt = RuntimeConfig::new(kind);
        let (got, run) = run_fib(&cfg, &rt, 14);
        assert_eq!(got, serial_fib(14), "{kind:?}: correct despite the crash");
        assert!(run.report.fault_counters.crashes >= 1, "{kind:?}: the core did crash");
        assert!(run.stats.quarantines >= 1, "{kind:?}: a survivor observed the death");
    }
}

/// Full recovery under an armed watchdog: a quarantined dead core stays
/// dark for the whole remainder of the run, and that expected silence must
/// never trip it — neither the grant budget nor the survivors' idle spins,
/// each of which takes a grant per round. (A recovery livelock still fails
/// loudly instead of hanging.)
#[test]
fn quarantined_dead_core_never_trips_wall_clock_fallback() {
    let cfg = sys(Protocol::GpuWb, named("crash-one", 7));
    let rt = RuntimeConfig::new(RuntimeKind::Dts);
    let (got, run) = run_fib(&cfg, &rt, 15);
    assert_eq!(got, serial_fib(15), "correct despite crash + aggressive wall window");
    assert!(run.report.fault_counters.crashes >= 1);
    assert!(run.stats.quarantines >= 1);
}

/// A crash storm (three tiny cores at the same cycle) on DTS: the run
/// completes correctly and recovery actually exercised its machinery —
/// a task that died mid-execution was re-spawned with its join repaired.
#[test]
fn crash_storm_recovers_in_flight_work() {
    let cfg = sys(Protocol::GpuWb, named("crash-storm", 3));
    let rt = RuntimeConfig::new(RuntimeKind::Dts);
    let (got, run) = run_fib(&cfg, &rt, 15);
    assert_eq!(got, serial_fib(15));
    assert_eq!(run.report.fault_counters.crashes, 3, "all three doomed cores died");
    assert!(run.stats.reexecutions >= 1, "a mid-execution task was re-spawned");
    assert_eq!(
        run.stats.reexecutions, run.stats.joins_repaired,
        "every re-spawn inherits exactly one join obligation"
    );
    assert!(run.stats.quarantines >= 1);
}

/// Crashed cores with a revival schedule come back, rejoin scheduling, and
/// the run still completes correctly.
#[test]
fn revived_cores_rejoin() {
    let cfg = sys(Protocol::GpuWb, named("crash-revive", 9));
    let rt = RuntimeConfig::new(RuntimeKind::Dts);
    let (got, run) = run_fib(&cfg, &rt, 15);
    assert_eq!(got, serial_fib(15));
    assert_eq!(run.report.fault_counters.crashes, 2);
    assert_eq!(run.stats.revivals, 2, "both crashed cores revived");
}

/// Crash recovery is deterministic: identical configurations (same fault
/// seed) produce bit-identical cycle counts, op-stream hashes, and
/// recovery counters.
#[test]
fn crash_runs_are_deterministic() {
    let rt = RuntimeConfig::new(RuntimeKind::Dts);
    let runs: Vec<(u64, TaskRun)> =
        (0..2).map(|_| run_fib(&sys(Protocol::GpuWb, named("crash-storm", 11)), &rt, 14)).collect();
    assert_eq!(runs[0].0, runs[1].0);
    assert_eq!(runs[0].1.report.core_cycles, runs[1].1.report.core_cycles);
    assert_eq!(runs[0].1.report.seq_op_hash, runs[1].1.report.seq_op_hash);
    assert_eq!(runs[0].1.stats, runs[1].1.stats);
}

/// Near-zero deque capacity under armed fault plans: every hardened push
/// overflows into inline execution, a bounced steal re-pushes into the one
/// slot its pop just freed, and recovered tasks that do not fit run inline
/// on the recovering core. Every runtime variant still computes fib.
#[test]
fn tiny_deques_survive_hostile_and_crash_plans() {
    let cases = [
        (RuntimeKind::Baseline, Protocol::Mesi),
        (RuntimeKind::Hcc, Protocol::GpuWb),
        (RuntimeKind::Dts, Protocol::GpuWb),
    ];
    for (kind, proto) in cases {
        for plan_name in ["hostile", "crash-storm", "crash-hostile"] {
            for capacity in 1..=2 {
                let mut rt = RuntimeConfig::new(kind);
                rt.deque_capacity = capacity;
                let plan = FaultPlan::by_name(plan_name, 3).expect("named plan");
                let (got, run) = run_fib(&sys(proto, plan), &rt, 12);
                let what = format!("{kind:?}/{plan_name}/capacity {capacity}");
                assert_eq!(got, serial_fib(12), "{what}");
                assert_eq!(run.stats.reexecutions, run.stats.joins_repaired, "{what}");
            }
        }
    }
}

/// Without a crash dimension, an armed (transient-only) fault plan takes
/// none of the crash paths: no crashes, no recovery counters.
#[test]
fn transient_plans_never_crash() {
    let cfg = sys(Protocol::GpuWb, named("hostile", 5));
    let rt = RuntimeConfig::new(RuntimeKind::Dts);
    let (got, run) = run_fib(&cfg, &rt, 12);
    assert_eq!(got, serial_fib(12));
    assert_eq!(run.report.fault_counters.crashes, 0);
    assert_eq!(run.stats.quarantines, 0);
    assert_eq!(run.stats.reexecutions, 0);
    assert_eq!(run.stats.revivals, 0);
}
