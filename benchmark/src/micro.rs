//! Per-layer micro-benchmarks: each layer measured from outside, by timing
//! calls to its public functions. Every address, tile and payload stream
//! comes from `--seed`. Each row is the median of [`REPS`] repeats
//! ([`SLOW_REPS`] for whole-simulation rows).
//!
//! The Threads / ShardedFibers / watchdog rows are informational: on two
//! host cores those backends are bimodal, so their min–max is printed
//! beside the median and nothing gates on them.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{parse_json_line, AppResult, ResultRecord, Setup};
use bigtiny_checker::explore::{explore, ExploreBudget, ScheduleOutcome};
use bigtiny_checker::{audit_task_events, check_run};
use bigtiny_coherence::{Addr, MemorySystem, LINE_BYTES};
use bigtiny_core::{
    parallel_invoke, run_task_parallel, DequeKind, RuntimeConfig, RuntimeKind, SimDeque, TaskCx,
    TaskId, TaskRun,
};
use bigtiny_engine::{
    backend_label, run_system, AddrSpace, CheckMode, CorePort, ExecBackend, FlightKind, FlightRing,
    Protocol, SchedulePolicy, SystemConfig, Worker, DEFAULT_FLIGHT_CAPACITY,
};
use bigtiny_mesh::{Mesh, MeshConfig, Tile, TrafficClass, UliNetwork, UliOutcome, XorShift64};
use bigtiny_obs::{
    blackbox_from_report, export_chrome_trace, metrics_document, parse_json, validate_chrome_trace,
    verify_attr_spans, Json, RunMetrics, TraceRun, WhatIf,
};

use crate::stats::Summary;

/// Repeats per micro-bench row.
const REPS: usize = 5;
/// Repeats for rows that run a whole simulation per sample.
const SLOW_REPS: usize = 3;

/// Collected rows plus anything that failed a correctness assertion.
#[derive(Default)]
pub struct MicroResults {
    /// `(metric name, samples summary)` in run order.
    pub rows: Vec<(String, Summary)>,
    /// Correctness failures (op-hash mismatches, dirty verdicts).
    pub failures: Vec<String>,
}

impl MicroResults {
    fn push(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.rows.push((name.into(), Summary::of(samples).expect("at least one sample")));
    }
}

/// Scales iteration counts: `--quick` runs every loop at 1/20 length.
#[derive(Clone, Copy)]
struct Scale {
    quick: bool,
}

impl Scale {
    fn iters(self, n: u64) -> u64 {
        if self.quick {
            (n / 20).max(1)
        } else {
            n
        }
    }

    fn size(self) -> AppSize {
        if self.quick {
            AppSize::Test
        } else {
            AppSize::Eval
        }
    }
}

/// Samples `body` (which returns operations done and time taken) and
/// yields ns per operation, one value per repeat.
fn ns_per_op(reps: usize, mut body: impl FnMut() -> (u64, Duration)) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (ops, took) = body();
            took.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_of(samples: &[f64]) -> f64 {
    crate::stats::median(samples).expect("at least one sample")
}

/// Runs every micro-bench. `seed` drives every pseudo-random stream.
pub fn run_all(seed: u64, quick: bool) -> MicroResults {
    let scale = Scale { quick };
    let mut out = MicroResults::default();
    mesh(&mut out, seed, scale);
    coherence(&mut out, seed, scale);
    engine(&mut out, scale);
    core_runtime(&mut out, scale);
    checker(&mut out, scale);
    obs_and_bench(&mut out, scale);
    backend_equivalence(&mut out);
    out
}

// ---------------------------------------------------------------- mesh

fn mesh(out: &mut MicroResults, seed: u64, scale: Scale) {
    let config = MeshConfig::paper_64_core();
    let topo = config.topology;
    let mut rng = XorShift64::new(seed ^ 0x6d65_7368);
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| {
            let a = rng.next_below(64) as usize;
            let b = (a + 1 + rng.next_below(63) as usize) % 64;
            (a, b)
        })
        .collect();
    let tiles: Vec<(Tile, Tile)> =
        pairs.iter().map(|&(a, b)| (topo.core_tile(a), topo.core_tile(b))).collect();
    let n = scale.iters(2_000_000);

    let mut mesh = Mesh::new(config);
    out.push(
        "mesh.send_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            let mut acc = 0u64;
            for i in 0..n {
                let (a, b) = tiles[i as usize % tiles.len()];
                acc += mesh.send(a, b, TrafficClass::DataResp, 64);
            }
            std::hint::black_box(acc);
            (n, t.elapsed())
        }),
    );
    out.push(
        "mesh.latency_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            let mut acc = 0u64;
            for i in 0..n {
                let (a, b) = tiles[i as usize % tiles.len()];
                acc += mesh.latency(a, b, 72);
            }
            std::hint::black_box(acc);
            (n, t.elapsed())
        }),
    );

    let n = scale.iters(1_000_000);
    let mut uli = UliNetwork::new(topo, 64);
    for core in 0..64 {
        uli.set_enabled(core, true);
    }
    let mut now = 0u64;
    out.push(
        "mesh.uli_roundtrip_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            for i in 0..n {
                let (thief, victim) = pairs[i as usize % pairs.len()];
                now += 1000;
                let sent = uli.try_send_request(thief, victim, i, now);
                debug_assert_eq!(sent, UliOutcome::Sent);
                let req = uli.take_request(victim, now + 500).expect("request delivered");
                uli.send_response(victim, req.from, req.payload, now + 500);
                std::hint::black_box(uli.take_response(thief, now + 1000).expect("response"));
            }
            (n, t.elapsed())
        }),
    );
    for core in 0..64 {
        uli.set_enabled(core, false);
    }
    out.push(
        "mesh.uli_nack_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            for i in 0..n {
                let (thief, victim) = pairs[i as usize % pairs.len()];
                now += 1000;
                std::hint::black_box(uli.try_send_request(thief, victim, i, now));
            }
            (n, t.elapsed())
        }),
    );
}

// ----------------------------------------------------------- coherence

/// The 64-core big.TINY machine whose tiny cores run `proto`.
fn machine_64(proto: Protocol) -> SystemConfig {
    if proto == Protocol::Mesi {
        SystemConfig::big_tiny_mesi()
    } else {
        SystemConfig::big_tiny_hcc(proto)
    }
}

const ALL_PROTOCOLS: [Protocol; 4] =
    [Protocol::Mesi, Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb];

fn coherence(out: &mut MicroResults, seed: u64, scale: Scale) {
    // Core 4 is the first tiny core: 4 KB, 2-way L1 (64 lines).
    const CORE: usize = 4;
    const L1_LINES: u64 = 64;
    let mut rng = XorShift64::new(seed ^ 0x636f_6865);
    // Hot set: random words of 16 lines (1 KB), well inside the L1.
    let hot: Vec<Addr> = (0..4096).map(|_| Addr(0x10_0000 + rng.next_below(16 * 8) * 8)).collect();
    // Stream: 1024 lines (64 KB) — 16× the L1, a sliver of one L2 bank.
    let stream_lines = 1024u64;
    let stream = |i: u64| Addr(0x80_0000 + (i % stream_lines) * LINE_BYTES);
    let n = scale.iters(1_000_000);

    for proto in ALL_PROTOCOLS {
        let p = proto.label();
        let mut mem = MemorySystem::new(&machine_64(proto).mem_config());
        let mut now = 0u64;
        for a in &hot {
            now += mem.load(CORE, *a, now);
        }
        out.push(
            format!("coherence.load_hit_ns.{p}"),
            &ns_per_op(REPS, || {
                let t = Instant::now();
                for i in 0..n {
                    now += mem.load(CORE, hot[i as usize % hot.len()], now);
                }
                (n, t.elapsed())
            }),
        );
        for i in 0..stream_lines {
            now += mem.load(CORE, stream(i), now);
        }
        out.push(
            format!("coherence.load_miss_ns.{p}"),
            &ns_per_op(REPS, || {
                let t = Instant::now();
                for i in 0..n / 4 {
                    now += mem.load(CORE, stream(i), now);
                }
                (n / 4, t.elapsed())
            }),
        );
        out.push(
            format!("coherence.store_ns.{p}"),
            &ns_per_op(REPS, || {
                let t = Instant::now();
                for i in 0..n {
                    now += mem.store(CORE, hot[i as usize % hot.len()], now);
                }
                (n, t.elapsed())
            }),
        );
        out.push(
            format!("coherence.amo_ns.{p}"),
            &ns_per_op(REPS, || {
                let t = Instant::now();
                for i in 0..n / 4 {
                    now += mem.amo(CORE, hot[i as usize % hot.len()], now);
                }
                (n / 4, t.elapsed())
            }),
        );
        // Bulk operations: fill the L1 untimed, time only the call.
        let calls = scale.iters(4000);
        if proto != Protocol::Mesi {
            out.push(
                format!("coherence.invalidate_all_ns.{p}"),
                &ns_per_op(REPS, || {
                    let mut took = Duration::ZERO;
                    for _ in 0..calls {
                        for line in 0..L1_LINES {
                            now += mem.load(CORE, stream(line), now);
                        }
                        let t = Instant::now();
                        now += mem.invalidate_all(CORE, now).0;
                        took += t.elapsed();
                    }
                    (calls, took)
                }),
            );
        }
        if proto == Protocol::GpuWb {
            out.push(
                "coherence.flush_all_ns.gwb",
                &ns_per_op(REPS, || {
                    let mut took = Duration::ZERO;
                    for _ in 0..calls {
                        for line in 0..L1_LINES / 2 {
                            now += mem.store(CORE, stream(line), now);
                        }
                        let t = Instant::now();
                        now += mem.flush_all(CORE, now).0;
                        took += t.elapsed();
                    }
                    (calls, took)
                }),
            );
        }
    }

    for (label, config) in [
        ("64", SystemConfig::big_tiny_hcc(Protocol::GpuWb).mem_config()),
        ("256", SystemConfig::big_tiny_256(Protocol::GpuWb).mem_config()),
    ] {
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let mem = MemorySystem::new(&config);
                let took = t.elapsed();
                drop(std::hint::black_box(mem));
                ms(took)
            })
            .collect();
        out.push(format!("coherence.mem_build_ms.{label}"), &samples);
    }
}

// -------------------------------------------------------------- engine

/// Runs `loads` L1-hit loads to a private line on every core of `sys`.
fn grant_run(sys: &SystemConfig, loads: u64) -> (Duration, u64) {
    let mut space = AddrSpace::new();
    let workers: Vec<Worker> = (0..sys.num_cores())
        .map(|_| {
            let addr = space.reserve_lines(LINE_BYTES);
            Box::new(move |port: &mut CorePort| {
                for _ in 0..loads {
                    port.load(addr);
                }
            }) as Worker
        })
        .collect();
    let t = Instant::now();
    let report = run_system(sys, workers);
    (t.elapsed(), report.seq_grants)
}

/// Per-grant cost on `sys`: (run with loads − fixed run cost) ÷ grants.
fn grant_row(
    out: &mut MicroResults,
    name: String,
    sys: &SystemConfig,
    fixed_ms: f64,
    total_loads: u64,
    reps: usize,
) {
    let loads = total_loads / sys.num_cores() as u64 + 1;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let (took, grants) = grant_run(sys, loads);
            ((ms(took) - fixed_ms).max(0.0) * 1e6) / grants.max(1) as f64
        })
        .collect();
    out.push(name, &samples);
}

fn engine(out: &mut MicroResults, scale: Scale) {
    let machines = [
        ("64", SystemConfig::big_tiny_hcc(Protocol::GpuWb)),
        ("256", SystemConfig::big_tiny_256(Protocol::GpuWb)),
    ];
    // Fixed cost of a run: stacks, memory system, teardown.
    let mut fixed_ms = Vec::new();
    for (label, sys) in &machines {
        let samples: Vec<f64> = (0..REPS).map(|_| ms(grant_run(sys, 0).0)).collect();
        fixed_ms.push(median_of(&samples));
        out.push(format!("engine.run_fixed_ms.{label}"), &samples);
    }
    // The multi-threaded backends pay a futex handoff per grant, so they
    // get far fewer loads and repeats.
    let backends = [
        ("fibers", ExecBackend::Fibers, 320_000u64, REPS),
        ("threads", ExecBackend::Threads, 10_000, SLOW_REPS),
        ("sharded", ExecBackend::ShardedFibers, 10_000, SLOW_REPS),
    ];
    for (name, backend, total_loads, reps) in backends {
        for ((label, sys), fixed) in machines.iter().zip(&fixed_ms) {
            let sys = sys.clone().with_backend(backend);
            let name = format!("engine.grant_ns.{name}.{label}");
            grant_row(out, name, &sys, *fixed, scale.iters(total_loads), reps);
        }
    }
    let watchdog =
        machines[0].1.clone().with_backend(ExecBackend::Threads).with_watchdog(u64::MAX / 2);
    let name = "engine.grant_ns.threads-watchdog.64".to_owned();
    grant_row(out, name, &watchdog, fixed_ms[0], scale.iters(10_000), SLOW_REPS);

    let n = scale.iters(4_000_000);
    let mut ring = FlightRing::new(DEFAULT_FLIGHT_CAPACITY);
    out.push(
        "engine.flight_record_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            for i in 0..n {
                ring.record(i, FlightKind::Grant);
            }
            std::hint::black_box(ring.total());
            (n, t.elapsed())
        }),
    );

    armed_overhead(out, scale);
}

/// Simulates `app` on `setup`; returns the run and the wall time of
/// `run_task_parallel` alone.
fn simulate(setup: &Setup, app: &str, size: AppSize) -> Result<(TaskRun, Duration), String> {
    let spec = app_by_name(app).ok_or_else(|| format!("unknown kernel {app}"))?;
    let mut space = AddrSpace::new();
    let prepared = spec.prepare_default(&mut space, size);
    let t = Instant::now();
    let run = run_task_parallel(&setup.sys, &setup.rt, &mut space, prepared.root);
    let took = t.elapsed();
    (prepared.verify)().map_err(|e| format!("{app} on {}: {e}", setup.label))?;
    Ok((run, took))
}

/// Prices each recording channel: `ligra-bfs` on `b.T/HCC-DTS-gwb`, armed
/// vs unarmed wall time. Arming must not move the op-stream hash.
fn armed_overhead(out: &mut MicroResults, scale: Scale) {
    let base = Setup::bt_hcc(Protocol::GpuWb, true);
    let variant = |f: fn(&mut Setup)| {
        let mut s = base.clone();
        f(&mut s);
        s
    };
    // `flight` is always on, so its row compares the default against a
    // zero-capacity ring; the others compare armed against the default.
    let variants: [(&str, Setup); 6] = [
        ("default", base.clone()),
        ("flight", variant(|s| s.sys.flight_ring = 0)),
        ("check", variant(|s| s.sys.check = CheckMode::Full)),
        ("trace", variant(|s| s.sys.trace = true)),
        ("attr", variant(|s| s.sys.attr = true)),
        ("task-events", variant(|s| s.rt.record_task_events = true)),
    ];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    let mut hash = None;
    for _ in 0..SLOW_REPS {
        for (i, (name, setup)) in variants.iter().enumerate() {
            match simulate(setup, "ligra-bfs", scale.size()) {
                Ok((run, took)) => {
                    walls[i].push(took.as_secs_f64());
                    let h = *hash.get_or_insert(run.report.seq_op_hash);
                    if h != run.report.seq_op_hash {
                        out.failures.push(format!("arming {name} moved the op-stream hash"));
                    }
                }
                Err(e) => out.failures.push(e),
            }
        }
    }
    if walls.iter().any(Vec::is_empty) {
        return;
    }
    let default = median_of(&walls[0]);
    for (i, (name, _)) in variants.iter().enumerate().skip(1) {
        let other = median_of(&walls[i]);
        let pct = if *name == "flight" {
            (default - other) / other * 100.0
        } else {
            (other - default) / default * 100.0
        };
        out.push(format!("engine.armed_overhead_pct.{name}"), &[pct]);
    }
}

/// The three execution backends must produce the same sequenced-op stream.
/// Test-size inputs: on two host cores a Threads grant costs 2-13 us, so an
/// eval-size cell would not fit a traced run.
fn backend_equivalence(out: &mut MicroResults) {
    for app in ["cilk5-nq", "ligra-bfs"] {
        for base in [Setup::bt_mesi(), Setup::bt_hcc(Protocol::GpuWb, true)] {
            let hash_on = |backend| {
                let mut setup = base.clone();
                setup.sys.backend = backend;
                simulate(&setup, app, AppSize::Test).map(|(run, _)| run.report.seq_op_hash)
            };
            let fibers = hash_on(ExecBackend::Fibers);
            for backend in [ExecBackend::Threads, ExecBackend::ShardedFibers] {
                match (fibers.clone(), hash_on(backend)) {
                    (Ok(a), Ok(b)) if a == b => {}
                    (Ok(a), Ok(b)) => out.failures.push(format!(
                        "{app} on {}: {backend:?} op hash {b:#x} differs from Fibers {a:#x}",
                        base.label
                    )),
                    (Err(e), _) | (_, Err(e)) => out.failures.push(e),
                }
            }
        }
    }
}

// ---------------------------------------------------------------- core

fn spawn_tree(cx: &mut TaskCx<'_>, depth: u32) {
    if depth == 0 {
        return;
    }
    parallel_invoke(cx, move |cx| spawn_tree(cx, depth - 1), move |cx| spawn_tree(cx, depth - 1));
}

type DequePush = fn(&SimDeque, &mut CorePort, TaskId);
type DequeOp<R> = fn(&SimDeque, &mut CorePort) -> R;

/// Owner-side push, owner-side pop and thief-side steal of one policy,
/// composed exactly as `bigtiny_core`'s scheduler composes them.
fn deque_ops(kind: DequeKind) -> (DequePush, DequeOp<()>, DequeOp<bool>) {
    match kind {
        DequeKind::Locked => (
            |d, p, t| {
                d.lock(p);
                d.push_tail(p, t);
                d.unlock(p);
            },
            |d, p| {
                d.lock(p);
                d.pop_tail(p);
                d.unlock(p);
            },
            |d, p| {
                d.lock(p);
                let got = d.pop_head(p).is_some();
                d.unlock(p);
                got
            },
        ),
        DequeKind::ChaseLev => (
            |d, p, t| {
                d.cl_push_tail(p, t);
            },
            |d, p| {
                d.cl_pop_tail(p);
            },
            |d, p| d.cl_steal(p).is_some(),
        ),
        DequeKind::FenceFree => (
            |d, p, t| {
                d.mp_push_tail(p, t);
            },
            |d, p| {
                d.ff_pop_tail(p);
            },
            |d, p| d.mp_steal(p).is_some(),
        ),
        DequeKind::Idempotent => (
            |d, p, t| {
                d.mp_push_tail(p, t);
            },
            |d, p| {
                d.idem_take_head(p);
            },
            |d, p| d.mp_steal(p).is_some(),
        ),
    }
}

/// One two-core MESI run: core 0 times `pairs` push+pop pairs and leaves
/// `steals` tasks behind; core 1 (parked far in the simulated future, so
/// it is granted only after core 0 retires) times stealing them.
fn deque_run(kind: DequeKind, pairs: u64, steals: u64) -> (Duration, Duration) {
    let sys = SystemConfig::tiny_only(2, Protocol::Mesi);
    let mut space = AddrSpace::new();
    let deque = Arc::new(SimDeque::new(&mut space, steals as usize + 8));
    let times = Arc::new(Mutex::new((Duration::ZERO, Duration::ZERO)));
    let (push, pop, steal) = deque_ops(kind);
    let owner: Worker = {
        let (deque, times) = (Arc::clone(&deque), Arc::clone(&times));
        Box::new(move |port| {
            let t = Instant::now();
            for i in 0..pairs {
                push(&deque, port, TaskId(i as u32));
                pop(&deque, port);
            }
            times.lock().expect("no panic holds the lock").0 = t.elapsed();
            for i in 0..steals {
                push(&deque, port, TaskId(i as u32));
            }
        })
    };
    let thief: Worker = {
        let (deque, times) = (Arc::clone(&deque), Arc::clone(&times));
        Box::new(move |port| {
            port.idle(1 << 40);
            let t = Instant::now();
            let mut got = 0;
            while got < steals {
                got += u64::from(steal(&deque, port));
            }
            times.lock().expect("no panic holds the lock").1 = t.elapsed();
        })
    };
    run_system(&sys, vec![owner, thief]);
    let t = times.lock().expect("no panic holds the lock");
    *t
}

fn core_runtime(out: &mut MicroResults, scale: Scale) {
    let depth = if scale.quick { 8 } else { 12 };
    let setups = [
        ("baseline", Setup::bt_mesi()),
        ("hcc", Setup::bt_hcc(Protocol::GpuWb, false)),
        ("dts", Setup::bt_hcc(Protocol::GpuWb, true)),
        ("dts.256", Setup::bt_256(Protocol::GpuWb, RuntimeKind::Dts)),
    ];
    for (label, setup) in &setups {
        out.push(
            format!("core.task_ns.{label}"),
            &ns_per_op(SLOW_REPS, || {
                let mut space = AddrSpace::new();
                let t = Instant::now();
                let run = run_task_parallel(&setup.sys, &setup.rt, &mut space, move |cx| {
                    spawn_tree(cx, depth)
                });
                (run.stats.tasks_executed, t.elapsed())
            }),
        );
    }

    let pairs = scale.iters(100_000);
    let steals = scale.iters(8_000);
    let kinds =
        [DequeKind::Locked, DequeKind::ChaseLev, DequeKind::FenceFree, DequeKind::Idempotent];
    let mut pushpop: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    let mut steal: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for _ in 0..REPS {
        for (i, kind) in kinds.iter().enumerate() {
            let (pp, st) = deque_run(*kind, pairs, steals);
            pushpop[i].push(pp.as_nanos() as f64 / pairs as f64);
            steal[i].push(st.as_nanos() as f64 / steals as f64);
        }
    }
    for (i, kind) in kinds.iter().enumerate() {
        out.push(format!("core.deque_pushpop_ns.{}", kind.label()), &pushpop[i]);
    }
    for (i, kind) in kinds.iter().enumerate() {
        out.push(format!("core.deque_steal_ns.{}", kind.label()), &steal[i]);
    }
}

// ------------------------------------------------------------- checker

/// One scripted schedule of `cilk5-nq` (test size) for the explorer.
fn run_scripted(setup: &Setup, script: &[u32]) -> ScheduleOutcome {
    let sys = setup
        .sys
        .clone()
        .with_check(CheckMode::Full)
        .with_schedule(SchedulePolicy::Scripted(script.to_vec()));
    let spec = app_by_name("cilk5-nq").expect("cilk5-nq registered");
    let mut space = AddrSpace::new();
    let prepared = spec.prepare_default(&mut space, AppSize::Test);
    let run = run_task_parallel(&sys, &setup.rt, &mut space, prepared.root);
    let report = check_run(&sys, &run.report);
    ScheduleOutcome {
        choices: run.report.choice_points.clone(),
        events: run.report.mem_events.clone(),
        report,
        failure: (prepared.verify)().err(),
        fingerprint: prepared.fingerprint.map(|f| f()),
    }
}

fn checker(out: &mut MicroResults, scale: Scale) {
    let mut setup = Setup::bt_hcc(Protocol::GpuWb, true);
    setup.sys.check = CheckMode::Full;
    setup.rt.record_task_events = true;
    match simulate(&setup, "ligra-bfs", scale.size()) {
        Ok((run, _)) => {
            let mut dirty = None;
            let samples = ns_per_op(SLOW_REPS, || {
                let t = Instant::now();
                let report = check_run(&setup.sys, &run.report);
                let took = t.elapsed();
                if !report.is_clean() {
                    dirty = Some(format!("checker micro-bench: {}", report.render()));
                }
                (report.events, took)
            });
            out.push("checker.check_ns_per_event", &samples);
            out.failures.extend(dirty);
            let rounds = 20;
            out.push(
                "checker.audit_ns_per_event",
                &ns_per_op(SLOW_REPS, || {
                    let t = Instant::now();
                    for _ in 0..rounds {
                        let audit = audit_task_events(&run.task_events, false, "ligra-bfs");
                        std::hint::black_box(audit.is_clean());
                    }
                    (rounds * run.task_events.len() as u64, t.elapsed())
                }),
            );
        }
        Err(e) => out.failures.push(e),
    }

    // The DPOR explorer over a fixed set of two-core cells.
    let cell = |label: &str, proto, kind| Setup {
        label: label.to_owned(),
        sys: SystemConfig::tiny_only(2, proto),
        rt: RuntimeConfig::new(kind),
    };
    let cells = [
        cell("tiny2/MESI", Protocol::Mesi, RuntimeKind::Baseline),
        cell("tiny2/HCC-dnv", Protocol::DeNovo, RuntimeKind::Hcc),
        cell("tiny2/HCC-DTS-dnv", Protocol::DeNovo, RuntimeKind::Dts),
    ];
    let budget =
        ExploreBudget { max_choice_points: 5, max_schedules: if scale.quick { 4 } else { 24 } };
    let t = Instant::now();
    let mut schedules = 0u64;
    for setup in &cells {
        let report = explore(&budget, |script| run_scripted(setup, script));
        schedules += report.schedules_explored;
        if !report.is_clean() {
            out.failures.push(format!("explore {}: {}", setup.label, report.render()));
        }
    }
    let took = t.elapsed().as_secs_f64();
    out.push("checker.explore_s", &[took]);
    out.push("checker.explore_schedules_per_s", &[schedules as f64 / took]);
}

// ------------------------------------------------------- obs and bench

fn obs_and_bench(out: &mut MicroResults, scale: Scale) {
    let mut setup = Setup::bt_hcc(Protocol::GpuWb, true);
    setup.sys.trace = true;
    setup.sys.attr = true;
    setup.rt.record_task_events = true;
    let app = "cilk5-nq";
    let run = match simulate(&setup, app, scale.size()) {
        Ok((run, _)) => run,
        Err(e) => {
            out.failures.push(e);
            return;
        }
    };
    let trace_runs = [TraceRun { app, setup: &setup.label, run: &run }];
    let doc = export_chrome_trace(&trace_runs);
    let text = doc.to_json();
    let events = doc.get("traceEvents").and_then(Json::as_arr).map_or(0, <[Json]>::len) as u64;

    out.push(
        "obs.trace_export_ns_per_event",
        &ns_per_op(SLOW_REPS, || {
            let t = Instant::now();
            std::hint::black_box(export_chrome_trace(&trace_runs).to_json().len());
            (events, t.elapsed())
        }),
    );
    out.push("obs.trace_bytes_per_event", &[text.len() as f64 / events.max(1) as f64]);
    let mut failures = Vec::new();
    let validate = ns_per_op(SLOW_REPS, || {
        let t = Instant::now();
        if let Err(e) = validate_chrome_trace(&doc) {
            failures.push(format!("trace validation: {e}"));
        }
        (events, t.elapsed())
    });
    out.push("obs.trace_validate_ns_per_event", &validate);
    let parse: Vec<f64> = (0..SLOW_REPS)
        .map(|_| {
            let t = Instant::now();
            if parse_json(&text).is_err() {
                failures.push("exported trace does not parse".to_owned());
            }
            text.len() as f64 / 1e6 / t.elapsed().as_secs_f64()
        })
        .collect();
    out.push("obs.json_parse_mb_per_s", &parse);

    let tiny = setup.sys.tiny_cores();
    let timed_ms = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                ms(t.elapsed())
            })
            .collect()
    };
    let metrics = [RunMetrics {
        app,
        setup: &setup.label,
        deque_policy: setup.rt.deque_kind.label(),
        run: &run,
        tiny_cores: &tiny,
    }];
    out.push(
        "obs.metrics_doc_ms",
        &timed_ms(&mut || {
            std::hint::black_box(metrics_document(&metrics).to_json().len());
        }),
    );
    out.push(
        "obs.attr_verify_ms",
        &timed_ms(&mut || {
            if let Err(e) = verify_attr_spans(&run.report) {
                failures.push(format!("attribution: {e}"));
            }
        }),
    );
    out.push(
        "obs.whatif_ms",
        &timed_ms(&mut || {
            if let Err(e) = WhatIf::project(&run) {
                failures.push(format!("what-if: {e}"));
            }
        }),
    );
    out.failures.append(&mut failures);
    let backend = backend_label(&setup.sys);
    let fault_spec = setup.sys.faults.to_spec();
    out.push(
        "obs.blackbox_ms",
        &timed_ms(&mut || {
            let doc = blackbox_from_report("explicit", backend, &fault_spec, &run.report);
            std::hint::black_box(doc.to_json().len());
        }),
    );

    // The harness's own record format: emit + strict re-parse.
    let result = AppResult {
        app: "cilk5-nq",
        setup: setup.label.clone(),
        cycles: run.report.completion_cycles,
        deque_policy: setup.rt.deque_kind.label(),
        tiny_cores: tiny.clone(),
        run,
    };
    let record = ResultRecord::from(&result);
    let n = scale.iters(100_000);
    out.push(
        "bench.record_json_ns",
        &ns_per_op(REPS, || {
            let t = Instant::now();
            for _ in 0..n {
                let line = record.to_json_line();
                std::hint::black_box(parse_json_line(&line).expect("record parses"));
            }
            (n, t.elapsed())
        }),
    );
}
