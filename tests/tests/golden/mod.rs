//! The golden cells and the one invariance table over them: every way of
//! running a golden cell that must replay its pin exactly. Shared by
//! `golden_trace.rs` and `explore.rs`, whose tests each replay the rows
//! of the variants they name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_judged, AppResult, Setup, Verdict};
use bigtiny_engine::{
    backend_label, CheckMode, ExecBackend, Heartbeat, HeartbeatSnap, Protocol, SchedulePolicy,
    DEFAULT_FLIGHT_CAPACITY,
};
use bigtiny_tests::pins;

/// The golden cells, at `AppSize::Test`, default seed, default grain.
pub const KERNELS: [&str; 3] = ["cilk5-nq", "cilk5-mm", "ligra-bfs"];
pub const SETUPS: [&str; 4] = ["b.T/MESI", "b.T/HCC-DTS-dnv", "b.T/HCC-DTS-gwt", "b.T/HCC-DTS-gwb"];

pub fn setup_by_label(label: &str) -> Setup {
    match label {
        "b.T/MESI" => Setup::bt_mesi(),
        "b.T/HCC-DTS-dnv" => Setup::bt_hcc(Protocol::DeNovo, true),
        "b.T/HCC-DTS-gwt" => Setup::bt_hcc(Protocol::GpuWt, true),
        "b.T/HCC-DTS-gwb" => Setup::bt_hcc(Protocol::GpuWb, true),
        other => panic!("unknown golden setup {other}"),
    }
}

/// One way of running golden cells that must replay their pins exactly.
struct Variant {
    name: &'static str,
    /// The backends it runs on; `Auto` is the default the golden table
    /// itself runs on.
    backends: &'static [ExecBackend],
    /// The golden cells it replays, by key prefix.
    cells: &'static [&'static str],
    arm: fn(&mut Setup),
    /// What the run must visibly have done, so that replaying the pin
    /// proves the variant invisible rather than absent.
    did: fn(&str, &AppResult, &Verdict),
}

const BOTH: &[ExecBackend] = &[ExecBackend::Threads, ExecBackend::Fibers];
const DEFAULT: &[ExecBackend] = &[ExecBackend::Auto];
const NQ: &[&str] = &["cilk5-nq @"];
const NQ_BFS: &[&str] = &["cilk5-nq @", "ligra-bfs @"];
const NQ_MESI: &[&str] = &["cilk5-nq @ b.T/MESI"];

/// Heartbeats the `heartbeat` variant's sink has seen since its last run.
static BEATS: AtomicU64 = AtomicU64::new(0);

/// Every variant. The backends share the sequencer's grant-selection rule
/// and differ only in how a blocked core yields the host CPU; the watchdog
/// only observes, from a wall-clock monitor thread beside the cores; the
/// checker's event capture, the trace, ULI marks, task events and
/// attribution only read the simulated clock and write host-side buffers;
/// the flight ring only reads computed core clocks and the heartbeat only
/// observes grant boundaries; `MinCore` spelled out is the default policy,
/// and an empty script takes the default at every tie. None of them
/// sequences an op or charges a cycle.
const VARIANTS: &[Variant] = &[
    Variant { name: "plain", backends: BOTH, cells: NQ, arm: |_| {}, did: |_, _, _| {} },
    Variant {
        name: "watchdog",
        backends: &[ExecBackend::Threads, ExecBackend::Fibers, ExecBackend::Auto],
        cells: NQ,
        arm: |s| s.sys.watchdog_budget = Some(2_000_000),
        did: |_, _, _| {},
    },
    Variant {
        name: "checker",
        backends: DEFAULT,
        cells: NQ_BFS,
        arm: |s| s.sys = s.sys.clone().with_check(CheckMode::Full),
        did: |ctx, _, verdict| {
            let events = verdict.drf.as_ref().map_or(0, |report| report.events);
            assert!(events > 0, "{ctx}: armed run captured no events");
        },
    },
    Variant {
        name: "observability",
        backends: DEFAULT,
        cells: NQ_BFS,
        arm: |s| {
            s.sys.trace = true;
            s.sys.attr = true;
            s.rt.record_task_events = true;
        },
        did: |ctx, r, _| {
            let rep = &r.run.report;
            let spans: usize = rep.traces.iter().map(Vec::len).sum();
            assert!(spans > 0, "{ctx}: armed run captured no trace spans");
            assert!(!r.run.task_events.is_empty(), "{ctx}: armed run recorded no task events");
            assert!(
                rep.attr_spans.iter().any(|s| !s.is_empty()),
                "{ctx}: armed run recorded no attribution spans"
            );
            if r.setup != "b.T/MESI" {
                let marks: usize = rep.uli_marks.iter().map(Vec::len).sum();
                assert!(marks > 0, "{ctx}: DTS run recorded no ULI marks");
            }
            // The flight recorder is always on (default ring capacity): the
            // same run must also have retained per-core tails, each in
            // non-decreasing time order, so the black box is usable as is.
            assert!(rep.flight.iter().any(|t| !t.is_empty()), "{ctx}: no flight events");
            for (core, tail) in rep.flight.iter().enumerate() {
                assert!(
                    tail.windows(2).all(|w| w[0].time <= w[1].time),
                    "{ctx}: core {core} flight tail out of time order"
                );
                assert!(
                    rep.flight_totals[core] >= tail.len() as u64,
                    "{ctx}: core {core} total below retained tail"
                );
            }
        },
    },
    Variant {
        name: "ring-off",
        backends: BOTH,
        cells: NQ,
        arm: |s| s.sys = s.sys.clone().with_flight_ring(0),
        did: |ctx, r, _| {
            let rep = &r.run.report;
            assert!(
                rep.flight.iter().all(Vec::is_empty) && rep.flight_totals.iter().all(|&t| t == 0),
                "{ctx}: capacity-0 ring recorded events"
            );
        },
    },
    Variant {
        name: "ring-4x",
        backends: BOTH,
        cells: NQ,
        arm: |s| s.sys = s.sys.clone().with_flight_ring(4 * DEFAULT_FLIGHT_CAPACITY),
        did: |ctx, r, _| {
            let retained = r.run.report.flight.iter().any(|t| !t.is_empty());
            assert!(retained, "{ctx}: armed ring retained nothing");
        },
    },
    Variant {
        name: "heartbeat",
        backends: BOTH,
        cells: NQ,
        arm: |s| {
            let sink = Arc::new(|_: &HeartbeatSnap| {
                BEATS.fetch_add(1, Ordering::Relaxed);
            });
            s.sys = s.sys.clone().with_heartbeat(Heartbeat::new(100, sink));
        },
        did: |ctx, r, _| {
            assert!(BEATS.swap(0, Ordering::Relaxed) > 0, "{ctx}: heartbeat sink never fired");
            let retained = r.run.report.flight.iter().any(|t| !t.is_empty());
            assert!(retained, "{ctx}: armed ring retained nothing");
        },
    },
    Variant {
        name: "explicit min-core",
        backends: BOTH,
        cells: NQ_MESI,
        arm: |s| s.sys = s.sys.clone().with_schedule(SchedulePolicy::MinCore),
        did: |ctx, r, _| {
            let cps = &r.run.report.choice_points;
            assert!(cps.is_empty(), "{ctx}: MinCore must record no choice points");
        },
    },
    Variant {
        name: "empty script",
        backends: DEFAULT,
        cells: NQ_MESI,
        arm: |s| s.sys = s.sys.clone().with_schedule(SchedulePolicy::Scripted(Vec::new())),
        did: |ctx, r, _| {
            // It records every tie it took, each well-formed and resolved
            // to the min-core default.
            let cps = &r.run.report.choice_points;
            assert!(!cps.is_empty(), "{ctx}: an 8-core nqueens run must hit a sequencer tie");
            for cp in cps {
                assert!(cp.candidates.len() >= 2, "{ctx}: a choice point needs two tied waiters");
                assert_eq!(cp.chosen, 0, "{ctx}: an empty script must take the default choice");
                assert_eq!(
                    cp.candidates[cp.chosen as usize],
                    *cp.candidates.iter().min().unwrap(),
                    "{ctx}: the default choice must be the min-core candidate"
                );
            }
        },
    },
];

/// Runs every `(variant, backend)` row of the named variants: each must
/// replay the golden cycles and grant hashes of its cells, on the backend
/// it names, and visibly do what it arms.
pub fn replay(names: &[&str]) {
    for name in names {
        assert!(VARIANTS.iter().any(|v| v.name == *name), "no variant named {name}");
    }
    let fibers_supported = cfg!(all(target_os = "linux", target_arch = "x86_64"));
    let auto = match std::env::var_os("BIGTINY_BACKEND") {
        None if fibers_supported => Some("fibers"),
        _ => None,
    };
    let golden = pins::pinned("golden");
    let mut moved = Vec::new();
    for v in VARIANTS.iter().filter(|v| names.contains(&v.name)) {
        for &backend in v.backends {
            if backend == ExecBackend::Fibers && !fibers_supported {
                continue;
            }
            for (kernel, setup_label) in KERNELS.iter().flat_map(|k| SETUPS.map(|s| (k, s))) {
                let key = format!("{kernel} @ {setup_label}");
                if !v.cells.iter().any(|c| key.starts_with(c)) {
                    continue;
                }
                let ctx = format!("{key} [{}, {backend:?}]", v.name);
                let mut setup = setup_by_label(setup_label);
                setup.sys = setup.sys.clone().with_backend(backend);
                (v.arm)(&mut setup);
                let want = match backend {
                    ExecBackend::Auto => auto,
                    ExecBackend::Threads => Some("threads"),
                    _ => Some("fibers"),
                };
                if let Some(want) = want {
                    assert_eq!(backend_label(&setup.sys), want, "{ctx}: runs on {want}");
                }
                let (r, verdict) =
                    run_judged(&setup, &app_by_name(kernel).unwrap(), AppSize::Test, 0);
                (v.did)(&ctx, &r, &verdict);
                let got = [r.cycles.to_string(), pins::hex(r.run.report.seq_op_hash)];
                if golden.get(&key) != Some(&got[..]) {
                    moved.push(format!("{ctx}: {:?} → {got:?}", golden.get(&key)));
                }
            }
        }
    }
    assert!(moved.is_empty(), "a variant moved a golden pin:\n  {}", moved.join("\n  "));
}
