//! Black-box dump and heartbeat-stream contracts.
//!
//! A watchdog-tripped run must leave a usable flight-recorder dump behind:
//! the failure it hands back carries the crash-time state, the obs layer
//! serializes it into a valid `bigtiny-obs-blackbox-v1` document with
//! non-empty, time-ordered per-core tails, and the whole artifact is
//! deterministic — the same hang reruns to the same dump, and (the
//! `backend` string aside) to the same dump on the thread and fiber
//! backends. Heartbeat lines inherit the same split the engine makes: every
//! in-band field is a function of the grant stream and replays bit-for-bit,
//! while wall-clock extras ride out-of-band.

use std::sync::{Arc, Mutex};

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, Setup};
use bigtiny_engine::{
    try_run_system, ExecBackend, Heartbeat, PoisonReason, Protocol, SystemConfig, TimeCategory,
    Worker,
};
use bigtiny_obs::{
    blackbox_from_bundle, blackbox_tail_trace, validate_blackbox, validate_chrome_trace,
};

/// Builds the progress-free machine: every core spins in `idle`, grants
/// keep flowing, nobody ever marks progress, so the deterministic grant
/// budget trips at a fixed point in the grant stream.
fn idle_spin_workers(n: usize) -> Vec<Worker> {
    (0..n)
        .map(|_| -> Worker {
            Box::new(|port| {
                while !port.is_done() {
                    port.wait_cycles(50, TimeCategory::Idle);
                }
            })
        })
        .collect()
}

/// Trips the watchdog on `backend` and returns the serialized black-box
/// document.
fn trip_and_dump(backend: ExecBackend) -> String {
    let config = SystemConfig::o3(4).with_watchdog(5_000).with_backend(backend);
    let bundle = try_run_system(&config, idle_spin_workers(4))
        .expect_err("a progress-free spin must trip the grant-budget watchdog")
        .bundle;
    assert!(
        matches!(bundle.reason, PoisonReason::Watchdog { .. }),
        "bundle records the trip reason: {:?}",
        bundle.reason
    );
    assert_eq!(bundle.backend, backend_name(backend));
    assert_eq!(bundle.fault_spec, "none", "no faults were armed");
    assert!(
        bundle.cores.iter().all(|c| !c.flight_tail.is_empty()),
        "every spinning core retained a flight tail"
    );
    for c in &bundle.cores {
        assert!(
            c.flight_tail.windows(2).all(|w| w[0].time <= w[1].time),
            "core {} tail out of time order",
            c.core
        );
    }

    let doc = blackbox_from_bundle(&bundle);
    let summary = validate_blackbox(&doc).expect("bundle serializes to a valid black box");
    assert_eq!(summary.cores, 4);
    assert_eq!(summary.cores_with_tail, 4);
    assert!(summary.events > 0);
    let trace = blackbox_tail_trace(&doc).expect("tail trace renders");
    validate_chrome_trace(&trace).expect("tail trace is a valid Chrome trace");
    doc.to_json()
}

fn backend_name(backend: ExecBackend) -> &'static str {
    match backend {
        ExecBackend::Threads => "threads",
        ExecBackend::Fibers => "fibers",
        other => unreachable!("tests pin Threads or Fibers, not {other:?}"),
    }
}

/// Trips the watchdog twice on `backend` under one config and returns the
/// dump with the backend label blanked, after checking the header names
/// the backend and the rerun reproduced the whole document byte for byte
/// (the budget trip is a deterministic function of the grant stream;
/// nothing in the bundle reads the wall clock).
fn stable_dump(backend: ExecBackend) -> String {
    let label = backend_name(backend);
    let a = trip_and_dump(backend);
    assert_eq!(trip_and_dump(backend), a, "rerun on {label} produced a different black box");
    let header = format!("\"backend\":\"{label}\"");
    assert_eq!(a.matches(&header).count(), 1, "dump header names the backend once: {a}");
    a.replace(&header, "\"backend\":\"B\"")
}

/// Threads backend: a forced idle-spin trips the watchdog, and the dump is
/// bit-for-bit stable across reruns.
#[test]
fn watchdog_trip_dumps_stable_blackbox_on_threads() {
    stable_dump(ExecBackend::Threads);
}

/// Fiber backend: same contract, and the same dump — the trip deposits a
/// bundle that differs from the threaded one only in the `backend` string,
/// however the cores multiplex onto host threads.
#[test]
#[cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), ignore)]
fn watchdog_trip_dumps_stable_blackbox_on_fibers() {
    let threads = stable_dump(ExecBackend::Threads);
    assert_eq!(stable_dump(ExecBackend::Fibers), threads, "Fibers dump differs from Threads");
}

/// The in-band fields of one beat: everything except `fast_grants` and the
/// core strip (those depend on host thread interleaving and are documented
/// out-of-band).
type InBandBeat = (u64, u64, u64, u64, [u64; 9], [u64; 6]);

/// Runs cilk5-nq with a heartbeat armed and collects every beat's in-band
/// field tuple.
fn deterministic_beats(every: u64) -> Vec<InBandBeat> {
    let beats = Arc::new(Mutex::new(Vec::new()));
    let sink_beats = Arc::clone(&beats);
    let mut setup = Setup::bt_hcc(Protocol::GpuWb, true);
    setup.sys = setup.sys.clone().with_heartbeat(Heartbeat::new(
        every,
        Arc::new(move |snap| {
            sink_beats.lock().unwrap().push((
                snap.seq,
                snap.time,
                snap.total_grants,
                snap.max_clock,
                snap.breakdown,
                snap.faults,
            ));
        }),
    ));
    let app = app_by_name("cilk5-nq").unwrap();
    run_app(&setup, &app, AppSize::Test, 0);
    // The setup still holds the sink closure (and with it one Arc clone),
    // so read the collected beats out through the lock.
    let out = beats.lock().unwrap().clone();
    out
}

/// The in-band heartbeat fields are a deterministic function of the grant
/// stream: two reruns at the same cadence produce identical snapshots,
/// beat for beat.
#[test]
fn heartbeat_in_band_fields_are_run_to_run_stable() {
    let a = deterministic_beats(500);
    let b = deterministic_beats(500);
    assert!(!a.is_empty(), "cadence 500 must fire at least one beat at Test size");
    assert_eq!(a, b, "in-band heartbeat fields diverged across reruns");
    for w in a.windows(2) {
        assert!(w[0].0 < w[1].0, "seq strictly increases");
        assert!(w[0].2 <= w[1].2, "grants never go backwards");
    }
}
