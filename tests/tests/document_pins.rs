//! Pins on the bytes of every document the obs layer serializes.
//!
//! `golden_trace.rs` pins what was simulated and `replay_pins.rs` what each
//! core recorded; nothing pinned what the exporters *write* from it. These
//! pins fold FNV-1a over `to_json()` of the Perfetto export, the metrics
//! document, the black-box dump with its tail trace, and a heartbeat line —
//! captured before the document model grew rows, so a match proves a change
//! of representation moved no byte. Every document must also survive its
//! own strict parser *as the same value*: `parse_json(text) == doc`.
//!
//! A moved pin means an artifact changed shape for every downstream reader:
//! find out why before re-pinning (the failing assertion prints the
//! observed row).

use std::panic::{catch_unwind, AssertUnwindSafe};

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::{run_app, AppResult, Setup};
use bigtiny_engine::hash::fnv1a;
use bigtiny_engine::{
    last_bundle_for, run_system, CoreBeat, FaultPlan, HeartbeatSnap, Protocol, SystemConfig,
    TimeCategory, Worker,
};
use bigtiny_obs::{
    blackbox_from_bundle, blackbox_from_report, blackbox_tail_trace, export_chrome_trace,
    heartbeat_line, metrics_document, parse_json, validate_chrome_trace, Json, RunMetrics,
    TraceRun, TraceSummary,
};

/// Seed of the machine and of the seeded fault plan.
const SEED: u64 = 11;

/// `(document, bytes, FNV-1a of the bytes, [complete, async_pairs, flows,
/// instants, metadata])` for every Perfetto document.
const TRACES: &[(&str, usize, u64, [usize; 5])] = &[
    ("cilk5-nq @ b.T/HCC-DTS-gwb", 3373720, 0x307680b89ee06224, [42563, 63, 1070, 17, 66]),
    ("cilk5-mt @ b.T/HCC-DTS-gwb", 3688527, 0x5f3e41dde2b58966, [46845, 31, 1060, 13, 66]),
    ("ligra-bfs @ b.T/MESI", 1199792, 0xdf05ba1f14b9c8e1, [16077, 9, 0, 1, 66]),
    (
        "cilk5-nq @ b.T/HCC-DTS-gwb, hostile",
        16924510,
        0x83c074fa06be0716,
        [221374, 63, 563, 11, 66],
    ),
    ("two runs", 4573396, 0xfe4918fae0a05a14, [58640, 72, 1070, 18, 132]),
];

/// `(document, bytes, FNV-1a of the bytes)` for every other document.
const DOCS: &[(&str, usize, u64)] = &[
    ("metrics: nq + hostile nq + bfs", 73293, 0x5c237262cc64f7b9),
    ("black box: report", 415666, 0x639b5ab0ff2e5f79),
    ("black box: report, tail trace", 1255999, 0x88d4f0abd155f736),
    ("black box: watchdog bundle", 26427, 0x8fb8d2ab51dc396d),
    ("black box: watchdog bundle, tail trace", 78387, 0x73a32855c2568810),
    ("heartbeat line", 451, 0xcb5c54c4259ead07),
];

/// One fully armed run at test size: per-core trace, attribution spans and
/// task events, so the export carries spans, flows, steal instants, task
/// lifetimes and the critical-path track.
fn armed_run(app: &str, mut setup: Setup, plan: &str) -> AppResult {
    let faults = FaultPlan::by_name(plan, SEED).expect("named fault plan");
    setup.sys = setup.sys.clone().with_seed(SEED).with_faults(faults);
    setup.sys.trace = true;
    setup.sys.attr = true;
    setup.rt.record_task_events = true;
    run_app(&setup, &app_by_name(app).unwrap(), AppSize::Test, 0)
}

fn trace_run(r: &AppResult) -> TraceRun<'_> {
    TraceRun { app: r.app, setup: &r.setup, run: &r.run }
}

fn run_metrics(r: &AppResult) -> RunMetrics<'_> {
    RunMetrics {
        app: r.app,
        setup: &r.setup,
        deque_policy: r.deque_policy,
        run: &r.run,
        tiny_cores: &r.tiny_cores,
    }
}

/// Serializes `doc`, holds it to the round-trip contract, and returns the
/// observed `(bytes, fnv)`.
fn observe(name: &str, doc: &Json) -> (usize, u64) {
    let text = doc.to_json();
    assert_eq!(format!("{doc}"), text, "{name}: Display and to_json disagree");
    let back = parse_json(&text).unwrap_or_else(|e| panic!("{name}: does not parse: {e}"));
    assert!(back == *doc, "{name}: the parsed document is not the document that was written");
    assert!(*doc == back, "{name}: document equality is not symmetric");
    (text.len(), fnv1a(text.as_bytes()))
}

/// A watchdog trip on a progress-free four-core machine: the one way to a
/// crash-time `DiagnosticBundle`, deterministic in the grant stream.
fn tripped_bundle_doc() -> Json {
    let name = "document-pins-trip";
    let mut config = SystemConfig::o3(4).with_watchdog(5_000);
    config.name = name.to_owned();
    config.watchdog_wall_ms = 60_000;
    let workers: Vec<Worker> = (0..4)
        .map(|_| -> Worker {
            Box::new(|port| {
                while !port.is_done() {
                    port.wait_cycles(50, TimeCategory::Idle);
                }
            })
        })
        .collect();
    catch_unwind(AssertUnwindSafe(|| {
        run_system(&config, workers);
    }))
    .expect_err("a progress-free spin trips the watchdog");
    blackbox_from_bundle(&last_bundle_for(name).expect("the trip deposits a bundle"))
}

fn heartbeat_snap() -> HeartbeatSnap {
    HeartbeatSnap {
        seq: 3,
        time: 3000,
        total_grants: 1500,
        fast_grants: 700,
        max_clock: 3100,
        breakdown: [100, 20, 10, 5, 2, 3, 7, 9, 44],
        faults: [1, 2, 3, 4, 5, 6],
        cores: vec![
            CoreBeat { grants: 800, last_time: 3000, retired: false, waiting_at: None },
            CoreBeat { grants: 700, last_time: 2990, retired: false, waiting_at: Some(3001) },
            CoreBeat { grants: 0, last_time: 100, retired: true, waiting_at: None },
        ],
        islands: vec![3000, 2990],
    }
}

#[test]
fn every_document_is_byte_for_byte_what_was_pinned() {
    let dts = || Setup::bt_hcc(Protocol::GpuWb, true);
    let nq = armed_run("cilk5-nq", dts(), "none");
    let mt = armed_run("cilk5-mt", dts(), "none");
    let bfs = armed_run("ligra-bfs", Setup::bt_mesi(), "none");
    let hostile = armed_run("cilk5-nq", dts(), "hostile");
    assert!(hostile.run.report.fault_counters.uli_drops > 0, "the hostile plan dropped no ULI");

    let traces = [
        ("cilk5-nq @ b.T/HCC-DTS-gwb", export_chrome_trace(&[trace_run(&nq)])),
        ("cilk5-mt @ b.T/HCC-DTS-gwb", export_chrome_trace(&[trace_run(&mt)])),
        ("ligra-bfs @ b.T/MESI", export_chrome_trace(&[trace_run(&bfs)])),
        ("cilk5-nq @ b.T/HCC-DTS-gwb, hostile", export_chrome_trace(&[trace_run(&hostile)])),
        ("two runs", export_chrome_trace(&[trace_run(&nq), trace_run(&bfs)])),
    ];
    let mut failures = Vec::new();
    for (i, (name, doc)) in traces.iter().enumerate() {
        let s: TraceSummary =
            validate_chrome_trace(doc).unwrap_or_else(|e| panic!("{name}: invalid trace: {e}"));
        let (bytes, fnv) = observe(name, doc);
        let row = (*name, bytes, fnv, [s.complete, s.async_pairs, s.flows, s.instants, s.metadata]);
        if TRACES.get(i) != Some(&row) {
            failures.push(format!("({:?}, {}, {:#018x}, {:?}),", row.0, row.1, row.2, row.3));
        }
    }

    let report_dump = blackbox_from_report("explicit", "fibers", "none", &nq.run.report);
    let bundle_dump = tripped_bundle_doc();
    let beat = heartbeat_line(
        "cilk5-nq",
        "b.T/HCC-DTS-gwb",
        &heartbeat_snap(),
        vec![
            ("wall_ms".to_owned(), Json::u64(123)),
            ("grants_per_sec".to_owned(), Json::f64(1.5e6)),
            ("note".to_owned(), Json::str("out of \"band\"\n")),
        ],
    );
    let docs = [
        (
            "metrics: nq + hostile nq + bfs",
            metrics_document(&[&nq, &hostile, &bfs].map(run_metrics)),
        ),
        ("black box: report", report_dump.clone()),
        ("black box: report, tail trace", blackbox_tail_trace(&report_dump).unwrap()),
        ("black box: watchdog bundle", bundle_dump.clone()),
        ("black box: watchdog bundle, tail trace", blackbox_tail_trace(&bundle_dump).unwrap()),
        ("heartbeat line", parse_json(&beat).expect("a heartbeat line parses")),
    ];
    for (i, (name, doc)) in docs.iter().enumerate() {
        let row = if *name == "heartbeat line" {
            // The line is its own serialization; the parsed copy must
            // write the same bytes back.
            assert_eq!(doc.to_json(), beat, "heartbeat line does not re-serialize to itself");
            (*name, beat.len(), fnv1a(beat.as_bytes()))
        } else {
            let (bytes, fnv) = observe(name, doc);
            (*name, bytes, fnv)
        };
        if DOCS.get(i) != Some(&row) {
            failures.push(format!("({:?}, {}, {:#018x}),", row.0, row.1, row.2));
        }
    }
    assert!(
        failures.is_empty(),
        "a document's bytes diverged from its pin; observed rows:\n    {}",
        failures.join("\n    ")
    );
    assert_eq!((traces.len(), docs.len()), (TRACES.len(), DOCS.len()), "a pin without a document");
}
