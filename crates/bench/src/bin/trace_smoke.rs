//! Structural smoke test for the observability layer, runnable in CI
//! without a browser.
//!
//! Runs one DTS kernel twice — observability off, then fully armed
//! (per-core tracing + task-event recording) — and checks that:
//!
//! * arming observability is bit-for-bit invisible to simulation (same
//!   completion cycles and sequenced-op-stream hash);
//! * the Chrome trace-event export validates structurally (balanced async
//!   pairs, 1:1 flow ids) and contains core spans, task lifetimes, steal
//!   instants, and ULI flow arrows;
//! * the metrics document contains every section and survives its own
//!   strict parser.
//!
//! `--metrics-out PATH` / `--trace-out PATH` additionally write the
//! validated documents, so CI can upload them as artifacts.

use bigtiny_apps::{app_by_name, AppSize};
use bigtiny_bench::live::{metrics_doc, observe, trace_doc, write_doc};
use bigtiny_bench::{cli, run_app, Setup};
use bigtiny_engine::Protocol;
use bigtiny_obs::{parse_json, validate_chrome_trace, METRICS_SCHEMA};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::METRICS_OUT, &cli::TRACE_OUT]);

fn main() {
    let args = CLI.parse();
    let app = app_by_name("cilk5-nq").expect("cilk5-nq registered");
    let plain_setup = Setup::bt_hcc(Protocol::GpuWb, true);
    let mut armed_setup = plain_setup.clone();
    observe(&mut armed_setup, true);

    let plain = run_app(&plain_setup, &app, AppSize::Test, 0);
    let armed = [run_app(&armed_setup, &app, AppSize::Test, 0)];

    // Zero-overhead pin: arming the whole observability stack must not move
    // a single simulated cycle or grant.
    assert_eq!(
        (plain.cycles, plain.run.report.seq_op_hash),
        (armed[0].cycles, armed[0].run.report.seq_op_hash),
        "arming observability perturbed simulated results"
    );
    println!(
        "[trace_smoke] zero-overhead pin holds: {} cycles, op hash {:#018x}",
        armed[0].cycles, armed[0].run.report.seq_op_hash
    );

    // Perfetto export: structurally valid and non-trivially populated.
    let (trace, s) = trace_doc(&armed);
    assert!(s.complete > 0, "no core spans in the trace");
    assert!(s.async_pairs > 0, "no task lifetimes in the trace");
    assert!(s.flows > 0, "no ULI flow arrows in the trace (DTS steals expected)");
    assert!(
        s.instants as u64 >= armed[0].run.stats.steals,
        "fewer steal instants ({}) than steals ({})",
        s.instants,
        armed[0].run.stats.steals
    );
    let reparsed = parse_json(&trace.to_json()).expect("trace survives the strict parser");
    assert_eq!(validate_chrome_trace(&reparsed).unwrap(), s, "trace mutated by round trip");
    println!(
        "[trace_smoke] trace valid: {} spans, {} task lifetimes, {} flows, {} steal instants",
        s.complete, s.async_pairs, s.flows, s.instants
    );

    // Metrics document: every section present, strict round trip.
    let metrics = metrics_doc(&armed);
    let back = parse_json(&metrics.to_json()).expect("metrics survive the strict parser");
    assert_eq!(back.get("schema").and_then(|s| s.as_str()), Some(METRICS_SCHEMA));
    let run0 = &back.get("runs").and_then(|r| r.as_arr()).expect("runs array")[0];
    let sections =
        ["breakdown", "coherence", "mesh", "uli", "faults", "watchdog", "steals", "critpath"];
    for section in sections {
        assert!(run0.get(section).is_some(), "metrics document missing section {section}");
    }
    assert!(
        run0.get("steals").unwrap().get("attempts").unwrap().as_num().unwrap() > 0.0,
        "DTS run recorded no steal attempts"
    );
    // With attribution armed the critical-path profile must be live: the
    // conservation table holds and the burdened span is positive.
    let cp = run0.get("critpath").expect("critpath section");
    assert_eq!(cp.get("profiled").map(|p| p.to_json()), Some("true".into()), "run not profiled");
    assert!(cp.get("span").unwrap().as_num().unwrap() > 0.0, "profiled run has a zero span");
    assert_eq!(
        cp.get("conservation").unwrap().get("holds").map(|h| h.to_json()),
        Some("true".into()),
        "cycle-conservation invariant violated"
    );
    println!("[trace_smoke] metrics valid: schema {METRICS_SCHEMA}, all sections present");

    if let Some(path) = args.text(&cli::METRICS_OUT) {
        write_doc(path, &metrics);
        println!("[trace_smoke] metrics -> {path}");
    }
    if let Some(path) = args.text(&cli::TRACE_OUT) {
        write_doc(path, &trace);
        println!("[trace_smoke] trace -> {path} (load in ui.perfetto.dev)");
    }
    println!("[trace_smoke] OK");
}
