//! `check_all`: runs every kernel under every setup of the paper matrix
//! with the DRF conformance checker armed, and emits a JSON verdict table.
//!
//! This is the oracle sweep: MESI baseline plus HCC / HCC-DTS on the
//! three software-centric protocols, each kernel verified against its
//! host reference *and* its op stream replayed through the checker's
//! happens-before, staleness, and sync-discipline passes. A healthy tree
//! produces an all-clean table; any violation prints its first finding
//! (core, cycle, address) and the run exits nonzero.
//!
//! Writes one flat JSON object per (kernel × setup) line to
//! `CHECK_verdicts.json` at the repo root (or `$BIGTINY_CHECK_OUT`) —
//! validated in CI with the `json_check` bin. `BIGTINY_SIZE` /
//! `BIGTINY_APPS` restrict the sweep as for the other harness bins.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin check_all                 # full eval sweep
//! BIGTINY_SIZE=test cargo run --release --bin check_all   # CI smoke
//! cargo run --release --bin check_all -- --fail-fast  # stop at first dirty cell
//! ```
//!
//! `--fail-fast` exits right after the first violating cell (the JSON
//! written so far is still flushed), so a dirty sweep fails in seconds
//! instead of minutes; the per-cell `wall ms` column makes slow cells
//! visible either way.
//!
//! `--heartbeat-out PATH` streams live `bigtiny-obs-heartbeat-v1` lines
//! for every cell; `--blackbox-out PATH` dumps the flight-recorder tails
//! of the first *dirty* cell (reason `drf_violation`) alongside a
//! Perfetto tail trace at `PATH.trace.json`.

use bigtiny_bench::live::Harness;
use bigtiny_bench::{cli, render_table, run_app, Setup};
use bigtiny_checker::{check_run, CheckReport, ViolationKind};
use bigtiny_engine::{CheckMode, RacyTag};

const CLI: cli::Spec = cli::Spec::new(
    env!("CARGO_BIN_NAME"),
    &[
        &cli::FAIL_FAST,
        &cli::HEARTBEAT_OUT,
        &cli::BLACKBOX_OUT,
        &cli::SIZE,
        &cli::APPS,
        &cli::CHECK_OUT,
    ],
);

fn json_line(app: &str, setup: &str, report: &CheckReport, wall_ms: u128) -> String {
    let mut s = String::from("{");
    s.push_str(&format!("\"app\":\"{app}\",\"setup\":\"{setup}\""));
    s.push_str(&format!(",\"wall_ms\":{wall_ms}"));
    s.push_str(&format!(",\"events\":{}", report.events));
    s.push_str(&format!(",\"clean\":{}", u8::from(report.is_clean())));
    s.push_str(&format!(",\"violations\":{}", report.violations.len()));
    s.push_str(&format!(",\"suppressed\":{}", report.suppressed));
    for kind in ViolationKind::ALL {
        s.push_str(&format!(",\"{}\":{}", kind.label(), report.count(kind)));
    }
    for (tag, n) in RacyTag::ALL.iter().zip(report.racy_loads) {
        s.push_str(&format!(",\"racy-{}\":{n}", tag.label()));
    }
    s.push_str(&format!(",\"verdict_hash\":\"{:#018x}\"", report.verdict_hash()));
    s.push('}');
    s
}

fn main() {
    let args = CLI.parse();
    let fail_fast = args.given(&cli::FAIL_FAST);
    let harness = Harness::new(&args);
    let (size, apps) = (harness.size, &harness.apps);
    let setups: Vec<Setup> = Setup::big_tiny_matrix()
        .into_iter()
        .map(|mut s| {
            s.sys = s.sys.with_check(CheckMode::Full);
            s
        })
        .collect();

    let header: Vec<String> =
        ["app", "setup", "events", "racy loads", "wall ms", "verdict"].map(String::from).to_vec();
    let mut rows = Vec::new();
    let mut lines = Vec::new();
    let mut dirty = 0usize;

    'sweep: for app in apps {
        for base in &setups {
            let mut armed = base.clone();
            harness.arm(&mut armed, app.name);
            let setup = &armed;
            let t0 = std::time::Instant::now();
            let r = run_app(setup, app, size, 0);
            let report = check_run(&setup.sys, &r.run.report);
            let wall_ms = t0.elapsed().as_millis();
            eprintln!(
                "[check_all] {:<12} {:<16} {:>9} events  {}",
                r.app,
                setup.label,
                report.events,
                if report.is_clean() { "clean" } else { "VIOLATIONS" }
            );
            if !report.is_clean() {
                dirty += 1;
                eprint!("{}", report.render());
                // First dirty cell: dump its flight tails for forensics.
                if dirty == 1 {
                    harness.dump_report("drf_violation", setup, &r);
                }
            }
            rows.push(vec![
                r.app.to_owned(),
                setup.label.clone(),
                report.events.to_string(),
                report.racy_total().to_string(),
                wall_ms.to_string(),
                if report.is_clean() {
                    "clean".to_owned()
                } else {
                    format!("{} violation(s)", report.violations.len())
                },
            ]);
            lines.push(json_line(r.app, &setup.label, &report, wall_ms));
            if dirty > 0 && fail_fast {
                eprintln!("[check_all] --fail-fast: stopping after first dirty cell");
                break 'sweep;
            }
        }
    }

    println!("DRF conformance sweep ({} kernels x {} setups)\n", apps.len(), setups.len());
    println!("{}", render_table(&header, &rows));

    let out_path = args.text(&cli::CHECK_OUT).expect("has a default");
    let body = lines.join("\n") + "\n";
    std::fs::write(out_path, body).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("[check_all] wrote {out_path}");

    if dirty > 0 {
        eprintln!("[check_all] {dirty} run(s) had violations");
        std::process::exit(1);
    }
    println!("all {} runs clean", rows.len());
}
