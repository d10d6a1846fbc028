//! `check_all`: runs every kernel under every setup of the paper matrix
//! with the DRF conformance checker armed, and emits a JSON verdict table.
//!
//! This is the oracle sweep: MESI baseline plus HCC / HCC-DTS on the
//! three software-centric protocols, each run judged by the harness's one
//! judge (`bigtiny_bench::judge`) with the checker armed: kernel verify,
//! zero stale reads, cycle conservation, and the op stream replayed
//! through the checker's happens-before, staleness, and sync-discipline
//! passes. A healthy tree produces an all-clean table; any finding is
//! printed (a DRF violation with its core, cycle and address), a panic
//! included, and the run exits nonzero.
//!
//! Writes one flat JSON object per (kernel × setup) line to
//! `CHECK_verdicts.json` at the repo root (or `$BIGTINY_CHECK_OUT`). The
//! lines hold no host timing, so the file is a pure function of the tree:
//! CI diffs the test-size sweep against `results/check_verdicts_test.json`.
//! `BIGTINY_SIZE` / `BIGTINY_APPS` restrict the sweep as for the other
//! harness bins.
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
use bigtiny_bench::{cli, render_table, try_run_app, Setup};
use bigtiny_checker::{CheckReport, ViolationKind};
use bigtiny_engine::{CheckMode, RacyTag};
use bigtiny_obs::Json;

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

/// One verdict line: a flat object through the workspace's one JSON writer.
fn json_line(app: &str, setup: &str, report: &CheckReport) -> String {
    let counts = [
        ("events", report.events),
        ("clean", u64::from(report.is_clean())),
        ("violations", report.violations.len() as u64),
        ("suppressed", report.suppressed),
    ];
    let mut fields =
        vec![("app".to_owned(), Json::str(app)), ("setup".to_owned(), Json::str(setup))];
    fields.extend(counts.map(|(key, n)| (key.to_owned(), Json::u64(n))));
    fields.extend(
        ViolationKind::ALL
            .map(|kind| (kind.label().to_owned(), Json::u64(report.count(kind) as u64))),
    );
    fields.extend(
        RacyTag::ALL
            .iter()
            .zip(report.racy_loads)
            .map(|(tag, n)| (format!("racy-{}", tag.label()), Json::u64(n))),
    );
    fields.push(("verdict_hash".to_owned(), Json::hash(report.verdict_hash())));
    Json::Obj(fields).to_json()
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
            let judged = try_run_app(setup, app, size, 0);
            let wall_ms = t0.elapsed().as_millis() as u64;
            let verdict = &judged.verdict;
            let events = verdict.drf.as_ref().map_or(0, |report| report.events);
            eprintln!(
                "[check_all] {:<12} {:<16} {:>9} events  {}",
                app.name,
                setup.label,
                events,
                if verdict.is_clean() { "clean" } else { "VIOLATIONS" }
            );
            if !verdict.is_clean() {
                dirty += 1;
                eprint!("{}", verdict.render());
                // First dirty cell: dump its flight tails for forensics.
                if let (1, Some(r)) = (dirty, &judged.result) {
                    harness.dump_report("drf_violation", setup, r);
                }
            }
            // A run that panicked left no op stream to tabulate.
            if let Some(report) = &verdict.drf {
                rows.push(vec![
                    app.name.to_owned(),
                    setup.label.clone(),
                    report.events.to_string(),
                    report.racy_total().to_string(),
                    wall_ms.to_string(),
                    if verdict.is_clean() {
                        "clean".to_owned()
                    } else {
                        format!("{} violation(s)", report.violations.len())
                    },
                ]);
                lines.push(json_line(app.name, &setup.label, report));
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_checker::Violation;
    use bigtiny_coherence::Addr;

    /// The exact bytes of one verdict line, key order and hash format
    /// included: `CHECK_verdicts.json` readers depend on both.
    #[test]
    fn a_verdict_line_has_pinned_bytes() {
        let mut racy_loads = [0; RacyTag::ALL.len()];
        (racy_loads[0], racy_loads[8]) = (5, 1);
        let report = CheckReport {
            mode: CheckMode::Full,
            events: 1234,
            violations: vec![Violation {
                kind: ViolationKind::StaleMissingFlush,
                core: 3,
                cycle: 77,
                addr: Some(Addr(0x40)),
                detail: String::new(),
            }],
            suppressed: 2,
            racy_loads,
        };
        let want = concat!(
            r#"{"app":"cilk5-nq","setup":"b.T/HCC-gwb","events":1234,"clean":0,"#,
            r#""violations":1,"suppressed":2,"hb-race":0,"stale-missing-invalidate":0,"#,
            r#""stale-missing-flush":1,"lint-acquire-no-invalidate":0,"lint-release-no-flush":0,"#,
            r#""lint-hsc-elide-after-steal":0,"protocol-stream":0,"racy-RcWaitLoop":5,"#,
            r#""racy-LigraDedupFlag":0,"racy-LigraCondProbe":0,"racy-LigraClaimedLevel":0,"#,
            r#""racy-LigraMonotoneSrc":0,"racy-DequeOwnerPeek":0,"racy-DequeThiefPeek":0,"#,
            r#""racy-DequeOwnerCommit":0,"racy-DequeTailPublish":1,"#,
            r#""verdict_hash":"0xf64eb300366086ce"}"#,
        );
        assert_eq!(json_line("cilk5-nq", "b.T/HCC-gwb", &report), want);
    }
}
