//! The harness's one arm-and-emit path: how parsed options become armed
//! runs, and how results become documents.
//!
//! [`Harness::new`] turns the options a binary was given into one value;
//! [`Harness::arm`] applies them to a setup and [`Harness::run_matrix`]
//! runs a kernel × setup matrix under them. [`metrics_doc`] and
//! [`trace_doc`] are the only places a metrics or Perfetto document is
//! built; [`write_blackbox`] writes a validated black-box document plus its
//! Perfetto tail-trace sibling, and [`dump_on_panic`] turns a caught
//! watchdog/poison panic into one from the engine's crash-time bundle.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bigtiny_apps::{AppSize, AppSpec};
use bigtiny_core::RuntimeStats;
use bigtiny_engine::sync::RwLock;
use bigtiny_engine::{backend_label, last_bundle, FaultPlan, Heartbeat, HeartbeatSnap};
use bigtiny_obs::{
    blackbox_from_bundle, blackbox_from_report, blackbox_tail_trace, export_chrome_trace,
    heartbeat_line, metrics_document, validate_blackbox, validate_chrome_trace, Json, RunMetrics,
    TraceRun, TraceSummary,
};

use crate::cli::{self, Args};
use crate::{execute, AppResult, ResultRecord, Setup, Verdict};

struct HbShared {
    file: Mutex<File>,
    t0: Instant,
    /// `(grants, when)` of the previous beat of the current run, for the
    /// grants/s rate over the last interval (host-side, out-of-band).
    last: Mutex<(u64, Instant)>,
}

/// A shared `--heartbeat-out` sink. One writer serves every run of a
/// harness invocation; [`HeartbeatWriter::arm`] labels each run's lines
/// with its `(app, setup)` so the stream stays per-run demultiplexable.
struct HeartbeatWriter {
    shared: Arc<HbShared>,
    path: String,
    every: u64,
}

impl HeartbeatWriter {
    /// Creates (truncating) the heartbeat file at `path`, beating every
    /// `every` grants.
    fn create(path: &str, every: u64) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let now = Instant::now();
        Ok(HeartbeatWriter {
            shared: Arc::new(HbShared {
                file: Mutex::new(file),
                t0: now,
                last: Mutex::new((0, now)),
            }),
            path: path.to_owned(),
            every,
        })
    }

    /// Arms `setup` (in place) so its next run streams heartbeats for
    /// kernel `app` into this writer: installs the engine heartbeat sink
    /// and a live [`RuntimeStats`] handle the sink samples.
    /// Observation-only — simulated results are bit-for-bit unchanged.
    fn arm(&self, setup: &mut Setup, app: &str) {
        let stats = Arc::new(RwLock::new(RuntimeStats::default()));
        setup.rt.live_stats = Some(Arc::clone(&stats));
        let shared = Arc::clone(&self.shared);
        let app = app.to_owned();
        let label = setup.label.clone();
        // A new run restarts the rate window (grant counters reset per run).
        *shared.last.lock().expect("heartbeat rate slot") = (0, Instant::now());
        let sink = move |snap: &HeartbeatSnap| {
            let now = Instant::now();
            let wall_ms = shared.t0.elapsed().as_millis() as u64;
            let rate = {
                let mut last = shared.last.lock().expect("heartbeat rate slot");
                let dt = now.duration_since(last.1).as_secs_f64();
                let grants = snap.total_grants.saturating_sub(last.0);
                *last = (snap.total_grants, now);
                if dt > 0.0 {
                    grants as f64 / dt
                } else {
                    0.0
                }
            };
            let s = *stats.read();
            let extra = vec![
                ("wall_ms".to_owned(), Json::u64(wall_ms)),
                ("grants_per_sec".to_owned(), Json::f64(rate)),
                ("tasks_executed".to_owned(), Json::u64(s.tasks_executed)),
                ("steals".to_owned(), Json::u64(s.steals)),
                ("steal_attempts".to_owned(), Json::u64(s.steal_attempts)),
                ("revivals".to_owned(), Json::u64(s.revivals)),
            ];
            let line = heartbeat_line(&app, &label, snap, extra);
            let mut f = shared.file.lock().expect("heartbeat file");
            // Heartbeats are advisory: a full disk must not kill the run.
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        };
        setup.sys.heartbeat = Some(Heartbeat::new(self.every, Arc::new(sink)));
    }
}

/// Arms the observability trio on `setup`: per-task cycle attribution and
/// task-event recording, plus per-core tracing when `trace` (what a
/// Perfetto export needs on top of what a critical-path profile needs).
/// All three are bit-for-bit invisible to simulated results.
pub fn observe(setup: &mut Setup, trace: bool) {
    setup.sys.attr = true;
    setup.rt.record_task_events = true;
    setup.sys.trace |= trace;
}

/// What the options of one harness invocation decided: what to run, and
/// how every run is armed. Arming options a binary does not take arm
/// nothing.
pub struct Harness {
    /// Input scale (`BIGTINY_SIZE`).
    pub size: AppSize,
    /// The kernels to run (`BIGTINY_APPS`, else all).
    pub apps: Vec<AppSpec>,
    /// `--fault-plan` as given, `--fault-seed`, and the plan they name.
    faults: Option<(String, u64, FaultPlan)>,
    watchdog: Option<u64>,
    /// `--trace-out` was given: every run records what the export needs.
    trace: bool,
    heartbeat: Option<HeartbeatWriter>,
    blackbox: Option<String>,
    /// The `BIGTINY_JSON` record sink, opened for appending.
    records: Option<File>,
}

impl Harness {
    /// Arms what `args` asks for. The parser probed every path in `args`,
    /// so failing to open one now is an I/O error, not a typo.
    ///
    /// # Panics
    ///
    /// Panics on such an I/O error.
    pub fn new(args: &Args) -> Harness {
        let faults = args.text(&cli::FAULT_PLAN).map(|spec| {
            let seed = args.get(&cli::FAULT_SEED);
            let plan = FaultPlan::parse(spec, seed).expect("validated by the parser");
            (spec.to_owned(), seed, plan)
        });
        if faults.is_none() && args.given(&cli::FAULT_SEED) {
            eprintln!(
                "[faults] --fault-seed given without --fault-plan: running fault-free \
                 (pass --fault-plan to arm injection)"
            );
        }
        let heartbeat = args.text(&cli::HEARTBEAT_OUT).map(|path| {
            HeartbeatWriter::create(path, args.get(&cli::HEARTBEAT_EVERY))
                .unwrap_or_else(|e| panic!("{} {path}: {e}", cli::HEARTBEAT_OUT.name))
        });
        let records = args.text(&cli::JSON).map(|path| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .unwrap_or_else(|e| panic!("{}={path}: {e}", cli::JSON.name))
        });
        Harness {
            size: args.size(),
            apps: args.apps(),
            faults,
            watchdog: args.given(&cli::WATCHDOG_BUDGET).then(|| args.get(&cli::WATCHDOG_BUDGET)),
            trace: args.text(&cli::TRACE_OUT).is_some(),
            heartbeat,
            blackbox: args.text(&cli::BLACKBOX_OUT).map(str::to_owned),
            records,
        }
    }

    /// The fault plan armed on every run, if any. A crash-armed one also
    /// records task events, for the crash-recovery audit.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|(.., plan)| plan)
    }

    /// The `--blackbox-out` path, if given.
    pub fn blackbox(&self) -> Option<&str> {
        self.blackbox.as_deref()
    }

    /// Says on stdout what is armed on every run, one line per mechanism.
    pub fn announce(&self) {
        if let Some((spec, seed, plan)) = &self.faults {
            println!("[faults] plan={spec} seed={seed:#x} armed on every configuration");
            if plan.crash_armed() {
                println!("[faults] crash dimension armed: task events recorded, audit gated");
            }
        }
        if let Some(budget) = self.watchdog {
            println!("[watchdog] liveness budget: {budget} sequenced grants without progress");
        }
        if self.trace {
            println!(
                "[obs] per-core tracing + task events + cycle attribution armed (--trace-out)"
            );
        }
        if let Some(HeartbeatWriter { path, every, .. }) = &self.heartbeat {
            println!(
                "[obs] heartbeat armed: one line every {every} grants -> {path} \
                 (follow with `tail_run {path}`)"
            );
        }
    }

    /// Arms `setup` (in place) for its next run, of kernel `app`: the
    /// fault plan, the watchdog budget, the observability trio under
    /// `--trace-out`, and a heartbeat sink labelled with this `(app,
    /// setup)`. Only the fault plan can change simulated results.
    pub fn arm(&self, setup: &mut Setup, app: &str) {
        if let Some(plan) = self.faults() {
            setup.sys.faults = plan.clone();
            setup.rt.record_task_events |= plan.crash_armed();
        }
        if let Some(budget) = self.watchdog {
            setup.sys.watchdog_budget = Some(budget);
        }
        if self.trace {
            observe(setup, true);
        }
        if let Some(heartbeat) = &self.heartbeat {
            heartbeat.arm(setup, app);
        }
    }

    /// Runs every kernel of the invocation on every setup, kernel-major,
    /// each run armed by [`Harness::arm`] and decided by the
    /// [`judge`](crate::judge), with progress on stderr and one
    /// [`ResultRecord`] line per run appended to the `BIGTINY_JSON` file.
    /// Returns the results and, in the same order, their verdicts, whose
    /// reports the tables print.
    ///
    /// A dirty verdict aborts the matrix, after dumping that run's
    /// flight-recorder tails under `--blackbox-out` (reason
    /// `dirty_verdict`). A watchdog trip or worker-panic poison that
    /// unwinds out of the matrix leaves the engine's crash-time bundle
    /// behind as a dump before the panic is re-raised.
    pub fn run_matrix(&self, setups: &[Setup]) -> (Vec<AppResult>, Vec<Verdict>) {
        let n = setups.len() * self.apps.len();
        let (mut results, mut verdicts) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for app in &self.apps {
            for setup in setups {
                let mut setup = setup.clone();
                self.arm(&mut setup, app.name);
                let t0 = Instant::now();
                let run = || execute(&setup, app, self.size, 0);
                let (r, verdict, _) = match &self.blackbox {
                    None => run(),
                    Some(path) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                        .unwrap_or_else(|panic| {
                            if !dump_on_panic(path) {
                                eprintln!("[blackbox] run aborted before any bundle was recorded");
                            }
                            std::panic::resume_unwind(panic)
                        }),
                };
                if !verdict.is_clean() {
                    self.dump_report("dirty_verdict", &setup, &r);
                    verdict.assert_clean(app.name, &setup.label);
                }
                eprintln!(
                    "[bench] {:<12} {:<18} {:>12} cycles  ({:.1}s wall)",
                    app.name,
                    setup.label,
                    r.cycles,
                    t0.elapsed().as_secs_f64()
                );
                if let Some(mut records) = self.records.as_ref() {
                    writeln!(records, "{}", ResultRecord::from(&r).to_json_line())
                        .expect("write JSON record");
                }
                results.push(r);
                verdicts.push(verdict);
            }
        }
        (results, verdicts)
    }

    /// Under `--blackbox-out`, dumps the flight-recorder tails of the
    /// completed run `r` of `setup` as a black-box document with `reason`.
    pub fn dump_report(&self, reason: &str, setup: &Setup, r: &AppResult) {
        let Some(path) = &self.blackbox else { return };
        let faults = self.faults().unwrap_or(&setup.sys.faults).to_spec();
        let backend = backend_label(&setup.sys);
        write_blackbox(path, &blackbox_from_report(reason, backend, &faults, &r.run.report));
    }
}

/// Writes `doc` plus a trailing newline to the output path `path`,
/// streaming it through a buffer rather than holding its text.
///
/// # Panics
///
/// Panics on an I/O error: the path was creatable when the options were
/// parsed, and silently losing an artifact is worse than aborting.
pub fn write_doc(path: &str, doc: &Json) {
    let written = File::create(path).and_then(|file| {
        let mut out = BufWriter::new(file);
        doc.write_to(&mut out)?;
        out.write_all(b"\n")?;
        out.flush()
    });
    written.unwrap_or_else(|e| panic!("writing {path}: {e}"));
}

/// The `bigtiny-obs` metrics document over `results`, one object per run.
pub fn metrics_doc(results: &[AppResult]) -> Json {
    let runs: Vec<RunMetrics<'_>> = results
        .iter()
        .map(|r| RunMetrics {
            app: r.app,
            setup: &r.setup,
            deque_policy: r.deque_policy,
            run: &r.run,
            tiny_cores: &r.tiny_cores,
        })
        .collect();
    metrics_document(&runs)
}

/// The Chrome trace-event (Perfetto) document over `results`, validated
/// structurally before anyone gets to write it.
///
/// # Panics
///
/// Panics if the exporter's own validator rejects the document.
pub fn trace_doc(results: &[AppResult]) -> (Json, TraceSummary) {
    let runs: Vec<TraceRun<'_>> =
        results.iter().map(|r| TraceRun { app: r.app, setup: &r.setup, run: &r.run }).collect();
    let doc = export_chrome_trace(&runs);
    let summary = validate_chrome_trace(&doc)
        .unwrap_or_else(|e| panic!("exported trace fails structural validation: {e}"));
    (doc, summary)
}

/// Writes a black-box document to `path` and its Perfetto tail trace to
/// `path.trace.json`, validating both first.
///
/// # Panics
///
/// Panics if the document fails structural validation.
pub fn write_blackbox(path: &str, doc: &Json) {
    let summary =
        validate_blackbox(doc).unwrap_or_else(|e| panic!("black-box document invalid: {e}"));
    write_doc(path, doc);
    let trace_path = format!("{path}.trace.json");
    write_doc(&trace_path, &blackbox_tail_trace(doc).expect("validated above"));
    eprintln!(
        "[blackbox] {} flight events over {}/{} cores -> {path} (+ {trace_path})",
        summary.events, summary.cores_with_tail, summary.cores
    );
}

/// Black-box handling for a panic caught around a run: if the engine
/// recorded a crash-time [`DiagnosticBundle`](bigtiny_engine::DiagnosticBundle)
/// (watchdog trip or worker-panic poison), dumps it to `path` and returns
/// `true`. A panic with no bundle (e.g. a harness assertion) returns
/// `false` untouched.
pub fn dump_on_panic(path: &str) -> bool {
    match last_bundle() {
        Some(bundle) => {
            write_blackbox(path, &blackbox_from_bundle(&bundle));
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_engine::Protocol;
    use bigtiny_obs::{parse_json, validate_heartbeat_stream};

    /// A harness armed from a command line, as a binary would arm it.
    fn harness(argv: &[&str]) -> Harness {
        const CLI: cli::Spec = cli::Spec::new(
            "live-test",
            &[
                &cli::SIZE,
                &cli::APPS,
                &cli::HEARTBEAT_OUT,
                &cli::HEARTBEAT_EVERY,
                &cli::BLACKBOX_OUT,
            ],
        );
        let env = |name: &str| match name {
            "BIGTINY_SIZE" => Some("test".into()),
            "BIGTINY_APPS" => Some("cilk5-nq".into()),
            _ => None,
        };
        let args = CLI
            .parse_from(argv.iter().map(std::ffi::OsString::from), env)
            .expect("valid test command line");
        Harness::new(&args)
    }

    #[test]
    fn armed_matrix_streams_valid_heartbeats() {
        let dir = std::env::temp_dir().join("bigtiny-live-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hb.jsonl");
        let path = path.to_str().unwrap();
        // A tight cadence so even the test-size run emits several beats.
        let h = harness(&["--heartbeat-out", path, "--heartbeat-every", "200"]);
        let (results, _) = h.run_matrix(&[Setup::bt_hcc(Protocol::GpuWb, true)]);
        assert_eq!(results.len(), 1);
        let text = std::fs::read_to_string(path).unwrap();
        let beats = validate_heartbeat_stream(&text).expect("stream validates");
        assert!(beats >= 2, "expected several beats, got {beats}");
        // The final beat's deterministic fields reflect the run's tail.
        let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap();
        let doc = parse_json(last).unwrap();
        assert_eq!(doc.get("app").and_then(Json::as_str), Some("cilk5-nq"));
        assert_eq!(doc.get("setup").and_then(Json::as_str), Some("b.T/HCC-DTS-gwb"));
        let grants = doc.get("grants").and_then(Json::as_num).unwrap();
        assert!(grants as u64 <= results[0].run.report.seq_grants);
    }

    /// A dirty verdict aborts the matrix, naming the finding, and under
    /// `--blackbox-out` leaves that run's flight tails behind.
    #[test]
    fn a_dirty_verdict_aborts_the_matrix_and_dumps_the_run() {
        let dir = std::env::temp_dir().join("bigtiny-live-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dirty.json");
        let path = path.to_str().unwrap();
        let mut h = harness(&["--blackbox-out", path]);
        let prepare = crate::tests::wrong_answer;
        h.apps =
            vec![AppSpec { name: "nq-wrong", method: bigtiny_apps::Method::SpawnSync, prepare }];
        let aborted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.run_matrix(&[Setup::bt_hcc(Protocol::GpuWb, true)])
        }));
        let msg = crate::panic_message(aborted.expect_err("a dirty run aborts").as_ref());
        assert!(
            msg.contains("nq-wrong on b.T/HCC-DTS-gwb") && msg.contains("wrong answer"),
            "{msg}"
        );
        let doc = parse_json(std::fs::read_to_string(path).unwrap().trim()).unwrap();
        assert_eq!(doc.get("reason").and_then(Json::as_str), Some("dirty_verdict"));
    }

    #[test]
    fn explicit_blackbox_roundtrip() {
        let dir = std::env::temp_dir().join("bigtiny-live-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("box.json");
        let path = path.to_str().unwrap();
        let h = harness(&["--blackbox-out", path]);
        let setup = Setup::bt_hcc(Protocol::GpuWb, true);
        let r = crate::run_app(&setup, &h.apps[0], h.size, 0);
        h.dump_report("explicit", &setup, &r);
        let reread = parse_json(std::fs::read_to_string(path).unwrap().trim()).unwrap();
        let summary = validate_blackbox(&reread).unwrap();
        assert!(summary.events > 0, "always-on ring captured the run");
        assert!(std::fs::metadata(format!("{path}.trace.json")).unwrap().len() > 0);
    }
}
