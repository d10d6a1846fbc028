#![forbid(unsafe_code)]

//! The repo benchmark: four simulator workloads, host-time and
//! simulated-time end-to-end metrics, and outside-in per-layer rows.
//! See `benchmark/README.md`.

mod compare;
mod metrics;
mod micro;
mod pass;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use bigtiny_apps::AppSize;
use bigtiny_obs::parse_json;

use crate::pass::PassResult;
use crate::report::WorkloadReport;
use crate::stats::MIN_SAMPLES_FOR_MEDIAN;
use crate::workloads::{workload_by_name, Workload, WORKLOADS};

const USAGE: &str = "usage:
  benchmark [run|trace] [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
  benchmark compare A.json B.json

  --workload NAME  matrix-64 | matrix-256 | observed-64 | faults-64 (repeatable; default all four)
  --seed N         drives victim selection, fault plans and micro-bench streams (default 7)
  --seconds S      time budget of the timed passes, per workload (default 20; at least 3 passes run)
  --trace 0|1      0: timed passes only (end-to-end metrics); 1: traced pass + micro-benches only
                   (per-layer metrics); absent: both. `trace` is short for `--trace 1`.
  --quick          test-size inputs, one pass, micro-benches at 1/20 length
  --out DIR        where result.json and spans-<workload>.json go (default benchmark/out)
With one workload selected the last line of stdout is one JSON object:
  {\"correct\":…,\"attempted\":…,\"failed\":…,\"metrics\":{name:{\"value\":…,\"unit\":…}}}";

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    timed: bool,
    traced: bool,
    quick: bool,
    out: PathBuf,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 7,
        seconds: 20.0,
        timed: true,
        traced: true,
        quick: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workloads.push(
                    workload_by_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                o.seed =
                    v.parse().map_err(|_| format!("--seed must be a whole number, got {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got {v}"))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => (o.timed, o.traced) = (true, false),
                "1" => (o.timed, o.traced) = (false, true),
                v => return Err(format!("--trace must be 0 or 1, got {v}")),
            },
            "--quick" => o.quick = true,
            "--out" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.workloads.is_empty() {
        o.workloads = WORKLOADS.iter().collect();
    }
    Ok(o)
}

/// Re-executes this binary for one pass and reads its result back.
fn run_pass_in_child(w: &Workload, o: &Options, spans: bool) -> Result<PassResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["pass", "--workload", w.name, "--seed", &o.seed.to_string()]);
    if o.quick {
        cmd.arg("--quick");
    }
    if spans {
        cmd.arg("--spans");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the pass of {}: {e}", w.name))?;
    if !output.status.success() {
        return Err(format!("the pass of {} exited with {}", w.name, output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| format!("pass output: {e}"))?;
    let line =
        text.lines().last().ok_or_else(|| format!("the pass of {} printed nothing", w.name))?;
    PassResult::from_json(&parse_json(line)?)
}

/// The `pass` subcommand: one pass in this process, result on stdout.
fn pass_main(args: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut size, mut spans) = (None, 7u64, AppSize::Eval, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = it.next().and_then(|n| workload_by_name(n)),
            "--seed" => seed = it.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--quick" => size = AppSize::Test,
            "--spans" => spans = true,
            other => return usage_error(&format!("pass: unknown argument {other}")),
        }
    }
    let Some(workload) = workload else { return usage_error("pass: needs --workload") };
    // A fail-stop crash unwinds its core with a private non-string payload
    // that the runtime catches; only real panics are worth a message.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        if p.is::<String>() || p.is::<&str>() {
            default_hook(info);
        }
    }));
    let result = pass::run_pass(workload, seed, size, spans);
    println!("{}", result.to_json().to_json());
    ExitCode::SUCCESS
}

/// Timed passes, round-robin over the workloads (pass 1 of each, then
/// pass 2, …) so slow host drift hits every workload equally. A workload
/// stops when its next pass would overrun its `--seconds` budget, but
/// never before it has enough passes for a median.
fn timed_phase(o: &Options, reports: &mut [WorkloadReport]) -> Result<(), String> {
    let min_passes = if o.quick { 1 } else { MIN_SAMPLES_FOR_MEDIAN };
    let mut spent = vec![0.0f64; reports.len()];
    let mut longest = vec![0.0f64; reports.len()];
    loop {
        let mut ran_one = false;
        for (i, w) in o.workloads.iter().enumerate() {
            let n = reports[i].passes.len();
            let fits = !o.quick && spent[i] + longest[i] <= o.seconds;
            if n >= min_passes && !fits {
                continue;
            }
            let t = Instant::now();
            let pass = run_pass_in_child(w, o, false)?;
            let took = t.elapsed().as_secs_f64();
            eprintln!(
                "[benchmark] {:<12} pass {}: wall {:.3}s (raw {:.3}s) setup {:.4}s rss {} MB failed {}",
                w.name,
                n + 1,
                pass.wall_s,
                pass.wall_raw_s,
                pass.setup_s,
                pass.rss_kb / 1024,
                pass.failed()
            );
            spent[i] += took;
            longest[i] = longest[i].max(took);
            reports[i].passes.push(pass);
            ran_one = true;
        }
        if !ran_one {
            return Ok(());
        }
    }
}

/// One untraced and one traced pass per workload (their difference is the
/// tracing overhead), span documents written to `--out`, then the
/// micro-benches.
fn trace_phase(o: &Options, reports: &mut [WorkloadReport]) -> Result<micro::MicroResults, String> {
    for (i, w) in o.workloads.iter().enumerate() {
        if reports[i].passes.is_empty() {
            reports[i].passes.push(run_pass_in_child(w, o, false)?);
        }
        let traced = run_pass_in_child(w, o, true)?;
        eprintln!("[benchmark] {:<12} traced pass: wall {:.3}s", w.name, traced.wall_s);
        let ids: Vec<String> = traced.cells.iter().map(|c| c.id.clone()).collect();
        let doc = spans::spans_document(w.name, &ids, &traced.spans);
        write_document(&o.out.join(format!("spans-{}.json", w.name)), &doc.to_json());
        reports[i].traced = Some(traced);
    }
    eprintln!("[benchmark] micro-benches …");
    Ok(micro::run_all(o.seed, o.quick))
}

/// Documents are a convenience beside stdout: a checkout that cannot be
/// written to still gets its numbers.
fn write_document(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, format!("{text}\n")));
    match written {
        Ok(()) => eprintln!("[benchmark] wrote {}", path.display()),
        Err(e) => eprintln!("[benchmark] could not write {}: {e}", path.display()),
    }
}

fn run_main(o: &Options) -> Result<ExitCode, String> {
    let mut reports: Vec<WorkloadReport> = o
        .workloads
        .iter()
        .map(|w| WorkloadReport { name: w.name, passes: Vec::new(), traced: None })
        .collect();
    if o.timed {
        timed_phase(o, &mut reports)?;
    }
    let micro = if o.traced { Some(trace_phase(o, &mut reports)?) } else { None };

    let mut failures: Vec<String> = reports.iter().flat_map(WorkloadReport::failures).collect();
    let mut attempted: usize = reports.iter().map(WorkloadReport::cells_attempted).sum();
    if let Some(m) = &micro {
        failures.extend(m.failures.iter().cloned());
        attempted += m.rows.len();
    }

    let size = if o.quick { "test" } else { "eval" };
    println!("bigtiny benchmark: seed {}, {size}-size inputs, one client, closed loop", o.seed);
    if o.timed {
        println!("\nEnd-to-end (untraced passes)\n{}", report::end_to_end_table(&reports));
    }
    if let Some(m) = &micro {
        println!("Per layer, per workload (traced pass)\n{}", report::layer_tables(&reports));
        println!("Per layer, micro-benches\n{}", report::micro_table(m));
        println!(
            "Estimated share of core.simulate_s (count x ns)\n{}",
            report::share_table(&reports, m)
        );
    }
    for f in &failures {
        eprintln!("[benchmark] FAILED {f}");
    }
    println!("cells_failed = {} of {attempted} attempted", failures.len());
    let doc = report::result_document(o.seed, size, &reports, micro.as_ref());
    write_document(&o.out.join("result.json"), &doc.to_json());
    if let [only] = reports.as_slice() {
        println!(
            "{}",
            report::contract_line(only, o.timed, micro.as_ref(), attempted, failures.len())
        );
    }
    Ok(if failures.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "compare" | "pass")) => (c, &args[1..]),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("run", &args[..]),
    };
    match command {
        "pass" => pass_main(rest),
        "compare" => match rest {
            [a, b] => match compare::compare(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => usage_error(&e),
            },
            _ => usage_error("compare takes two result documents"),
        },
        _ => {
            let mut o = match parse_options(rest) {
                Ok(o) => o,
                Err(e) => return usage_error(&e),
            };
            if command == "trace" {
                (o.timed, o.traced) = (false, true);
            }
            match run_main(&o) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("[benchmark] {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
