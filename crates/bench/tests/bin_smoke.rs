//! Tier-1 smoke tests for every figure/table binary: each one runs on a
//! tiny input and must exit cleanly with a rendered table, and every
//! machine-readable artifact it writes must survive the strict parsers.
//! Before this suite, the `fig4`–`fig8`/`table1`–`table5` bins wrote
//! result files no tool validated, so bin rot only surfaced when someone
//! tried to regenerate a paper figure.

use std::path::PathBuf;
use std::process::{Command, Output};

use bigtiny_bench::cli::{self, Kind};
use bigtiny_bench::parse_json_line;
use bigtiny_obs::{parse_json, validate_chrome_trace, METRICS_SCHEMA};

/// Runs a binary with the given env, asserting success; returns stdout.
fn run_bin(exe: &str, env: &[(&str, &str)], args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed ({}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Runs a binary that must refuse its input: exit 2 with the complaint on
/// stderr, no panic, and not a single simulation started. Returns stderr.
fn usage_error(exe: &str, env: &[(&str, &str)], args: &[&str]) -> String {
    let out = Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{exe} {args:?} {env:?}: usage errors exit 2\n{stderr}");
    assert_quiet(&out, &format!("{exe} {args:?} {env:?}"));
    assert!(out.stdout.is_empty(), "{exe} {args:?}: a refused run prints nothing on stdout");
    stderr
}

/// Neither a panic nor a progress line of any sweep: the binary stopped
/// in its option parser.
fn assert_quiet(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    for noise in ["panicked at", "[bench]", "[model_check]", "[check_all]", "[chaos]", "[fig4]"] {
        assert!(!stderr.contains(noise), "{what}: `{noise}` on stderr:\n{stderr}");
    }
}

/// A fresh scratch path that does not survive the test on success.
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("bigtiny-bin-smoke-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// The tiny-input environment for matrix-driven bins: Test size, one
/// kernel, so a full 7-setup matrix stays subsecond.
const TINY: &[(&str, &str)] = &[("BIGTINY_SIZE", "test"), ("BIGTINY_APPS", "cilk5-nq")];

/// [`TINY`] plus the model checker's equivalent: under it, a binary that
/// wrongly accepts what a test expects it to refuse at least fails fast.
const CHEAP: &[(&str, &str)] = &[
    ("BIGTINY_SIZE", "test"),
    ("BIGTINY_APPS", "cilk5-nq"),
    ("BIGTINY_MC_APPS", "fib"),
    ("BIGTINY_MC_SCHEDULES", "2"),
];

/// A rendered table has a header row, a dashed rule, and data rows.
fn assert_renders_table(stdout: &str, bin: &str, marker: &str) {
    assert!(stdout.contains(marker), "{bin}: missing {marker:?} in output:\n{stdout}");
    assert!(
        stdout.lines().any(|l| l.chars().filter(|&c| c == '-').count() > 10),
        "{bin}: no table rule in output:\n{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.contains("cilk5-nq") || l.contains("ligra") || l.contains("MESI")),
        "{bin}: no data row in output:\n{stdout}"
    );
}

/// Matrix bins also write `BIGTINY_JSON` records; every line must satisfy
/// the strict flat parser.
fn assert_json_lines_valid(path: &PathBuf, bin: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{bin}: reading {}: {e}", path.display()));
    let mut records = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let kv = parse_json_line(line)
            .unwrap_or_else(|e| panic!("{bin}: invalid BIGTINY_JSON line: {e}\n  {line}"));
        assert!(!kv.is_empty(), "{bin}: empty BIGTINY_JSON record");
        records += 1;
    }
    assert!(records > 0, "{bin}: BIGTINY_JSON wrote no records");
    let _ = std::fs::remove_file(path);
}

#[test]
fn table1_renders_protocol_classification() {
    let out = run_bin(env!("CARGO_BIN_EXE_table1"), &[], &[]);
    assert_renders_table(&out, "table1", "Table I");
}

#[test]
fn table2_renders_simulator_configuration() {
    let out = run_bin(env!("CARGO_BIN_EXE_table2"), &[], &[]);
    assert!(out.contains("Table II"), "missing title:\n{out}");
    assert!(out.contains("Tiny Core") && out.contains("Big Core"), "missing rows:\n{out}");
}

#[test]
fn fig4_renders_granularity_sweep() {
    // fig4 is fixed to ligra-tc; only the size knob applies.
    let out = run_bin(env!("CARGO_BIN_EXE_fig4"), &[("BIGTINY_SIZE", "test")], &[]);
    assert!(out.contains("Figure 4"), "missing title:\n{out}");
    assert!(out.contains("Task Granularity"), "missing header:\n{out}");
}

#[test]
fn fig5_renders_speedups_and_valid_json() {
    let json = scratch("fig5.jsonl");
    let mut env = TINY.to_vec();
    let json_s = json.to_str().unwrap().to_owned();
    env.push(("BIGTINY_JSON", &json_s));
    let out = run_bin(env!("CARGO_BIN_EXE_fig5"), &env, &[]);
    assert_renders_table(&out, "fig5", "Figure 5");
    assert!(out.contains("geomean"), "missing geomean row:\n{out}");
    assert_json_lines_valid(&json, "fig5");
}

#[test]
fn fig6_renders_hit_rates() {
    let out = run_bin(env!("CARGO_BIN_EXE_fig6"), TINY, &[]);
    assert_renders_table(&out, "fig6", "Figure 6");
    assert!(out.contains('%'), "hit rates should be percentages:\n{out}");
}

#[test]
fn fig7_renders_time_breakdowns() {
    let out = run_bin(env!("CARGO_BIN_EXE_fig7"), TINY, &[]);
    assert_renders_table(&out, "fig7", "Figure 7");
    assert!(out.contains("Flush"), "missing breakdown category:\n{out}");
}

#[test]
fn fig8_renders_traffic_and_valid_json() {
    let json = scratch("fig8.jsonl");
    let mut env = TINY.to_vec();
    let json_s = json.to_str().unwrap().to_owned();
    env.push(("BIGTINY_JSON", &json_s));
    let out = run_bin(env!("CARGO_BIN_EXE_fig8"), &env, &[]);
    assert_renders_table(&out, "fig8", "Figure 8");
    assert_json_lines_valid(&json, "fig8");
}

#[test]
fn table3_renders_serial_and_o3_comparison() {
    let out = run_bin(env!("CARGO_BIN_EXE_table3"), TINY, &[]);
    assert_renders_table(&out, "table3", "Table III");
}

#[test]
fn table4_renders_dts_reductions() {
    let out = run_bin(env!("CARGO_BIN_EXE_table4"), TINY, &[]);
    assert_renders_table(&out, "table4", "Table IV");
}

#[test]
fn table5_renders_256_core_results() {
    // table5 runs a fixed 5-kernel list on the 256-core setups; Test size
    // keeps it to a couple of seconds.
    let out = run_bin(env!("CARGO_BIN_EXE_table5"), &[("BIGTINY_SIZE", "test")], &[]);
    assert_renders_table(&out, "table5", "Table V");
}

#[test]
fn eval_all_emits_valid_metrics_and_trace_documents() {
    let metrics = scratch("eval-metrics.json");
    let trace = scratch("eval-trace.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_eval_all"),
        TINY,
        &["--metrics-out", metrics.to_str().unwrap(), "--trace-out", trace.to_str().unwrap()],
    );
    assert!(out.contains("Figure 5") && out.contains("Table IV"), "missing sections:\n{out}");

    let mdoc = parse_json(std::fs::read_to_string(&metrics).unwrap().trim_end())
        .expect("metrics document parses strictly");
    assert_eq!(mdoc.get("schema").and_then(|s| s.as_str()), Some(METRICS_SCHEMA));
    let runs = mdoc.get("runs").and_then(|r| r.as_arr()).expect("runs array");
    assert_eq!(runs.len(), 7, "one run per (app, setup): 1 app x 7 setups");
    for r in runs {
        for section in ["breakdown", "coherence", "mesh", "uli", "faults", "watchdog", "steals"] {
            assert!(
                r.get(section).is_some(),
                "run {}/{} missing section {section}",
                r.get("app").and_then(|v| v.as_str()).unwrap_or("?"),
                r.get("setup").and_then(|v| v.as_str()).unwrap_or("?"),
            );
        }
    }

    let tdoc = parse_json(std::fs::read_to_string(&trace).unwrap().trim_end())
        .expect("trace document parses strictly");
    let s = validate_chrome_trace(&tdoc).expect("trace validates structurally");
    assert!(s.complete > 0 && s.async_pairs > 0 && s.flows > 0, "trace is empty: {s:?}");

    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn trace_smoke_passes_and_writes_artifacts() {
    let metrics = scratch("smoke-metrics.json");
    let trace = scratch("smoke-trace.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_trace_smoke"),
        &[],
        &["--metrics-out", metrics.to_str().unwrap(), "--trace-out", trace.to_str().unwrap()],
    );
    assert!(out.contains("[trace_smoke] OK"), "missing OK marker:\n{out}");
    assert!(out.contains("zero-overhead pin holds"), "missing pin line:\n{out}");
    assert!(metrics.exists() && trace.exists(), "artifacts not written");
    let _ = std::fs::remove_file(&metrics);
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn profile_run_reports_and_writes_valid_v2_metrics() {
    let metrics = scratch("profile-metrics.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_profile_run"),
        &[("BIGTINY_SIZE", "test")],
        &["--app", "cilk5-nq", "--dts-only", "--out", metrics.to_str().unwrap()],
    );
    assert!(out.contains("[profile_run] OK"), "missing OK marker:\n{out}");
    assert_renders_table(&out, "profile_run", "Critical-path profile");
    assert!(out.contains("Cycle conservation"), "missing conservation table:\n{out}");
    assert!(out.contains("Burden on the critical path"), "missing burden section:\n{out}");

    let doc = parse_json(std::fs::read_to_string(&metrics).unwrap().trim_end())
        .expect("profile_run metrics parse strictly");
    assert_eq!(doc.get("schema").and_then(|s| s.as_str()), Some(METRICS_SCHEMA));
    for r in doc.get("runs").and_then(|r| r.as_arr()).expect("runs array") {
        let cp = r.get("critpath").expect("critpath section");
        assert_eq!(cp.get("profiled").map(|p| p.to_json()), Some("true".into()));
        assert!(cp.get("span").unwrap().as_num().unwrap() > 0.0, "zero span");
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn metrics_diff_passes_identical_documents_and_gates_regressions() {
    let base = scratch("diff-base.json");
    let out =
        run_bin(env!("CARGO_BIN_EXE_eval_all"), TINY, &["--metrics-out", base.to_str().unwrap()]);
    assert!(out.contains("Figure 5"), "eval_all produced no output:\n{out}");

    // Identical documents diff clean at the strict default threshold.
    let same = run_bin(
        env!("CARGO_BIN_EXE_metrics_diff"),
        &[],
        &[base.to_str().unwrap(), base.to_str().unwrap()],
    );
    assert!(same.contains("[metrics_diff] OK"), "identical docs failed diff:\n{same}");
    assert!(same.contains("0.000%"), "identical docs show a nonzero delta:\n{same}");

    // A doctored cycle count must fail the gate (serializer is compact:
    // `"cycles":N`), and pass again once the threshold allows it.
    let text = std::fs::read_to_string(&base).unwrap();
    let (prefix, rest) = text.split_once("\"cycles\":").expect("cycles key present");
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    let old: u64 = digits.parse().expect("cycles is an integer");
    let doctored_path = scratch("diff-doctored.json");
    let doctored = format!("{prefix}\"cycles\":{}{}", old * 2, rest.strip_prefix(&digits).unwrap());
    std::fs::write(&doctored_path, doctored).unwrap();

    let gate = Command::new(env!("CARGO_BIN_EXE_metrics_diff"))
        .args([base.to_str().unwrap(), doctored_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!gate.status.success(), "metrics_diff missed a 100% cycle regression");
    assert!(
        String::from_utf8_lossy(&gate.stderr).contains("exceeds threshold"),
        "wrong failure mode: {}",
        String::from_utf8_lossy(&gate.stderr)
    );
    let lax = run_bin(
        env!("CARGO_BIN_EXE_metrics_diff"),
        &[],
        &[base.to_str().unwrap(), doctored_path.to_str().unwrap(), "--threshold", "150"],
    );
    assert!(lax.contains("[metrics_diff] OK"), "generous threshold still failed:\n{lax}");

    // A threshold that makes `worst > threshold` false for every `worst`
    // is not a threshold: `nan` used to print OK over the same 100%
    // regression. Usage errors, each naming the value.
    let (base_s, doctored_s) = (base.to_str().unwrap(), doctored_path.to_str().unwrap());
    for bad in ["nan", "NaN", "inf", "-inf", "-1", "1e999", "five"] {
        let stderr = usage_error(
            env!("CARGO_BIN_EXE_metrics_diff"),
            &[],
            &[base_s, doctored_s, "--threshold", bad],
        );
        assert!(stderr.contains(&format!("--threshold: `{bad}`")), "`{bad}`:\n{stderr}");
    }
    // A dash-led argument that is no flag is a typo, not a document path.
    let stderr = usage_error(env!("CARGO_BIN_EXE_metrics_diff"), &[], &[base_s, "-x"]);
    assert!(stderr.contains("`-x`"), "{stderr}");

    // Both documents losing `cycles` used to compare 0 == 0 and pass the
    // threshold-0 gate; now the first one read is malformed.
    let gutted_path = scratch("diff-gutted.json");
    let gutted = std::fs::read_to_string(&base).unwrap().replace("\"cycles\":", "\"cycels\":");
    std::fs::write(&gutted_path, gutted).unwrap();
    let gutted_s = gutted_path.to_str().unwrap();
    let stderr = usage_error(env!("CARGO_BIN_EXE_metrics_diff"), &[], &[gutted_s, gutted_s]);
    assert!(
        stderr.contains(gutted_s) && stderr.contains("run 0 has no numeric `cycles`"),
        "malformed document not named:\n{stderr}"
    );

    let _ = std::fs::remove_file(&base);
    let _ = std::fs::remove_file(&doctored_path);
    let _ = std::fs::remove_file(&gutted_path);
}

#[test]
fn ablate_faults_renders_every_plan_row() {
    let out = run_bin(env!("CARGO_BIN_EXE_ablate_faults"), TINY, &[]);
    assert_renders_table(&out, "ablate_faults", "Fault-plan ablation");
    for plan in ["none", "uli-drop-storm", "steal-miss-storm", "mesh-latency-spikes", "hostile"] {
        assert!(out.contains(plan), "ablate_faults: missing plan row {plan:?}:\n{out}");
    }
    assert!(out.contains("golden path"), "missing golden-path note:\n{out}");
}

#[test]
fn check_all_runs_clean_and_writes_strict_verdict_lines() {
    let verdicts = scratch("check-verdicts.json");
    let mut env = TINY.to_vec();
    let v_s = verdicts.to_str().unwrap().to_owned();
    env.push(("BIGTINY_CHECK_OUT", &v_s));
    let out = run_bin(env!("CARGO_BIN_EXE_check_all"), &env, &[]);
    assert!(out.contains("DRF conformance sweep"), "missing sweep title:\n{out}");
    assert!(out.contains("all 7 runs clean"), "sweep not clean:\n{out}");
    let text = std::fs::read_to_string(&verdicts).expect("verdict file written");
    let mut lines = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let kv = parse_json_line(line)
            .unwrap_or_else(|e| panic!("check_all: invalid verdict line: {e}\n  {line}"));
        assert!(
            kv.iter().any(|(k, _)| k == "verdict_hash"),
            "check_all: verdict line missing hash: {line}"
        );
        lines += 1;
    }
    assert_eq!(lines, 7, "one verdict per (kernel x setup)");
    let _ = std::fs::remove_file(&verdicts);
}

/// Pin: the `--fault-plan` error must enumerate every named plan (the
/// crash plans included) so a typo shows the full valid vocabulary.
#[test]
fn eval_all_rejects_unknown_fault_plans_listing_every_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_eval_all"))
        .args(["--fault-plan", "bogus-plan"])
        .envs(TINY.iter().copied())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown plan `bogus-plan`"), "wrong error:\n{stderr}");
    for name in bigtiny_engine::FaultPlan::NAMES {
        assert!(stderr.contains(name), "error does not list plan {name:?}:\n{stderr}");
    }
    assert!(stderr.contains("key=value"), "error does not mention spec form:\n{stderr}");
}

/// A watchdog budget the engine would reject (0 trips an assertion in
/// `set_watchdog`) or cannot parse is a usage error, never a raw panic.
#[test]
fn eval_all_rejects_zero_and_non_numeric_watchdog_budgets() {
    for bad in ["0", "many"] {
        let out = Command::new(env!("CARGO_BIN_EXE_eval_all"))
            .args(["--watchdog-budget", bad])
            .envs(TINY.iter().copied())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "`{bad}`: usage errors exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--watchdog-budget: `{bad}` is not a positive u64")),
            "wrong error:\n{stderr}"
        );
        assert!(stderr.contains("usage: eval_all"), "usage not printed:\n{stderr}");
    }
}

/// `--fault-plan` also accepts the `key=value` spec form the chaos fuzzer
/// prints, arming the crash audit when the spec has a crash dimension.
#[test]
fn eval_all_accepts_fuzzer_specs_and_audits_crash_runs() {
    let out = run_bin(
        env!("CARGO_BIN_EXE_eval_all"),
        TINY,
        &["--fault-plan", "crash_cores=0x20,crash_at=1500", "--fault-seed", "3"],
    );
    assert!(out.contains("crash dimension armed"), "crash arming not announced:\n{out}");
    assert!(out.contains("Fault injection summary"), "missing fault summary:\n{out}");
    assert!(out.contains("Crash-recovery audit"), "missing audit table:\n{out}");
    assert!(out.contains("all 7 crash-armed runs audited clean"), "audit not clean:\n{out}");
}

/// A modelled fail-stop is not a panic: a crash-storm run that recovers
/// and exits 0 must not print a single `panicked at` line (the fail-stop
/// unwind bypasses the panic hook).
#[test]
fn eval_all_crash_storm_succeeds_without_panic_noise() {
    let out = Command::new(env!("CARGO_BIN_EXE_eval_all"))
        .args(["--fault-plan", "crash-storm", "--fault-seed", "1"])
        .envs(TINY.iter().copied())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "crash-storm run failed ({}):\n{stderr}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Crash-recovery audit"), "no crash was armed:\n{stdout}");
    assert!(!stderr.contains("panicked"), "fail-stops reached the panic hook:\n{stderr}");
}

#[test]
fn chaos_fuzz_survives_a_tiny_budget() {
    let out = run_bin(env!("CARGO_BIN_EXE_chaos_fuzz"), TINY, &["--budget", "2", "--seed", "1"]);
    assert!(
        out.contains("all 2 sampled plans survived"),
        "chaos_fuzz did not complete its budget:\n{out}"
    );
}

#[test]
fn json_check_accepts_nested_documents_and_rejects_garbage() {
    let good = scratch("check-good.json");
    std::fs::write(&good, "{\"schema\":\"x\",\"runs\":[{\"app\":\"a\"}]}\n").unwrap();
    let out = run_bin(env!("CARGO_BIN_EXE_json_check"), &[], &[good.to_str().unwrap()]);
    assert!(out.contains("1 runs"), "nested document not recognized:\n{out}");
    let _ = std::fs::remove_file(&good);

    let bad = scratch("check-bad.json");
    std::fs::write(&bad, "{\"schema\":\"x\",\"runs\":[}\n").unwrap();
    let status =
        Command::new(env!("CARGO_BIN_EXE_json_check")).arg(bad.to_str().unwrap()).output().unwrap();
    assert!(!status.status.success(), "json_check accepted a malformed document");
    let _ = std::fs::remove_file(&bad);

    // A metrics document claiming a schema version no reader understands
    // must be rejected, not silently passed through to CI artifacts.
    let drift = scratch("check-drift.json");
    std::fs::write(&drift, "{\"schema\":\"bigtiny-obs-metrics-v9\",\"runs\":[{\"app\":\"a\"}]}\n")
        .unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_json_check"))
        .arg(drift.to_str().unwrap())
        .output()
        .unwrap();
    assert!(!status.status.success(), "json_check accepted an unknown metrics schema");
    assert!(
        String::from_utf8_lossy(&status.stderr).contains("unknown metrics schema"),
        "wrong failure mode: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let _ = std::fs::remove_file(&drift);
}

// ---------------------------------------------------------------------
// The CLI contract, one table over all 27 binaries.
// ---------------------------------------------------------------------

/// What one binary accepts: the flags it takes and the environment
/// variables it honours (entries of the one options table), plus sample
/// positionals that satisfy it. Kept apart from the binaries' own `Spec`s
/// on purpose: this is the pin that no binary gains or loses an option.
struct Bin {
    name: &'static str,
    exe: &'static str,
    opts: &'static [&'static cli::Opt],
    positionals: &'static [&'static str],
}

macro_rules! bin {
    ($name:literal, [$($opt:ident),*]) => { bin!($name, [$($opt),*], []) };
    ($name:literal, [$($opt:ident),*], [$($positional:literal),*]) => {
        Bin {
            name: $name,
            exe: env!(concat!("CARGO_BIN_EXE_", $name)),
            opts: &[$(&cli::$opt),*],
            positionals: &[$($positional),*],
        }
    };
}

const BINS: [Bin; 27] = [
    bin!("ablate_deque", [METRICS_OUT, SIZE]),
    bin!("ablate_dts", [SIZE]),
    bin!("ablate_faults", [SIZE, APPS, JSON, FAULT_SEED_ENV]),
    bin!("ablate_grain", [SIZE, APPS]),
    bin!("ablate_sparse", []),
    bin!("chaos_fuzz", [BUDGET, SEED, HEARTBEAT_OUT, BLACKBOX_OUT, SIZE, APPS]),
    bin!("check_all", [FAIL_FAST, HEARTBEAT_OUT, BLACKBOX_OUT, SIZE, APPS, CHECK_OUT]),
    bin!("collab", [SIZE, APPS]),
    bin!("energy", [SIZE, APPS, JSON]),
    bin!(
        "eval_all",
        [
            FAULT_SEED,
            FAULT_PLAN,
            WATCHDOG_BUDGET,
            METRICS_OUT,
            TRACE_OUT,
            HEARTBEAT_OUT,
            HEARTBEAT_EVERY,
            BLACKBOX_OUT,
            SETUPS_256,
            SIZE,
            APPS,
            JSON
        ]
    ),
    bin!("fig4", [SIZE]),
    bin!("fig5", [SIZE, APPS, JSON]),
    bin!("fig6", [SIZE, APPS, JSON]),
    bin!("fig7", [SIZE, APPS, JSON]),
    bin!("fig8", [SIZE, APPS, JSON]),
    bin!("json_check", [], ["results.jsonl"]),
    bin!("metrics_diff", [THRESHOLD, ALLOW_MISSING], ["base.json", "new.json"]),
    bin!("model_check", [MC_OUT, MC_SCHEDULES, MC_DEPTH, MC_APPS]),
    bin!("profile_run", [APP, DTS_ONLY, OUT, TRACE_OUT, HEARTBEAT_OUT, SIZE, APPS]),
    bin!("table1", []),
    bin!("table2", []),
    bin!("table3", [SIZE, APPS, JSON]),
    bin!("table4", [SIZE, APPS, JSON]),
    bin!("table5", [SIZE]),
    bin!("tail_run", [ONCE, INTERVAL_MS, IDLE_EXIT], ["heartbeat.jsonl"]),
    bin!("trace_smoke", [METRICS_OUT, TRACE_OUT]),
    bin!("unsafe_audit", [], ["."]),
];

impl Bin {
    fn takes(&self, opt: &cli::Opt) -> bool {
        self.opts.iter().any(|o| o.name == opt.name)
    }

    fn flags(&self) -> impl Iterator<Item = &&'static cli::Opt> {
        self.opts.iter().filter(|o| o.is_flag())
    }
}

/// An option's entry in a usage text starts its own line, two spaces in.
fn usage_lists(usage: &str, opt: &cli::Opt) -> bool {
    let sep = if opt.is_flag() { ' ' } else { '=' };
    usage.lines().filter_map(|l| l.strip_prefix("  ")).any(|l| {
        l.strip_prefix(opt.name).is_some_and(|rest| rest.is_empty() || rest.starts_with(sep))
    })
}

#[test]
fn the_contract_counts_29_flags_and_9_variables() {
    let flags: usize = BINS.iter().map(|b| b.flags().count()).sum();
    assert_eq!(flags, 29, "a binary gained or lost a flag");
    let mut vars: Vec<&str> =
        BINS.iter().flat_map(|b| b.opts.iter()).filter(|o| !o.is_flag()).map(|o| o.name).collect();
    vars.sort_unstable();
    vars.dedup();
    assert_eq!(vars.len(), 9, "the harness gained or lost an environment variable: {vars:?}");
    for opt in cli::ALL {
        assert!(BINS.iter().any(|b| b.takes(opt)), "{} is in the table but no binary takes it", {
            opt.name
        });
    }
}

/// `--help` is answered by the one parser in every binary: exit 0, the
/// generated usage on stdout listing exactly the options the contract
/// says the binary has, and nothing simulated — even under an environment
/// that would be refused.
#[test]
fn every_binary_answers_help_with_its_exact_option_set_and_runs_nothing() {
    for bin in &BINS {
        for help in ["--help", "-h"] {
            let out = Command::new(bin.exe)
                .arg(help)
                .env("BIGTINY_SIZE", "tiny")
                .output()
                .unwrap_or_else(|e| panic!("spawning {}: {e}", bin.name));
            assert_eq!(out.status.code(), Some(0), "{} {help}", bin.name);
            assert_quiet(&out, bin.name);
            assert!(out.stderr.is_empty(), "{} {help}: help goes to stdout only", bin.name);
            let usage = String::from_utf8(out.stdout).expect("usage is UTF-8");
            assert!(usage.starts_with(&format!("usage: {}", bin.name)), "{}:\n{usage}", bin.name);
            for opt in cli::ALL {
                assert_eq!(
                    usage_lists(&usage, opt),
                    bin.takes(opt),
                    "{}: usage and contract disagree about {}:\n{usage}",
                    bin.name,
                    opt.name
                );
            }
        }
    }
}

#[test]
fn every_binary_rejects_unknown_flags_and_malformed_values_identically() {
    for bin in &BINS {
        // Exit 2, the culprit named, the usage printed, nothing simulated.
        // (`CHEAP` keeps a wrongly accepted input from running for long.)
        let refused = |env: &[(&str, &str)], args: &[&str], culprit: &str| {
            let stderr = usage_error(bin.exe, &[CHEAP, env].concat(), args);
            assert!(stderr.contains(culprit), "{}: error does not name {culprit}:\n{stderr}", {
                bin.name
            });
            assert!(stderr.contains(&format!("usage: {}", bin.name)), "{}:\n{stderr}", bin.name);
        };
        refused(&[], &["--no-such-flag"], "`--no-such-flag`");
        // One positional too many, after the ones the binary wants.
        refused(&[], &[bin.positionals, &["surplus"]].concat(), "`surplus`");
        for flag in bin.flags().filter(|o| o.kind != Kind::Switch) {
            // The flag last on the line, and the flag followed by a flag.
            refused(&[], &[flag.name], flag.name);
            refused(&[], &[flag.name, "--help-me"], flag.name);
            let bads: &[&str] = match flag.kind {
                Kind::U64 | Kind::Percent => &["many", "-1", "0x9"],
                Kind::PositiveU64 => &["many", "-1", "0x9", "0"],
                Kind::OutPath => &["/no/such/dir/artifact"],
                _ => &["no-such-thing"],
            };
            for bad in bads {
                refused(&[], &[flag.name, bad], &format!("{}: ", flag.name));
                refused(&[], &[flag.name, bad], &format!("`{bad}`"));
            }
        }
        // Every honoured variable goes through the same validators.
        for var in bin.opts.iter().filter(|o| !o.is_flag()) {
            let bads: &[&str] = match var.kind {
                Kind::OutPath => &["", "/no/such/dir/artifact"],
                Kind::Size => &["", "tset", "Test"],
                Kind::Kernels { .. } => &["", "cilk5-typo", "cilk5-nq,,ligra-bfs"],
                _ => &["", "0x9", "-1", "many"],
            };
            for bad in bads {
                refused(&[(var.name, *bad)], bin.positionals, &format!("{}: ", var.name));
            }
        }
    }
}

/// The parent's silent mis-runs that the table-driven test above does not
/// already pin. (It covers the rest of ISSUE 20's list on every binary
/// that can meet them: `BIGTINY_SIZE=tset` ran Large inputs in `table5`
/// and panicked elsewhere, an uncreatable `--heartbeat-out`/`BIGTINY_JSON`
/// panicked with exit 101, `chaos_fuzz --budget 0` passed vacuously,
/// `tail_run --interval-ms 0` spun, `fig5 --help` ran the sweep.)
#[test]
fn nothing_silently_runs_something_else() {
    let lists_kernels = |stderr: &str| {
        for app in bigtiny_apps::all_apps() {
            assert!(stderr.contains(app.name), "valid kernels not listed:\n{stderr}");
        }
    };
    // Ran one kernel of the two asked for.
    let env = [("BIGTINY_SIZE", "test"), ("BIGTINY_APPS", "cilk5-nq,cilk5-typo")];
    let stderr = usage_error(env!("CARGO_BIN_EXE_fig6"), &env, &[]);
    assert!(stderr.contains("BIGTINY_APPS: unknown kernel `cilk5-typo`"), "{stderr}");
    lists_kernels(&stderr);
    // Panicked deep in `prepare`, after exploring the first kernel.
    let env = [("BIGTINY_MC_APPS", "fib,cilk5-typo")];
    let stderr = usage_error(env!("CARGO_BIN_EXE_model_check"), &env, &[]);
    assert!(stderr.contains("BIGTINY_MC_APPS: unknown kernel `cilk5-typo`"), "{stderr}");
    assert!(stderr.contains("fib, "), "the local kernel is valid here:\n{stderr}");
    lists_kernels(&stderr);
    // Ran seed 1, byte-identical to the default. One rule with --fault-seed.
    for (exe, env, args) in [
        (env!("CARGO_BIN_EXE_ablate_faults"), &[("BIGTINY_FAULT_SEED", "0x9")][..], &[][..]),
        (env!("CARGO_BIN_EXE_eval_all"), &[], &["--fault-seed", "0x9"]),
    ] {
        let stderr = usage_error(exe, &[env, TINY].concat(), args);
        assert!(stderr.contains("`0x9` is not a u64"), "{stderr}");
    }
    // Ignored a flag that is real elsewhere and started the full sweep.
    let stderr = usage_error(env!("CARGO_BIN_EXE_table3"), TINY, &["--fault-plan", "hostile"]);
    assert!(stderr.contains("`--fault-plan`"), "{stderr}");
}

/// A probed output path leaves nothing behind when the run is refused
/// for another reason.
#[test]
fn a_refused_run_leaves_no_artifact_behind() {
    let metrics = scratch("refused-metrics.json");
    let stderr = usage_error(
        env!("CARGO_BIN_EXE_eval_all"),
        TINY,
        &["--metrics-out", metrics.to_str().unwrap(), "--watchdog-budget", "0"],
    );
    assert!(stderr.contains("--watchdog-budget"), "{stderr}");
    assert!(!metrics.exists(), "the probe of --metrics-out left a file behind");
}

/// The five binaries whose outputs EXPERIMENTS.md cites but that neither
/// CI nor any other test runs.
#[test]
fn the_remaining_experiment_binaries_run_at_test_size() {
    let size = &[("BIGTINY_SIZE", "test")][..];
    for (exe, bin, env, marker) in [
        (env!("CARGO_BIN_EXE_ablate_dts"), "ablate_dts", size, "Ablation 5: baseline deque"),
        (env!("CARGO_BIN_EXE_ablate_grain"), "ablate_grain", TINY, "Granularity sensitivity"),
        (env!("CARGO_BIN_EXE_ablate_sparse"), "ablate_sparse", &[], "Dense vs hybrid sparse/dense"),
        (env!("CARGO_BIN_EXE_collab"), "collab", TINY, "Collaborative execution"),
        (env!("CARGO_BIN_EXE_energy"), "energy", TINY, "Energy (total, arbitrary units)"),
    ] {
        assert_renders_table(&run_bin(exe, env, &[]), bin, marker);
    }
}

/// README's "Harness options" table is this contract and the options
/// table's own definitions, rendered: it cannot drift from either.
#[test]
fn readme_options_table_matches_the_options_module() {
    let mut table = String::from("| Option | Taken by | Valid value |\n|---|---|---|\n");
    for opt in cli::ALL {
        let sep = if opt.is_flag() { " " } else { "=" };
        let takers: Vec<String> =
            BINS.iter().filter(|b| b.takes(opt)).map(|b| format!("`{}`", b.name)).collect();
        let default = match (opt.name, opt.default) {
            ("BIGTINY_SIZE", _) => " (default eval; `table5`: large)".to_owned(),
            (_, Some(d)) => format!(" (default {d})"),
            (_, None) => String::new(),
        };
        table.push_str(&format!(
            "| `{}` | {} | {}{default} |\n",
            [opt.name, opt.metavar].join(sep).trim_end_matches(['=', ' ']),
            takers.join(", "),
            opt.kind.describe().replace('|', ", "),
        ));
    }
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md at the repository root");
    assert!(
        readme.contains(&table),
        "README.md's \"Harness options\" table is out of date; it should read:\n\n{table}"
    );
}
