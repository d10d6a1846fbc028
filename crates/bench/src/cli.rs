//! The harness's options, defined once.
//!
//! Every flag and every `BIGTINY_*` variable a harness binary accepts is a
//! row of the table below (name, metavar, validator, default, help line). A
//! binary declares a [`Spec`] listing the ones it takes plus its
//! positionals and calls [`Spec::parse`]; there is one parser, one
//! generated usage text and one exit convention: `--help` prints the usage
//! on stdout and exits 0, any usage error prints the offending flag or
//! variable and value plus the usage on stderr and exits 2 — before the
//! first simulation starts, never as a panic. This module owns every
//! `std::env::args` and `std::env::var("BIGTINY_…")` read of the crate; a
//! source scan in the tests below keeps it that way.

use std::ffi::OsString;

use bigtiny_apps::{all_apps, app_by_name, AppSize, AppSpec};
use bigtiny_engine::FaultPlan;

/// How an option's value is validated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A flag without a value.
    Switch,
    /// Any decimal `u64`.
    U64,
    /// A decimal `u64` above zero (a budget or cadence of 0 is a vacuous
    /// pass or a busy loop).
    PositiveU64,
    /// A finite `f64` that is at least 0 (`nan`, `inf` and negatives parse
    /// as `f64` but make every threshold comparison false).
    Percent,
    /// A named fault plan or a `key=value` spec ([`FaultPlan::parse`]).
    FaultPlan,
    /// A file this run will write: it must be creatable now.
    OutPath,
    /// One registered kernel name.
    Kernel,
    /// Comma-separated kernel names: the registry's plus the ones listed.
    Kernels(&'static [&'static str]),
    /// An input scale: `test`, `eval` or `large`.
    Size,
}

impl Kind {
    /// What a valid value is, for error messages and the README table.
    pub fn describe(self) -> &'static str {
        match self {
            Kind::Switch => "no value",
            Kind::U64 => "a u64",
            Kind::PositiveU64 => "a positive u64",
            Kind::Percent => "a finite number >= 0",
            Kind::FaultPlan => "a named fault plan or key=value spec",
            Kind::OutPath => "a creatable file path",
            Kind::Kernel => "a registered kernel",
            Kind::Kernels(_) => "comma-separated kernel names",
            Kind::Size => "one of test|eval|large",
        }
    }
}

/// One option: a `--flag` or a `BIGTINY_*` environment variable.
#[derive(Clone, Copy, Debug)]
pub struct Opt {
    /// `--flag-name` or `BIGTINY_NAME`.
    pub name: &'static str,
    /// Placeholder for the value in the usage text (empty for a switch).
    pub metavar: &'static str,
    /// The validator.
    pub kind: Kind,
    /// Value used when the option is absent (validated like a given one).
    pub default: Option<&'static str>,
    /// One help line.
    pub help: &'static str,
}

impl Opt {
    /// Whether this is a command-line flag (else an environment variable).
    pub fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }
}

/// One row per option: `CONST: name metavar, validator, default, help;`.
macro_rules! options {
    ($($id:ident: $name:literal $metavar:literal, $kind:expr, $default:expr, $help:literal;)*) => {
        $(#[doc = concat!("`", $name, "`: ", $help, ".")]
        pub const $id: Opt =
            Opt { name: $name, metavar: $metavar, kind: $kind, default: $default, help: $help };)*
        /// The whole table: the 20 flags, then the 9 environment variables.
        pub const ALL: &[&Opt] = &[$(&$id),*];
    };
}

options! {
    FAULT_SEED: "--fault-seed" "N", Kind::U64, Some("1"),
        "seed of the fault plan; arms nothing without --fault-plan";
    FAULT_PLAN: "--fault-plan" "PLAN", Kind::FaultPlan, None,
        "arm fault injection: a named plan (none, uli-drop-storm,\n\
         steal-miss-storm, mesh-latency-spikes, hostile, crash-one, crash-storm,\n\
         crash-revive, crash-hostile) or a key=value spec as chaos_fuzz prints;\n\
         a crash-armed plan gates the run on a clean crash-recovery audit";
    WATCHDOG_BUDGET: "--watchdog-budget" "N", Kind::PositiveU64, None,
        "abort with diagnostics after N sequenced grants without progress";
    METRICS_OUT: "--metrics-out" "PATH", Kind::OutPath, None,
        "write the bigtiny-obs metrics document (one object per run) to PATH";
    TRACE_OUT: "--trace-out" "PATH", Kind::OutPath, None,
        "write a Chrome trace-event document to PATH (for ui.perfetto.dev)";
    HEARTBEAT_OUT: "--heartbeat-out" "PATH", Kind::OutPath, None,
        "stream bigtiny-obs-heartbeat-v1 lines to PATH (follow with tail_run)";
    HEARTBEAT_EVERY: "--heartbeat-every" "N", Kind::PositiveU64, Some("10000"),
        "heartbeat cadence in sequencer grants";
    BLACKBOX_OUT: "--blackbox-out" "PATH", Kind::OutPath, None,
        "write black-box flight-recorder dumps to PATH (and PATH.trace.json)";
    SETUPS_256: "--setups-256" "", Kind::Switch, None,
        "run the 256-core Table V machines instead of the 64-core matrix";
    BUDGET: "--budget" "N", Kind::PositiveU64, Some("25"), "number of fault plans to sample";
    SEED: "--seed" "S", Kind::U64, Some("1"), "seed of the plan-sampling stream";
    FAIL_FAST: "--fail-fast" "", Kind::Switch, None, "stop at the first dirty cell";
    APP: "--app" "NAME", Kind::Kernel, None, "run one kernel instead of the BIGTINY_APPS list";
    DTS_ONLY: "--dts-only" "", Kind::Switch, None, "only the three DTS configurations";
    OUT: "--out" "PATH", Kind::OutPath, None,
        "write the metrics document (critpath section populated) to PATH";
    ONCE: "--once" "", Kind::Switch, None, "render the current tail once and exit";
    INTERVAL_MS: "--interval-ms" "N", Kind::PositiveU64, Some("500"),
        "refresh cadence in follow mode";
    IDLE_EXIT: "--idle-exit" "SECS", Kind::U64, Some("0"),
        "exit follow mode after SECS with no new beats (0 = never)";
    THRESHOLD: "--threshold" "PCT", Kind::Percent, Some("0"),
        "maximum |cycle delta| per run, in percent";
    ALLOW_MISSING: "--allow-missing" "", Kind::Switch, None,
        "do not fail on cells present in only one document";
    SIZE: "BIGTINY_SIZE" "SIZE", Kind::Size, Some("eval"), "input scale: test, eval or large";
    APPS: "BIGTINY_APPS" "LIST", Kind::Kernels(&[]), None,
        "comma-separated kernel names restricting the run (default: all)";
    JSON: "BIGTINY_JSON" "PATH", Kind::OutPath, None,
        "append one flat JSON record per run to PATH";
    FAULT_SEED_ENV: "BIGTINY_FAULT_SEED" "N", Kind::U64, Some("1"),
        "seed of every fault plan of the sweep";
    CHECK_OUT: "BIGTINY_CHECK_OUT" "PATH", Kind::OutPath, Some("CHECK_verdicts.json"),
        "where the JSON verdict lines go";
    MC_OUT: "BIGTINY_MC_OUT" "PATH", Kind::OutPath, Some("MODEL_CHECK_verdicts.json"),
        "where the JSON verdict document goes";
    MC_SCHEDULES: "BIGTINY_MC_SCHEDULES" "N", Kind::U64, Some("24"),
        "execution budget per explored cell";
    MC_DEPTH: "BIGTINY_MC_DEPTH" "N", Kind::U64, Some("5"),
        "choice-point depth budget per explored cell";
    MC_APPS: "BIGTINY_MC_APPS" "LIST", Kind::Kernels(&["fib"]), None,
        "comma-separated subset of the explored kernels (the local `fib` included)";
}

// Each phrase lives here once, so `grep` finds one parser in the crate.
const NEEDS_VALUE: &str = "needs a value";
const UNKNOWN_ARGUMENT: &str = "unknown argument";

fn size_named(raw: &str) -> Option<AppSize> {
    match raw {
        "test" => Some(AppSize::Test),
        "eval" => Some(AppSize::Eval),
        "large" => Some(AppSize::Large),
        _ => None,
    }
}

/// Checks that `path` can be opened for writing, leaving no file behind
/// that was not there before.
fn probe_creatable(path: &str) -> std::io::Result<()> {
    let existed = std::path::Path::new(path).exists();
    std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    if !existed {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Checks `raw` against `opt`'s validator; the error names both.
fn validate(opt: &Opt, raw: &str) -> Result<(), String> {
    let name = opt.name;
    let kernels = |names: Vec<&str>, also: &[&str]| {
        let unknown = |k: &&str| app_by_name(k).is_none() && !also.contains(k);
        names.into_iter().find(unknown).map_or(Ok(()), |k| {
            let valid: Vec<&str> =
                also.iter().copied().chain(all_apps().iter().map(|a| a.name)).collect();
            Err(format!("{name}: unknown kernel `{k}`\n  valid kernels: {}", valid.join(", ")))
        })
    };
    let is = |ok: bool| {
        ok.then_some(()).ok_or_else(|| format!("{name}: `{raw}` is not {}", opt.kind.describe()))
    };
    match opt.kind {
        Kind::Switch => Ok(()),
        Kind::U64 => is(raw.parse::<u64>().is_ok()),
        Kind::PositiveU64 => is(raw.parse::<u64>().is_ok_and(|n| n > 0)),
        Kind::Percent => is(raw.parse::<f64>().is_ok_and(|v| v.is_finite() && v >= 0.0)),
        Kind::Size => is(size_named(raw).is_some()),
        Kind::Kernel => kernels(vec![raw], &[]),
        Kind::Kernels(also) => kernels(raw.split(',').map(str::trim).collect(), also),
        Kind::OutPath => {
            probe_creatable(raw).map_err(|e| format!("{name}: cannot create `{raw}`: {e}"))
        }
        Kind::FaultPlan if FaultPlan::parse(raw, 1).is_some() => Ok(()),
        Kind::FaultPlan => Err(format!(
            "{name}: unknown plan `{raw}`\n  named plans: {}\n  or a `key=value,...` spec \
             (FaultPlan::to_spec form), e.g. crash_cores=0x20,crash_at=1500",
            FaultPlan::NAMES.join(", ")
        )),
    }
}

/// Why parsing stopped without options.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Stop {
    /// `--help` / `-h` was given.
    Help,
    /// A usage error, naming the flag or variable and the offending value.
    Usage(String),
}

/// What one binary accepts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    bin: &'static str,
    opts: &'static [&'static Opt],
    required: &'static [&'static str],
    optional: &'static [&'static str],
}

impl Spec {
    /// A binary named `bin` (pass `env!("CARGO_BIN_NAME")`) taking the
    /// flags and honouring the environment variables in `opts`.
    pub const fn new(bin: &'static str, opts: &'static [&'static Opt]) -> Spec {
        Spec { bin, opts, required: &[], optional: &[] }
    }

    /// Adds positional arguments: `required` ones, then `optional` ones.
    pub const fn positionals(
        mut self,
        required: &'static [&'static str],
        optional: &'static [&'static str],
    ) -> Spec {
        (self.required, self.optional) = (required, optional);
        self
    }

    /// Parses the process's arguments and environment. On `--help` prints
    /// the usage to stdout and exits 0; on a usage error prints it and the
    /// usage to stderr and exits 2.
    pub fn parse(&self) -> Args {
        match self.parse_from(std::env::args_os().skip(1), |name| std::env::var_os(name)) {
            Ok(args) => args,
            Err(Stop::Help) => {
                println!("{}", self.usage());
                std::process::exit(0);
            }
            Err(Stop::Usage(message)) => {
                eprintln!("{message}\n{}", self.usage());
                std::process::exit(2);
            }
        }
    }

    /// [`Spec::parse`] over explicit arguments (without the program name)
    /// and an environment lookup, returning instead of exiting. Flags and
    /// positionals may interleave; a repeated flag keeps its last value.
    pub fn parse_from(
        &self,
        argv: impl IntoIterator<Item = OsString>,
        env: impl Fn(&str) -> Option<OsString>,
    ) -> Result<Args, Stop> {
        let utf8 = |raw: OsString, what: &str| {
            raw.into_string()
                .map_err(|raw| Stop::Usage(format!("{what} is not valid UTF-8: {raw:?}")))
        };
        let mut args = Args { values: Vec::new(), positionals: Vec::new() };
        let mut argv = argv.into_iter();
        while let Some(raw) = argv.next() {
            let arg = utf8(raw, "argument")?;
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help);
            }
            if let Some(opt) = self.opts.iter().find(|o| o.is_flag() && o.name == arg) {
                // A switch stores nothing; otherwise the next argument is
                // the value unless it is itself flag-shaped
                // (`--trace-out --metrics-out x`).
                let value = match opt.kind {
                    Kind::Switch => Some(String::new()),
                    _ => match argv.next() {
                        Some(raw) => Some(utf8(raw, opt.name)?).filter(|v| !v.starts_with("--")),
                        None => None,
                    },
                };
                let value = value.ok_or_else(|| Stop::Usage(format!("{arg} {NEEDS_VALUE}")))?;
                args.set(opt, value, true)?;
            } else if arg.starts_with('-')
                || args.positionals.len() == self.required.len() + self.optional.len()
            {
                return Err(Stop::Usage(format!("{UNKNOWN_ARGUMENT} `{arg}`")));
            } else {
                args.positionals.push(arg);
            }
        }
        if let Some(missing) = self.required.get(args.positionals.len()) {
            return Err(Stop::Usage(format!("missing <{missing}>")));
        }
        for opt in self.opts.iter().filter(|o| !o.is_flag()) {
            if let Some(raw) = env(opt.name) {
                args.set(opt, utf8(raw, opt.name)?, true)?;
            }
        }
        // A default goes through the validator too: an output path is probed.
        for opt in self.opts {
            if let (false, Some(default)) = (args.given(opt), opt.default) {
                args.set(opt, default.to_owned(), false)?;
            }
        }
        Ok(args)
    }

    /// The usage text: the synopsis, one entry per flag, then the
    /// environment variables this binary honours.
    pub fn usage(&self) -> String {
        let (flags, vars): (Vec<&Opt>, Vec<&Opt>) = self.opts.iter().partition(|o| o.is_flag());
        let mut out = format!("usage: {}", self.bin);
        out.push_str(if flags.is_empty() { "" } else { " [options]" });
        self.required.iter().for_each(|p| out.push_str(&format!(" <{p}>")));
        self.optional.iter().for_each(|p| out.push_str(&format!(" [{p}]")));
        for (title, sep, opts) in [("options", " ", flags), ("environment", "=", vars)] {
            if !opts.is_empty() {
                out.push_str(&format!("\n{title}:"));
            }
            for o in opts {
                let left = [o.name, o.metavar].join(sep);
                let default = o.default.map(|d| format!(" (default {d})")).unwrap_or_default();
                let help = format!("{}{default}", o.help).replace('\n', &format!("\n{:26}", ""));
                out.push_str(&format!("\n  {:<23} {help}", left.trim_end_matches(sep)));
            }
        }
        out
    }
}

/// The checked options of one invocation.
#[derive(Clone, Debug)]
pub struct Args {
    /// `(option name, validated text, given rather than defaulted)`.
    values: Vec<(&'static str, String, bool)>,
    positionals: Vec<String>,
}

impl Args {
    fn set(&mut self, opt: &Opt, raw: String, given: bool) -> Result<(), Stop> {
        validate(opt, &raw).map_err(Stop::Usage)?;
        self.values.retain(|(name, ..)| *name != opt.name);
        self.values.push((opt.name, raw, given));
        Ok(())
    }

    /// Whether `opt` was given on the command line or in the environment
    /// (for a switch: whether it is on). A default does not count.
    pub fn given(&self, opt: &Opt) -> bool {
        self.values.iter().any(|(name, _, given)| *name == opt.name && *given)
    }

    /// The validated text of `opt` — a path, a plan, a kernel name, a
    /// number as typed — if it was given or has a default. An option the
    /// binary's [`Spec`] does not list reads as the table's default.
    pub fn text(&self, opt: &Opt) -> Option<&str> {
        let stored = self.values.iter().find(|(name, ..)| *name == opt.name);
        stored.map(|(_, raw, _)| raw.as_str()).or(opt.default)
    }

    /// The value of a numeric option (`u64` or `f64`) that was given or
    /// has a default.
    ///
    /// # Panics
    ///
    /// Panics if neither holds — a bug in the binary, not in its input.
    pub fn get<T: std::str::FromStr>(&self, opt: &Opt) -> T {
        let parsed = self.text(opt).and_then(|raw| raw.parse().ok());
        parsed.unwrap_or_else(|| panic!("{} is neither given nor defaulted", opt.name))
    }

    /// The names of a [`Kind::Kernels`] option in the order given, if set.
    pub fn names(&self, opt: &Opt) -> Option<Vec<&str>> {
        self.text(opt).map(|list| list.split(',').map(str::trim).collect())
    }

    /// The input scale from `BIGTINY_SIZE` (or the binary's default for it).
    pub fn size(&self) -> AppSize {
        self.text(&SIZE).and_then(size_named).expect("validated, and the table has a default")
    }

    /// The kernels to run: the one `--app` names, else those
    /// `BIGTINY_APPS` names (in registry order), else all of them.
    pub fn apps(&self) -> Vec<AppSpec> {
        let mut apps = all_apps();
        let one = self.text(&APP).map(|app| vec![app]);
        if let Some(names) = one.or_else(|| self.names(&APPS)) {
            apps.retain(|a| names.contains(&a.name));
        }
        apps
    }

    /// The `i`-th positional argument, if present.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVERYTHING: Spec = Spec::new(
        "everything",
        &[&FAULT_SEED, &FAULT_PLAN, &WATCHDOG_BUDGET, &METRICS_OUT, &SETUPS_256, &THRESHOLD],
    )
    .positionals(&["BASE", "NEW"], &["EXTRA"]);
    const ENVS: Spec = Spec::new("envs", &[&SIZE, &APPS, &FAULT_SEED_ENV, &MC_APPS, &MC_DEPTH]);

    fn parse(spec: &Spec, argv: &[&str], env: &[(&str, &str)]) -> Result<Args, Stop> {
        spec.parse_from(argv.iter().map(OsString::from), |name| {
            env.iter().find(|(k, _)| *k == name).map(|(_, v)| OsString::from(v))
        })
    }

    fn usage_error(spec: &Spec, argv: &[&str], env: &[(&str, &str)]) -> String {
        match parse(spec, argv, env) {
            Err(Stop::Usage(message)) => message,
            other => panic!("{argv:?} {env:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn the_table_is_well_formed_and_every_default_validates() {
        for (i, opt) in ALL.iter().enumerate() {
            assert!(
                opt.is_flag() || opt.name.starts_with("BIGTINY_"),
                "{}: neither a flag nor a BIGTINY_ variable",
                opt.name
            );
            assert!(ALL[..i].iter().all(|o| o.name != opt.name), "{} listed twice", opt.name);
            assert_eq!(opt.kind == Kind::Switch, opt.metavar.is_empty(), "{}", opt.name);
            assert!(!opt.help.is_empty(), "{}", opt.name);
            if let Some(default) = opt.default {
                assert_ne!(opt.kind, Kind::Switch, "{}: a switch has no default", opt.name);
                validate(opt, default).unwrap_or_else(|e| panic!("bad default: {e}"));
            }
        }
        assert_eq!(ALL.iter().filter(|o| o.is_flag()).count(), 20);
        assert_eq!(ALL.iter().filter(|o| !o.is_flag()).count(), 9);
        for name in FaultPlan::NAMES {
            assert!(FAULT_PLAN.help.contains(name), "--fault-plan help omits {name}");
        }
    }

    #[test]
    fn flags_positionals_and_defaults() {
        let args =
            parse(&EVERYTHING, &["a.json", "--fault-seed", "7", "b.json", "--setups-256"], &[])
                .unwrap();
        assert_eq!((args.positional(0), args.positional(1)), (Some("a.json"), Some("b.json")));
        assert_eq!(args.positional(2), None);
        assert_eq!(args.get::<u64>(&FAULT_SEED), 7);
        assert!(args.given(&FAULT_SEED) && args.given(&SETUPS_256));
        assert!(!args.given(&THRESHOLD), "a default is not `given`");
        assert_eq!(args.get::<f64>(&THRESHOLD), 0.0);
        assert!(!args.given(&WATCHDOG_BUDGET) && args.text(&WATCHDOG_BUDGET).is_none());
        assert_eq!(args.text(&FAULT_PLAN), None);
        // An option the spec does not list reads as absent.
        assert_eq!(args.text(&TRACE_OUT), None);
        assert!(!args.given(&ONCE));
    }

    #[test]
    fn a_repeated_flag_keeps_its_last_value() {
        let args =
            parse(&EVERYTHING, &["a", "b", "--fault-seed", "1", "--fault-seed", "2"], &[]).unwrap();
        assert_eq!(args.get::<u64>(&FAULT_SEED), 2);
    }

    #[test]
    fn a_flag_after_the_positionals_is_still_a_flag() {
        let args = parse(&EVERYTHING, &["a", "b", "c", "--threshold", "2.5"], &[]).unwrap();
        assert_eq!(args.get::<f64>(&THRESHOLD), 2.5);
        assert_eq!(args.positional(2), Some("c"));
    }

    #[test]
    fn help_wins_wherever_it_appears_before_an_error() {
        assert_eq!(parse(&EVERYTHING, &["--help"], &[]).unwrap_err(), Stop::Help);
        assert_eq!(parse(&EVERYTHING, &["a", "-h", "--bogus"], &[]).unwrap_err(), Stop::Help);
        // Help is looked at before the environment is.
        assert_eq!(parse(&ENVS, &["-h"], &[("BIGTINY_SIZE", "tiny")]).unwrap_err(), Stop::Help);
    }

    #[test]
    fn a_missing_or_flag_shaped_value_is_reported_against_its_flag() {
        for argv in [&["a", "b", "--metrics-out"][..], &["--metrics-out", "--setups-256", "a"]] {
            assert_eq!(usage_error(&EVERYTHING, argv, &[]), format!("--metrics-out {NEEDS_VALUE}"));
        }
        // A single dash is a value, and the validator's problem.
        let e = usage_error(&EVERYTHING, &["--threshold", "-1"], &[]);
        assert!(e.contains("--threshold") && e.contains("`-1`"), "{e}");
    }

    #[test]
    fn unknown_dashes_and_surplus_positionals_are_rejected() {
        for (argv, culprit) in [
            (&["--no-such-flag"][..], "--no-such-flag"),
            (&["a", "-x", "b"], "-x"),
            (&["a", "b", "c", "d"], "d"),
            // Not in this spec, though it is in the table.
            (&["--once"], "--once"),
        ] {
            assert_eq!(
                usage_error(&EVERYTHING, argv, &[]),
                format!("{UNKNOWN_ARGUMENT} `{culprit}`")
            );
        }
        assert_eq!(usage_error(&EVERYTHING, &["a"], &[]), "missing <NEW>");
    }

    #[test]
    fn numeric_validators_name_the_flag_and_the_value() {
        for (argv, want) in [
            (["--fault-seed", "0x9"], "--fault-seed: `0x9` is not a u64"),
            (["--fault-seed", "-3"], "--fault-seed: `-3` is not a u64"),
            (["--watchdog-budget", "0"], "--watchdog-budget: `0` is not a positive u64"),
            (["--watchdog-budget", "many"], "--watchdog-budget: `many` is not a positive u64"),
            (["--threshold", "nan"], "--threshold: `nan` is not a finite number >= 0"),
            (["--threshold", "inf"], "--threshold: `inf` is not a finite number >= 0"),
            (["--threshold", "1e999"], "--threshold: `1e999` is not a finite number >= 0"),
            (["--threshold", "five"], "--threshold: `five` is not a finite number >= 0"),
        ] {
            assert_eq!(usage_error(&EVERYTHING, &[&argv[..], &["a", "b"]].concat(), &[]), want);
        }
        let e = usage_error(&EVERYTHING, &["--fault-plan", "bogus"], &[]);
        assert!(e.starts_with("--fault-plan: unknown plan `bogus`") && e.contains("key=value"));
        assert!(FaultPlan::NAMES.iter().all(|n| e.contains(n)), "{e}");
        let ok =
            parse(&EVERYTHING, &["--fault-plan", "crash_cores=0x20,crash_at=9", "a", "b"], &[]);
        assert_eq!(ok.unwrap().text(&FAULT_PLAN), Some("crash_cores=0x20,crash_at=9"));
    }

    #[test]
    fn an_output_path_must_be_creatable_and_probing_leaves_nothing_behind() {
        let e = usage_error(&EVERYTHING, &["--metrics-out", "/no/such/dir/m.json", "a", "b"], &[]);
        assert!(e.starts_with("--metrics-out: cannot create `/no/such/dir/m.json`"), "{e}");
        let dir = std::env::temp_dir();
        let e = usage_error(&EVERYTHING, &["--metrics-out", dir.to_str().unwrap(), "a", "b"], &[]);
        assert!(e.contains("cannot create"), "a directory is not a file: {e}");

        let fresh = dir.join(format!("bigtiny-cli-probe-{}", std::process::id()));
        let fresh_s = fresh.to_str().unwrap();
        let _ = std::fs::remove_file(&fresh);
        let args = parse(&EVERYTHING, &["--metrics-out", fresh_s, "a", "b"], &[]).unwrap();
        assert_eq!(args.text(&METRICS_OUT), Some(fresh_s));
        assert!(!fresh.exists(), "the probe must not leave an empty file");
        std::fs::write(&fresh, "keep").unwrap();
        parse(&EVERYTHING, &["--metrics-out", fresh_s, "a", "b"], &[]).unwrap();
        assert_eq!(std::fs::read_to_string(&fresh).unwrap(), "keep", "probe truncated a file");
        let _ = std::fs::remove_file(&fresh);
    }

    #[test]
    fn environment_options_go_through_the_same_validators() {
        let args = parse(&ENVS, &[], &[]).unwrap();
        assert_eq!(args.size(), AppSize::Eval);
        assert_eq!(args.apps().len(), all_apps().len());
        assert_eq!((args.get::<u64>(&FAULT_SEED_ENV), args.get::<usize>(&MC_DEPTH)), (1, 5));
        assert_eq!(args.names(&MC_APPS), None);

        let env = [
            ("BIGTINY_SIZE", "test"),
            ("BIGTINY_APPS", "ligra-bfs, cilk5-nq"),
            ("BIGTINY_FAULT_SEED", "9"),
            ("BIGTINY_MC_APPS", "fib,cilk5-nq"),
            ("BIGTINY_JSON", "/no/such/dir/ignored: this spec does not list it"),
        ];
        let args = parse(&ENVS, &[], &env).unwrap();
        assert_eq!(args.size(), AppSize::Test);
        let picked: Vec<&str> = args.apps().iter().map(|a| a.name).collect();
        assert_eq!(picked, ["cilk5-nq", "ligra-bfs"], "registry order, not list order");
        assert_eq!(args.get::<u64>(&FAULT_SEED_ENV), 9);
        assert_eq!(args.names(&MC_APPS).unwrap(), ["fib", "cilk5-nq"]);
        assert!(args.given(&SIZE) && !args.given(&MC_DEPTH));

        for (var, bad, want) in [
            ("BIGTINY_SIZE", "tset", "BIGTINY_SIZE: `tset` is not one of test|eval|large"),
            ("BIGTINY_SIZE", "", "BIGTINY_SIZE: `` is not one of test|eval|large"),
            ("BIGTINY_FAULT_SEED", "0x9", "BIGTINY_FAULT_SEED: `0x9` is not a u64"),
            ("BIGTINY_MC_DEPTH", "deep", "BIGTINY_MC_DEPTH: `deep` is not a u64"),
        ] {
            assert_eq!(usage_error(&ENVS, &[], &[(var, bad)]), want);
        }
    }

    #[test]
    fn kernel_lists_reject_unknown_and_empty_names_listing_the_valid_ones() {
        for bad in ["cilk5-nq,cilk5-typo", "", "cilk5-nq,", "fib"] {
            let e = usage_error(&ENVS, &[], &[("BIGTINY_APPS", bad)]);
            assert!(e.starts_with("BIGTINY_APPS: unknown kernel `"), "{bad:?}: {e}");
            assert!(all_apps().iter().all(|a| e.contains(a.name)), "{bad:?}: {e}");
            let valid = e.lines().last().unwrap();
            assert!(!valid.contains("fib"), "`fib` is only valid for the model checker: {e}");
        }
        let e = usage_error(&ENVS, &[], &[("BIGTINY_MC_APPS", "fib,fob")]);
        assert!(e.starts_with("BIGTINY_MC_APPS: unknown kernel `fob`") && e.contains("fib, "));
        const PROFILE: Spec = Spec::new("profile", &[&APP, &APPS]);
        for bad in ["cilk5-typo", "cilk5-nq,ligra-tc", ""] {
            let e = usage_error(&PROFILE, &["--app", bad], &[]);
            assert!(e.starts_with(&format!("--app: unknown kernel `{bad}`")), "{e}");
        }
        let args =
            parse(&PROFILE, &["--app", "ligra-tc"], &[("BIGTINY_APPS", "cilk5-nq")]).unwrap();
        let picked: Vec<&str> = args.apps().iter().map(|a| a.name).collect();
        assert_eq!(picked, ["ligra-tc"], "--app overrides the list");
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_arguments_and_variables_are_usage_errors_not_panics() {
        use std::os::unix::ffi::OsStringExt;
        let junk = || OsString::from_vec(vec![b'a', 0xff, b'b']);
        let no_env = |_: &str| None;
        for argv in [vec![junk()], vec!["--metrics-out".into(), junk()]] {
            match EVERYTHING.parse_from(argv, no_env) {
                Err(Stop::Usage(e)) => assert!(e.contains("not valid UTF-8"), "{e}"),
                other => panic!("expected a usage error, got {other:?}"),
            }
        }
        match ENVS.parse_from(Vec::new(), |name| (name == "BIGTINY_APPS").then(junk)) {
            Err(Stop::Usage(e)) => assert!(e.starts_with("BIGTINY_APPS is not valid UTF-8"), "{e}"),
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn usage_lists_the_synopsis_every_flag_and_every_honoured_variable() {
        let text = EVERYTHING.usage();
        let synopsis = "usage: everything [options] <BASE> <NEW> [EXTRA]\noptions:\n";
        assert!(text.starts_with(synopsis), "{text}");
        assert!(text.contains("\n  --fault-seed N "), "{text}");
        assert!(text.contains("(default 1)"), "{text}");
        assert!(text.lines().all(|l| l.chars().count() <= 100), "{text}");
        assert!(!text.contains("environment:"), "no variables declared:\n{text}");
        let text = ENVS.usage();
        assert!(text.starts_with("usage: envs\nenvironment:\n  BIGTINY_SIZE=SIZE "), "{text}");
        assert!(text.contains("(default eval)") && text.contains("\n  BIGTINY_MC_APPS=LIST "));
        // Each option entry starts its own line, two spaces in: the README
        // check and the CLI contract test find options by that shape.
        for opt in [&SIZE, &APPS, &FAULT_SEED_ENV, &MC_APPS, &MC_DEPTH] {
            assert!(text.contains(&format!("\n  {}=", opt.name)), "{}:\n{text}", opt.name);
        }
    }

    /// The crate has one parser: no harness binary and no other module
    /// reads the process arguments or environment itself, and every
    /// binary goes through a [`Spec`].
    #[test]
    fn only_this_module_reads_arguments_and_environment() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let read = |p: &std::path::Path| std::fs::read_to_string(p).expect("source is readable");
        let rust_files = |dir: &std::path::Path| -> Vec<std::path::PathBuf> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .expect("source directory")
                .map(|e| e.expect("directory entry").path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            files.sort();
            files
        };
        let bins = rust_files(&src.join("bin"));
        assert_eq!(bins.len(), 27, "a binary was added or removed: update the CLI contract");
        for path in bins.iter().chain(&rust_files(&src)) {
            let text = read(path);
            if !path.ends_with("cli.rs") {
                for forbidden in ["env::args", "env::var"] {
                    assert!(
                        !text.contains(forbidden),
                        "{} uses {forbidden}: declare the option in cli.rs instead",
                        path.display()
                    );
                }
            }
        }
        for path in &bins {
            let squeezed: String = read(path).split_whitespace().collect();
            assert!(
                squeezed.contains("cli::Spec::new(env!(\"CARGO_BIN_NAME\"),"),
                "{} does not parse its command line through cli::Spec",
                path.display()
            );
        }
    }
}
