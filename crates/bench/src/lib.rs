#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness for the big.TINY reproduction.
//!
//! Provides the named machine+runtime setups of the paper's evaluation
//! (Section V), runs application kernels on them with functional
//! verification, and formats the result tables. Each table/figure of the
//! paper has a binary in `src/bin/` that drives this library; see
//! `EXPERIMENTS.md` at the repository root for the index.
//!
//! The binaries share three things, each decided in one module: what a
//! command line and the `BIGTINY_*` environment may say ([`cli`]), how
//! that arms runs and where their artifacts go ([`live`]), and how a
//! result matrix reads as Figures 5–8 and Table IV ([`figures`]).

use bigtiny_apps::{AppSize, AppSpec};
use bigtiny_core::{run_task_parallel, RuntimeConfig, RuntimeKind, TaskRun};
use bigtiny_engine::{AddrSpace, Protocol, SystemConfig};
use bigtiny_obs::{parse_json, Json};

pub mod cli;
pub mod figures;
pub mod fuzz;
pub mod live;

/// A machine + runtime pairing with a display label.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Display label, e.g. `b.T/HCC-DTS-gwb`.
    pub label: String,
    /// Simulated machine.
    pub sys: SystemConfig,
    /// Runtime variant.
    pub rt: RuntimeConfig,
}

impl Setup {
    fn new(label: &str, sys: SystemConfig, kind: RuntimeKind) -> Self {
        Setup { label: label.to_owned(), sys, rt: RuntimeConfig::new(kind) }
    }

    /// Serial reference: one in-order tiny core ("Serial IO" in Table III).
    pub fn serial_io() -> Self {
        Self::new("serial-io", SystemConfig::tiny_only(1, Protocol::Mesi), RuntimeKind::Baseline)
    }

    /// `O3x{n}`: a traditional multicore of `n` big cores.
    pub fn o3(n: usize) -> Self {
        Self::new(&format!("O3x{n}"), SystemConfig::o3(n), RuntimeKind::Baseline)
    }

    /// `big.TINY/MESI`: full-system hardware coherence.
    pub fn bt_mesi() -> Self {
        Self::new("b.T/MESI", SystemConfig::big_tiny_mesi(), RuntimeKind::Baseline)
    }

    /// `big.TINY/HCC-*` (optionally with DTS).
    pub fn bt_hcc(proto: Protocol, dts: bool) -> Self {
        let kind = if dts { RuntimeKind::Dts } else { RuntimeKind::Hcc };
        let label = if dts {
            format!("b.T/HCC-DTS-{}", proto.label())
        } else {
            format!("b.T/HCC-{}", proto.label())
        };
        Self::new(&label, SystemConfig::big_tiny_hcc(proto), kind)
    }

    /// The 256-core variants of Table V.
    pub fn bt_256(proto: Protocol, kind: RuntimeKind) -> Self {
        let (sys, label) = match (proto, kind) {
            (Protocol::Mesi, RuntimeKind::Baseline) => {
                (SystemConfig::big_tiny_256(Protocol::Mesi), "b.T-256/MESI".to_owned())
            }
            (p, RuntimeKind::Hcc) => {
                (SystemConfig::big_tiny_256(p), format!("b.T-256/HCC-{}", p.label()))
            }
            (p, RuntimeKind::Dts) => {
                (SystemConfig::big_tiny_256(p), format!("b.T-256/HCC-DTS-{}", p.label()))
            }
            _ => panic!("unsupported 256-core combination"),
        };
        Setup { label, sys, rt: RuntimeConfig::new(kind) }
    }

    /// The seven 64-core big.TINY configurations of Figures 5-8:
    /// MESI, HCC-{dnv,gwt,gwb}, HCC-DTS-{dnv,gwt,gwb}.
    pub fn big_tiny_matrix() -> Vec<Setup> {
        let mut v = vec![Self::bt_mesi()];
        for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
            v.push(Self::bt_hcc(proto, false));
        }
        for proto in [Protocol::DeNovo, Protocol::GpuWt, Protocol::GpuWb] {
            v.push(Self::bt_hcc(proto, true));
        }
        v
    }
}

/// One verified application run with the measurements the figures need.
#[derive(Debug)]
pub struct AppResult {
    /// Kernel name.
    pub app: &'static str,
    /// Setup label.
    pub setup: String,
    /// End-to-end simulated cycles.
    pub cycles: u64,
    /// Deque-policy label the run scheduled under (`locked`, `chase-lev`,
    /// `fence-free`, `idempotent`).
    pub deque_policy: &'static str,
    /// Full engine/runtime measurements.
    pub run: TaskRun,
    /// Ids of the tiny cores of the setup (for Figures 6/7 aggregation).
    pub tiny_cores: Vec<usize>,
}

impl AppResult {
    /// Aggregate tiny-core L1D hit rate (Figure 6). Falls back to all cores
    /// for setups without tiny cores (the O3 systems).
    pub fn l1d_hit_rate(&self) -> f64 {
        let cores: Vec<usize> = if self.tiny_cores.is_empty() {
            (0..self.run.report.mem_stats.len()).collect()
        } else {
            self.tiny_cores.clone()
        };
        self.run.report.l1d_hit_rate(&cores)
    }

    /// Aggregate tiny-core memory stats (Table IV).
    pub fn tiny_mem(&self) -> bigtiny_engine::CoreMemStats {
        self.run.report.mem_stats_over(&self.tiny_cores)
    }

    /// Aggregate tiny-core time breakdown (Figure 7).
    pub fn tiny_breakdown(&self) -> bigtiny_engine::TimeBreakdown {
        self.run.report.breakdown_over(&self.tiny_cores)
    }

    /// Total data-OCN bytes (Figure 8).
    pub fn traffic_bytes(&self) -> u64 {
        self.run.report.total_traffic_bytes()
    }
}

/// Runs `app` on `setup` at `size` (granularity `grain`, `0` = default),
/// verifying the functional result and the zero-stale-reads invariant.
///
/// # Panics
///
/// Panics if verification fails or the run would have read stale data on
/// real hardware — a harness must never report numbers from a broken run.
pub fn run_app(setup: &Setup, app: &AppSpec, size: AppSize, grain: usize) -> AppResult {
    let mut space = AddrSpace::new();
    let prepared = (app.prepare)(&mut space, size, grain);
    let run = run_task_parallel(&setup.sys, &setup.rt, &mut space, prepared.root);
    if let Err(e) = (prepared.verify)() {
        panic!("{} on {}: verification failed: {e}", app.name, setup.label);
    }
    assert_eq!(run.report.stale_reads, 0, "{} on {}: stale reads detected", app.name, setup.label);
    AppResult {
        app: app.name,
        setup: setup.label.clone(),
        cycles: run.report.completion_cycles,
        deque_policy: setup.rt.deque_kind.label(),
        tiny_cores: setup.sys.tiny_cores(),
        run,
    }
}

/// A machine-readable summary of one run, for downstream analysis
/// (`BIGTINY_JSON=<path>` makes [`live::Harness::run_matrix`] append one
/// JSON object per line). Serialized by [`ResultRecord::to_json_line`]
/// through the workspace's one JSON writer, [`Json`].
#[derive(Clone, Debug)]
pub struct ResultRecord {
    /// Kernel name.
    pub app: String,
    /// Setup label.
    pub setup: String,
    /// End-to-end simulated cycles.
    pub cycles: u64,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Tiny-core L1D hit rate in `[0, 1]`.
    pub l1d_hit_rate: f64,
    /// Tiny-core lines invalidated by bulk self-invalidations.
    pub lines_invalidated: u64,
    /// Tiny-core lines written back by bulk flushes.
    pub lines_flushed: u64,
    /// Tiny-core atomic operations.
    pub amos: u64,
    /// Total data-OCN bytes.
    pub traffic_bytes: u64,
    /// ULI messages (0 outside DTS).
    pub uli_messages: u64,
    /// Successful steals.
    pub steals: u64,
    /// Logical work (instructions).
    pub work: u64,
    /// Critical path (instructions).
    pub span: u64,
    /// Tasks executed.
    pub tasks: u64,
    /// Total injected faults (0 on a golden-path run).
    pub faults_injected: u64,
    /// Injected data-OCN latency spikes.
    pub mesh_fault_spikes: u64,
    /// ULI steal responses the hardened runtime timed out on.
    pub uli_timeouts: u64,
    /// Shared-memory fallback steals the hardened DTS runtime performed.
    pub fallback_steals: u64,
    /// Steal attempts the fault plan forced to miss.
    pub forced_steal_misses: u64,
    /// Fail-stop crashes taken (0 unless a crash dimension was armed).
    pub crashes: u64,
    /// Unstarted tasks discarded from fail-stopped cores' deques.
    pub orphans_reclaimed: u64,
    /// Stolen tasks rescued from fail-stopped thieves' mailboxes.
    pub mailbox_rescues: u64,
    /// Tasks re-spawned because their executor fail-stopped mid-body.
    pub reexecutions: u64,
    /// Join counters repaired by a re-spawned task.
    pub joins_repaired: u64,
    /// Victim-quarantine events on dead cores.
    pub quarantines: u64,
    /// Cores that revived and rejoined scheduling.
    pub revivals: u64,
    /// Total sequencer token grants (the unit of the watchdog budget).
    pub seq_grants: u64,
}

impl From<&AppResult> for ResultRecord {
    fn from(r: &AppResult) -> Self {
        let mem = r.tiny_mem();
        let ws = r.run.stats.workspan;
        ResultRecord {
            app: r.app.to_owned(),
            setup: r.setup.clone(),
            cycles: r.cycles,
            instructions: r.run.report.total_instructions(),
            l1d_hit_rate: r.l1d_hit_rate(),
            lines_invalidated: mem.lines_invalidated,
            lines_flushed: mem.lines_flushed,
            amos: mem.amos,
            traffic_bytes: r.traffic_bytes(),
            uli_messages: r.run.report.uli.messages,
            steals: r.run.stats.steals,
            work: ws.work,
            span: ws.span,
            tasks: ws.tasks,
            faults_injected: r.run.report.fault_counters.total(),
            mesh_fault_spikes: r.run.report.mesh_fault_spikes,
            uli_timeouts: r.run.stats.uli_timeouts,
            fallback_steals: r.run.stats.fallback_steals,
            forced_steal_misses: r.run.stats.forced_steal_misses,
            crashes: r.run.report.fault_counters.crashes,
            orphans_reclaimed: r.run.stats.orphans_reclaimed,
            mailbox_rescues: r.run.stats.mailbox_rescues,
            reexecutions: r.run.stats.reexecutions,
            joins_repaired: r.run.stats.joins_repaired,
            quarantines: r.run.stats.quarantines,
            revivals: r.run.stats.revivals,
            seq_grants: r.run.report.seq_grants,
        }
    }
}

/// A value in a flat JSON-lines record.
#[derive(Clone, PartialEq, Debug)]
pub enum JsonScalar {
    /// A JSON string (unescaped).
    Str(String),
    /// A finite JSON number.
    Num(f64),
    /// JSON `null` (how non-finite floats are encoded).
    Null,
}

/// Strictly parses one flat single-line JSON object (the shape
/// [`ResultRecord::to_json_line`] emits) into its key/value pairs, in
/// order. Rejects nesting, duplicate keys, bad escapes, non-finite
/// numbers, and trailing garbage — CI runs every emitted line through this
/// so an unparseable record fails loudly instead of corrupting downstream
/// analysis.
pub fn parse_json_line(line: &str) -> Result<Vec<(String, JsonScalar)>, String> {
    // The grammar (strings, escapes, numbers, duplicate keys, trailing
    // bytes) is `bigtiny_obs::parse_json`'s; this adapter only adds the
    // flat, single-line record shape on top.
    if line.contains(['\n', '\r']) {
        return Err("record spans more than one line".to_owned());
    }
    let Json::Obj(fields) = parse_json(line)? else {
        return Err("expected a JSON object".to_owned());
    };
    fields
        .into_iter()
        .map(|(key, value)| match value {
            Json::Str(s) => Ok((key, JsonScalar::Str(s.into_owned()))),
            Json::Num(v) => Ok((key, JsonScalar::Num(v))),
            Json::Null => Ok((key, JsonScalar::Null)),
            Json::Bool(_) => Err(format!("{key:?}: bare word (only null is allowed)")),
            Json::Arr(_) | Json::Obj(_) | Json::Rec(..) => {
                Err(format!("{key:?}: nested containers are not flat"))
            }
        })
        .collect()
}

impl ResultRecord {
    /// Renders the record as a single-line JSON object. A non-finite hit
    /// rate (a run with zero tiny-core accesses) becomes `null`.
    pub fn to_json_line(&self) -> String {
        let fields = [
            ("app", Json::str(self.app.as_str())),
            ("setup", Json::str(self.setup.as_str())),
            ("cycles", Json::u64(self.cycles)),
            ("instructions", Json::u64(self.instructions)),
            ("l1d_hit_rate", Json::f64(self.l1d_hit_rate)),
            ("lines_invalidated", Json::u64(self.lines_invalidated)),
            ("lines_flushed", Json::u64(self.lines_flushed)),
            ("amos", Json::u64(self.amos)),
            ("traffic_bytes", Json::u64(self.traffic_bytes)),
            ("uli_messages", Json::u64(self.uli_messages)),
            ("steals", Json::u64(self.steals)),
            ("work", Json::u64(self.work)),
            ("span", Json::u64(self.span)),
            ("tasks", Json::u64(self.tasks)),
            ("faults_injected", Json::u64(self.faults_injected)),
            ("mesh_fault_spikes", Json::u64(self.mesh_fault_spikes)),
            ("uli_timeouts", Json::u64(self.uli_timeouts)),
            ("fallback_steals", Json::u64(self.fallback_steals)),
            ("forced_steal_misses", Json::u64(self.forced_steal_misses)),
            ("crashes", Json::u64(self.crashes)),
            ("orphans_reclaimed", Json::u64(self.orphans_reclaimed)),
            ("mailbox_rescues", Json::u64(self.mailbox_rescues)),
            ("reexecutions", Json::u64(self.reexecutions)),
            ("joins_repaired", Json::u64(self.joins_repaired)),
            ("quarantines", Json::u64(self.quarantines)),
            ("revivals", Json::u64(self.revivals)),
            ("seq_grants", Json::u64(self.seq_grants)),
        ];
        Json::Obj(fields.into_iter().map(|(key, value)| (key.to_owned(), value)).collect())
            .to_json()
    }
}

/// Looks up a result by app and setup label.
pub fn find_result<'a>(results: &'a [AppResult], app: &str, setup: &str) -> &'a AppResult {
    results
        .iter()
        .find(|r| r.app == app && r.setup == setup)
        .unwrap_or_else(|| panic!("missing result for {app} on {setup}"))
}

/// Geometric mean of the positive values in the input.
///
/// Non-positive values (a degenerate run: a zero-cycle ratio, a failed
/// normalization) are skipped with a single stderr warning reporting how
/// many were dropped, instead of aborting a whole evaluation sweep that
/// already holds results for every other kernel. Returns 0.0 when no
/// positive value survives.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    let mut skipped = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        } else {
            skipped += 1;
        }
    }
    if skipped > 0 {
        eprintln!("[geomean] skipped {skipped} non-positive value(s) of {}", n + skipped);
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Renders a fixed-width table: a header row plus data rows.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_labels_match_paper_names() {
        assert_eq!(Setup::bt_mesi().label, "b.T/MESI");
        assert_eq!(Setup::bt_hcc(Protocol::GpuWb, false).label, "b.T/HCC-gwb");
        assert_eq!(Setup::bt_hcc(Protocol::DeNovo, true).label, "b.T/HCC-DTS-dnv");
        assert_eq!(Setup::o3(8).label, "O3x8");
        let m = Setup::big_tiny_matrix();
        assert_eq!(m.len(), 7);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty::<f64>()), 0.0);
    }

    #[test]
    fn geomean_skips_non_positive_values() {
        // A zero (degenerate ratio) must not poison the mean of the rest.
        assert!((geomean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12);
        // Negative values are equally non-sensical in log space.
        assert!((geomean([-3.0, 2.0, 8.0]) - 4.0).abs() < 1e-12);
        // NaN is not > 0.0, so it is skipped rather than propagated.
        assert!((geomean([f64::NAN, 4.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_only_non_positive_values_is_zero() {
        assert_eq!(geomean([0.0, -1.0]), 0.0);
        assert_eq!(geomean([0.0]), 0.0);
    }

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a".into(), "bb".into()],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "200".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[3].contains("10") && lines[3].contains("200"));
    }

    #[test]
    fn smoke_run_one_app_on_two_setups() {
        let app = bigtiny_apps::app_by_name("ligra-bfs").unwrap();
        for setup in [Setup::serial_io(), Setup::bt_hcc(Protocol::GpuWb, true)] {
            let r = run_app(&setup, &app, AppSize::Test, 8);
            assert!(r.cycles > 0);
        }
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    /// Extracts the value of a numeric or string field from a flat
    /// single-line JSON object (enough of a parser for our own encoder).
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let start = line.find(&pat).unwrap_or_else(|| panic!("missing key {key}")) + pat.len();
        let rest = &line[start..];
        let end = rest
            .char_indices()
            .find(|(i, c)| (*c == ',' || *c == '}') && !rest[..*i].ends_with('\\'))
            .map(|(i, _)| i)
            .unwrap();
        rest[..end].trim_matches('"')
    }

    #[test]
    fn result_records_serialize_as_json_lines() {
        let app = bigtiny_apps::app_by_name("cilk5-nq").unwrap();
        let setup = Setup::bt_hcc(Protocol::GpuWb, true);
        let r = run_app(&setup, &app, AppSize::Test, 0);
        let rec = ResultRecord::from(&r);
        let line = rec.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert_eq!(field(&line, "app"), "cilk5-nq");
        assert_eq!(field(&line, "cycles"), r.cycles.to_string());
        assert_eq!(field(&line, "steals"), r.run.stats.steals.to_string());
        assert_eq!(field(&line, "faults_injected"), "0", "golden path injects nothing");
        assert_eq!(field(&line, "seq_grants"), r.run.report.seq_grants.to_string());
        let span: u64 = field(&line, "span").parse().unwrap();
        let work: u64 = field(&line, "work").parse().unwrap();
        assert!(span <= work);
    }

    /// The exact bytes of a record line — a quote, a newline and a control
    /// character escaped, a NaN hit rate as `null`, a hit rate of 1.0 as
    /// `1` — so every `BIGTINY_JSON` line keeps its bytes.
    #[test]
    fn json_escaping_handles_special_characters() {
        let line = |app: &str, hit_rate: &str| {
            format!(
                concat!(
                    r#"{{"app":"{}","setup":"b.T/HCC-gwb","cycles":123,"instructions":456,"#,
                    r#""l1d_hit_rate":{},"lines_invalidated":1,"lines_flushed":2,"amos":3,"#,
                    r#""traffic_bytes":4,"uli_messages":5,"steals":6,"work":7,"span":7,"#,
                    r#""tasks":8,"faults_injected":0,"mesh_fault_spikes":0,"uli_timeouts":0,"#,
                    r#""fallback_steals":0,"forced_steal_misses":0,"crashes":0,"#,
                    r#""orphans_reclaimed":0,"mailbox_rescues":0,"reexecutions":0,"#,
                    r#""joins_repaired":0,"quarantines":0,"revivals":0,"seq_grants":9}}"#,
                ),
                app, hit_rate
            )
        };
        let mut odd = synthetic_record(f64::NAN);
        odd.app.push('\u{1}');
        assert_eq!(odd.to_json_line(), line(r#"synthetic \"app\"\n\u0001"#, "null"));
        assert_eq!(synthetic_record(1.0).to_json_line(), line(r#"synthetic \"app\"\n"#, "1"));
    }

    fn synthetic_record(hit_rate: f64) -> ResultRecord {
        ResultRecord {
            app: "synthetic \"app\"\n".to_owned(),
            setup: "b.T/HCC-gwb".to_owned(),
            cycles: 123,
            instructions: 456,
            l1d_hit_rate: hit_rate,
            lines_invalidated: 1,
            lines_flushed: 2,
            amos: 3,
            traffic_bytes: 4,
            uli_messages: 5,
            steals: 6,
            work: 7,
            span: 7,
            tasks: 8,
            faults_injected: 0,
            mesh_fault_spikes: 0,
            uli_timeouts: 0,
            fallback_steals: 0,
            forced_steal_misses: 0,
            crashes: 0,
            orphans_reclaimed: 0,
            mailbox_rescues: 0,
            reexecutions: 0,
            joins_repaired: 0,
            quarantines: 0,
            revivals: 0,
            seq_grants: 9,
        }
    }

    fn value_of<'a>(kv: &'a [(String, JsonScalar)], key: &str) -> &'a JsonScalar {
        &kv.iter().find(|(k, _)| k == key).unwrap_or_else(|| panic!("missing key {key}")).1
    }

    /// A record whose hit rate is NaN (zero tiny-core accesses) must still
    /// serialize to a line the strict parser accepts; the NaN comes back as
    /// `null`, never as a bare `NaN` token.
    #[test]
    fn non_finite_floats_round_trip_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let line = synthetic_record(bad).to_json_line();
            let kv = parse_json_line(&line).expect("strict parse of a non-finite record");
            assert_eq!(*value_of(&kv, "l1d_hit_rate"), JsonScalar::Null, "{line}");
        }
        let line = synthetic_record(0.875).to_json_line();
        let kv = parse_json_line(&line).expect("strict parse of a finite record");
        assert_eq!(*value_of(&kv, "l1d_hit_rate"), JsonScalar::Num(0.875));
        // Escaped strings decode back to the original text.
        assert_eq!(*value_of(&kv, "app"), JsonScalar::Str("synthetic \"app\"\n".to_owned()));
        assert_eq!(*value_of(&kv, "cycles"), JsonScalar::Num(123.0));
    }

    /// Control characters below 0x20 (a fault-plan or app name can carry
    /// them) must serialize as `\u00XX` escapes and decode back exactly —
    /// an unescaped control byte makes the line invalid JSON that
    /// [`parse_json_line`] rejects.
    #[test]
    fn control_characters_round_trip_through_json_lines() {
        let all_controls: String = (0u32..0x20).map(|cp| char::from_u32(cp).unwrap()).collect();
        let mut rec = synthetic_record(0.5);
        rec.app = format!("ctl[{all_controls}]\u{7f}end");
        let line = rec.to_json_line();
        assert!(!line.bytes().any(|b| b < 0x20), "raw control byte escaped into {line:?}");
        let kv = parse_json_line(&line).expect("control-character record parses strictly");
        assert_eq!(*value_of(&kv, "app"), JsonScalar::Str(rec.app.clone()), "{line}");
    }

    #[test]
    fn strict_parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":1",
            "{\"a\":NaN}",
            "{\"a\":Infinity}",
            "{\"a\":1}trailing",
            "{\"a\":1,\"a\":2}",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":[1]}",
            "{\"a\":\"unterminated}",
            "{\"a\":true}",
            "{a:1}",
        ] {
            assert!(parse_json_line(bad).is_err(), "accepted malformed line {bad:?}");
        }
        assert_eq!(parse_json_line("{}").unwrap(), vec![]);
    }

    /// The two rejections the flat adapter itself owns (the document
    /// parser underneath accepts both shapes).
    #[test]
    fn flat_adapter_rejects_nested_values_and_booleans() {
        let err = |line| parse_json_line(line).unwrap_err();
        assert!(err("{\"ok\":1,\"deep\":{\"x\":[1,2]}}").contains("\"deep\": nested containers"));
        assert!(err("{\"ok\":1,\"flag\":false}").contains("\"flag\": bare word"));
        assert!(err("[1]").contains("expected a JSON object"));
    }
}
