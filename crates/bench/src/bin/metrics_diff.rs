//! Compares two bigtiny-obs metrics documents and flags regressions.
//!
//! Reads a baseline and a new document (any accepted schema — the diff
//! only touches keys every version carries, plus the v3 `deque_policy`
//! label when present), matches runs by `(app, setup, deque_policy)`, and
//! prints per-run deltas for completion cycles and steal traffic. Exits
//! nonzero when any common run's cycle count moved by more than
//! `--threshold` percent.
//!
//! Runs present on only one side are reported as explicit `missing` rows
//! and **fail the check**: a silently dropped cell is indistinguishable
//! from a passing one, which is exactly how a gate rots. When growing the
//! kernel matrix intentionally, pass `--allow-missing` for the one run
//! that regenerates the baseline.

use bigtiny_bench::{cli, render_table};
use bigtiny_obs::{parse_json, Json, METRICS_SCHEMAS_ACCEPTED};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::THRESHOLD, &cli::ALLOW_MISSING])
        .positionals(&["BASELINE.json", "NEW.json"], &[]);

#[derive(Debug)]
struct Run {
    app: String,
    setup: String,
    /// Deque-policy label (metrics v3). Pre-v3 documents carry no label
    /// but every pre-v3 run used the locked deque, so `load` defaults the
    /// field to "locked" and old baselines keep matching one-to-one.
    policy: String,
    cycles: f64,
    steal_attempts: f64,
    steal_hits: f64,
}

impl Run {
    fn key(&self) -> (&str, &str, &str) {
        (&self.app, &self.setup, &self.policy)
    }

    /// Cell label for the report: `app @ setup [policy]`.
    fn label(&self) -> String {
        if self.policy.is_empty() {
            format!("{} @ {}", self.app, self.setup)
        } else {
            format!("{} @ {} [{}]", self.app, self.setup, self.policy)
        }
    }
}

/// The runs of the metrics document `text`. What the gate compares must
/// be there: a run without a string `app`/`setup` or a numeric `cycles` is
/// a malformed document, not a run of `"?"` at 0 cycles (two such
/// documents would diff clean). `deque_policy` and `steals.*` keep their
/// documented defaults so v1/v2 documents still load.
fn runs_of(text: &str) -> Result<Vec<Run>, String> {
    let doc = parse_json(text.trim_end()).map_err(|e| format!("invalid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("(none)");
    if !METRICS_SCHEMAS_ACCEPTED.contains(&schema) {
        return Err(format!(
            "unsupported schema `{schema}` (accepted: {})",
            METRICS_SCHEMAS_ACCEPTED.join(", ")
        ));
    }
    let runs = doc.get("runs").and_then(Json::as_arr).ok_or("document has no `runs` array")?;
    runs.iter()
        .enumerate()
        .map(|(i, r)| {
            let text = |key: &str| {
                r.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("run {i} has no string `{key}`"))
            };
            let steals = |key: &str| {
                r.get("steals").and_then(|s| s.get(key)).and_then(Json::as_num).unwrap_or(0.0)
            };
            Ok(Run {
                app: text("app")?,
                setup: text("setup")?,
                policy: r.get("deque_policy").and_then(Json::as_str).unwrap_or("locked").to_owned(),
                cycles: r
                    .get("cycles")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("run {i} has no numeric `cycles`"))?,
                steal_attempts: steals("attempts"),
                steal_hits: steals("hits"),
            })
        })
        .collect()
}

fn load(path: &str) -> Vec<Run> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| runs_of(&text))
        .unwrap_or_else(|e| {
            eprintln!("metrics_diff: {path}: {e}");
            std::process::exit(2);
        })
}

/// The diff verdict, separated from I/O so the gate logic is unit-tested.
struct Diff {
    rows: Vec<Vec<String>>,
    /// Worst absolute cycle delta over common cells, in percent.
    worst: f64,
    common: usize,
    missing: usize,
}

fn diff(base: &[Run], new: &[Run]) -> Diff {
    let pct = |old: f64, new: f64| -> f64 {
        if old == 0.0 {
            if new == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            100.0 * (new - old) / old
        }
    };

    let mut d = Diff { rows: Vec::new(), worst: 0.0, common: 0, missing: 0 };
    for b in base {
        let Some(n) = new.iter().find(|n| n.key() == b.key()) else {
            d.missing += 1;
            d.rows.push(vec![
                b.app.clone(),
                b.setup.clone(),
                b.policy.clone(),
                format!("{}", b.cycles),
                "—".into(),
                "missing".into(),
                "—".into(),
                "—".into(),
            ]);
            continue;
        };
        d.common += 1;
        let dc = pct(b.cycles, n.cycles);
        d.worst = d.worst.max(dc.abs());
        d.rows.push(vec![
            b.app.clone(),
            b.setup.clone(),
            b.policy.clone(),
            format!("{}", b.cycles),
            format!("{}", n.cycles),
            format!("{dc:+.3}%"),
            format!("{:+.0}", n.steal_attempts - b.steal_attempts),
            format!("{:+.0}", n.steal_hits - b.steal_hits),
        ]);
    }
    for n in new {
        if !base.iter().any(|b| b.key() == n.key()) {
            d.missing += 1;
            d.rows.push(vec![
                n.app.clone(),
                n.setup.clone(),
                n.policy.clone(),
                "—".into(),
                format!("{}", n.cycles),
                "missing".into(),
                "—".into(),
                "—".into(),
            ]);
        }
    }
    d
}

fn main() {
    let args = CLI.parse();
    let threshold = args.get(&cli::THRESHOLD);
    let allow_missing = args.given(&cli::ALLOW_MISSING);
    let base = load(args.positional(0).expect("required positional"));
    let new = load(args.positional(1).expect("required positional"));
    let d = diff(&base, &new);

    for r in &base {
        if !new.iter().any(|n| n.key() == r.key()) {
            println!("[metrics_diff] only in baseline: {}", r.label());
        }
    }
    for r in &new {
        if !base.iter().any(|b| b.key() == r.key()) {
            println!("[metrics_diff] only in new: {}", r.label());
        }
    }

    let header: Vec<String> =
        ["App", "Config", "Policy", "cycles(base)", "cycles(new)", "delta", "d-attempts", "d-hits"]
            .map(String::from)
            .to_vec();
    println!("{}", render_table(&header, &d.rows));

    if d.common == 0 {
        eprintln!("[metrics_diff] FAIL: no common (app, setup, policy) runs between the documents");
        std::process::exit(1);
    }
    if d.missing > 0 && !allow_missing {
        eprintln!(
            "[metrics_diff] FAIL: {} cell(s) present in only one document \
             (pass --allow-missing when growing the matrix intentionally)",
            d.missing
        );
        std::process::exit(1);
    }
    if d.worst > threshold {
        eprintln!(
            "[metrics_diff] FAIL: worst cycle delta {:.3}% exceeds threshold {threshold}%",
            d.worst
        );
        std::process::exit(1);
    }
    println!(
        "[metrics_diff] OK: {} runs compared ({} missing), worst cycle delta {:.3}% \
         (threshold {threshold}%)",
        d.common, d.missing, d.worst
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(app: &str, setup: &str, policy: &str, cycles: f64) -> Run {
        Run {
            app: app.into(),
            setup: setup.into(),
            policy: policy.into(),
            cycles,
            steal_attempts: 0.0,
            steal_hits: 0.0,
        }
    }

    fn doc(runs: &str) -> String {
        format!("{{\"schema\":\"{}\",\"runs\":[{runs}]}}\n", METRICS_SCHEMAS_ACCEPTED[0])
    }

    /// The hole in the threshold-0 gate: a run without `cycles` used to
    /// load as 0 cycles, so two documents that both lost the field
    /// compared 0 == 0 and passed.
    #[test]
    fn a_run_missing_what_the_gate_compares_is_a_malformed_document() {
        for (run, culprit) in [
            (r#"{"app":"nq","setup":"b.T/MESI"}"#, "run 1 has no numeric `cycles`"),
            (r#"{"app":"nq","setup":"b.T/MESI","cycles":"12"}"#, "run 1 has no numeric `cycles`"),
            (r#"{"app":"nq","setup":"b.T/MESI","cycles":null}"#, "run 1 has no numeric `cycles`"),
            (r#"{"setup":"b.T/MESI","cycles":12}"#, "run 1 has no string `app`"),
            (r#"{"app":"nq","setup":7,"cycles":12}"#, "run 1 has no string `setup`"),
        ] {
            let good = r#"{"app":"cs","setup":"b.T/MESI","cycles":5}"#;
            let err = runs_of(&doc(&format!("{good},{run}"))).err();
            assert_eq!(err.as_deref(), Some(culprit), "{run}");
        }
        assert!(runs_of("{\"runs\":[]}").unwrap_err().starts_with("unsupported schema"));
        assert!(runs_of(&doc("").replace("\"runs\"", "\"rnus\""))
            .unwrap_err()
            .contains("no `runs`"));
        assert!(runs_of("{").unwrap_err().starts_with("invalid JSON"));
    }

    /// What older documents lack keeps its documented default: no
    /// `deque_policy` means the locked deque, no `steals` means zeros.
    #[test]
    fn v1_documents_load_with_the_documented_defaults() {
        let runs = runs_of(&doc(r#"{"app":"nq","setup":"b.T/MESI","cycles":100},
               {"app":"nq","setup":"b.T/HCC-dnv","cycles":90,"deque_policy":"chase-lev",
                "steals":{"attempts":7,"hits":3}}"#))
        .unwrap();
        assert_eq!(runs[0].key(), ("nq", "b.T/MESI", "locked"));
        assert_eq!((runs[0].cycles, runs[0].steal_attempts, runs[0].steal_hits), (100.0, 0.0, 0.0));
        assert_eq!(runs[1].key(), ("nq", "b.T/HCC-dnv", "chase-lev"));
        assert_eq!((runs[1].steal_attempts, runs[1].steal_hits), (7.0, 3.0));
    }

    #[test]
    fn missing_cells_become_explicit_rows_on_both_sides() {
        let base = vec![run("nq", "b.T/MESI", "", 100.0), run("cs", "b.T/MESI", "", 50.0)];
        let new = vec![run("nq", "b.T/MESI", "", 100.0), run("mt", "b.T/MESI", "", 70.0)];
        let d = diff(&base, &new);
        assert_eq!((d.common, d.missing), (1, 2));
        // One matched row plus one missing row per side, all in the table.
        assert_eq!(d.rows.len(), 3);
        let missing: Vec<_> = d.rows.iter().filter(|r| r[5] == "missing").collect();
        assert_eq!(missing.len(), 2);
        assert!(missing.iter().any(|r| r[0] == "cs" && r[4] == "—"));
        assert!(missing.iter().any(|r| r[0] == "mt" && r[3] == "—"));
    }

    #[test]
    fn policy_is_part_of_the_match_key() {
        // Same (app, setup) under two policies must not cross-match: the
        // locked baseline would otherwise silently absorb the fence-free
        // cell's cycles.
        let base = vec![run("nq", "b.T/MESI", "locked", 100.0)];
        let new =
            vec![run("nq", "b.T/MESI", "locked", 100.0), run("nq", "b.T/MESI", "fence-free", 90.0)];
        let d = diff(&base, &new);
        assert_eq!((d.common, d.missing), (1, 1));
        assert_eq!(d.worst, 0.0);
    }

    #[test]
    fn pre_policy_documents_still_match_one_to_one() {
        let base = vec![run("nq", "b.T/MESI", "", 100.0)];
        let new = vec![run("nq", "b.T/MESI", "", 110.0)];
        let d = diff(&base, &new);
        assert_eq!((d.common, d.missing), (1, 0));
        assert!((d.worst - 10.0).abs() < 1e-9);
    }
}
