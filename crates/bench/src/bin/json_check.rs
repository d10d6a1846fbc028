//! Validates a JSON results artifact before CI ships it.
//!
//! Three shapes are accepted:
//!
//! * a heartbeat stream (what `--heartbeat-out` writes) — recognised by
//!   the `bigtiny-obs-heartbeat-v1` schema tag on the first line; every
//!   line is schema-validated and `seq` must be monotone per run;
//! * a single nested document (what `eval_all --metrics-out` writes) —
//!   strictly parsed whole-file with the `bigtiny-obs` parser; a metrics
//!   document additionally needs a non-empty `runs` array;
//! * a JSON-lines file (as written via `BIGTINY_JSON`) — every line run
//!   through the strict flat-object parser, so an unparseable record (e.g.
//!   a bare `NaN`) fails loudly instead of corrupting downstream analysis.

use bigtiny_bench::{cli, parse_json_line};
use bigtiny_obs::{
    looks_like_heartbeat_stream, parse_json, validate_heartbeat_stream, Json,
    METRICS_SCHEMAS_ACCEPTED,
};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[]).positionals(&["results.jsonl | metrics.json"], &[]);

fn main() {
    let args = CLI.parse();
    let path = args.positional(0).expect("required positional");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("json_check: {path}: {e}");
        std::process::exit(2);
    });

    // Heartbeat streams first: each line is itself a nested document, so
    // they must be routed before the whole-file parse (which would reject
    // the multi-line stream) and the flat-line fallback (which rejects
    // nesting).
    if looks_like_heartbeat_stream(&text) {
        match validate_heartbeat_stream(&text) {
            Ok(beats) => {
                println!("{path}: valid heartbeat stream, {beats} beats");
                return;
            }
            Err(e) => {
                eprintln!("json_check: {path}: invalid heartbeat stream: {e}");
                std::process::exit(1);
            }
        }
    }

    // A nested container document (metrics or trace output) parses
    // whole-file; flat records — even a single-line file — fall through to
    // the stricter line parser.
    let container = |v: &Json| matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Rec(..));
    let nested =
        |doc: &Json| matches!(doc, Json::Arr(_)) || doc.fields().any(|(_, v)| container(v));
    if let Some(doc) = parse_json(text.trim_end()).ok().filter(nested) {
        if let Some(runs) = doc.get("runs") {
            let n = runs.as_arr().map(<[Json]>::len).unwrap_or(0);
            if n == 0 {
                eprintln!("json_check: {path}: document has an empty or non-array `runs`");
                std::process::exit(1);
            }
            let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("(none)");
            // Metrics documents must carry a schema version readers
            // understand; anything else under the metrics prefix is a
            // silent-drift hazard.
            if schema.starts_with("bigtiny-obs-metrics-")
                && !METRICS_SCHEMAS_ACCEPTED.contains(&schema)
            {
                eprintln!(
                    "json_check: {path}: unknown metrics schema `{schema}` (accepted: {})",
                    METRICS_SCHEMAS_ACCEPTED.join(", ")
                );
                std::process::exit(1);
            }
            // Model-check verdict documents (`model_check` bin): pin the
            // schema version and the per-cell keys downstream tooling
            // reads, so a silent field rename fails here instead of in
            // analysis.
            if schema.starts_with("bigtiny-model-check-") {
                if schema != "bigtiny-model-check-v1" && schema != "bigtiny-model-check-v2" {
                    eprintln!("json_check: {path}: unknown model-check schema `{schema}`");
                    std::process::exit(1);
                }
                let mut required = vec![
                    "app",
                    "setup",
                    "explored",
                    "pruned",
                    "truncated",
                    "clean",
                    "first_fail_script",
                ];
                if schema == "bigtiny-model-check-v2" {
                    // v2 added the deque-policy sweep keys.
                    required.extend(["policy", "dup_injected"]);
                }
                for (i, run) in runs.as_arr().unwrap_or(&[]).iter().enumerate() {
                    for key in &required {
                        if run.get(key).is_none() {
                            eprintln!("json_check: {path}: run {i} is missing `{key}`");
                            std::process::exit(1);
                        }
                    }
                }
            }
            println!("{path}: valid document, schema {schema}, {n} runs");
        } else {
            println!("{path}: valid JSON document");
        }
        return;
    }

    let mut records = 0usize;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_json_line(line) {
            Ok(kv) if kv.is_empty() => {
                eprintln!("{path}:{}: empty record", idx + 1);
                std::process::exit(1);
            }
            Ok(_) => records += 1,
            Err(e) => {
                eprintln!("{path}:{}: invalid JSON line: {e}\n  {line}", idx + 1);
                std::process::exit(1);
            }
        }
    }
    if records == 0 {
        eprintln!("json_check: {path}: no records");
        std::process::exit(1);
    }
    println!("{path}: {records} valid records");
}
