//! The `bigtiny-obs-heartbeat-v1` line-JSON stream.
//!
//! A heartbeat-armed run emits one JSON document per line, each carrying
//! its own schema tag, so a stream can be followed (`tail_run`), appended
//! across runs, and validated line by line (`json_check`). Two kinds of
//! fields share a line:
//!
//! * **Deterministic** — a pure function of the sequenced-op stream,
//!   identical across reruns and backends: `seq`, `cycle`, `grants`,
//!   `max_core_clock`, the `conservation` buckets, and `faults` (all
//!   published only while a core holds the sequencer token).
//! * **Out-of-band** — host-timing artifacts for humans and dashboards,
//!   never for pins: `fast_grants`, the per-core `strip`, `islands` (an
//!   empty array since the engine has one island), and everything the
//!   emitting harness appends (wall milliseconds, grants/s, live runtime
//!   stats).
//!
//! [`heartbeat_line`] renders the deterministic core plus the snapshot's
//! out-of-band strip; harnesses append their own out-of-band pairs via
//! `extra`.

use bigtiny_engine::HeartbeatSnap;

use crate::json::{parse_json, schemas, Json};

/// Schema tag carried by every heartbeat line.
pub const HEARTBEAT_SCHEMA: &str = "bigtiny-obs-heartbeat-v1";

schemas! {
    /// The conservation buckets (the same partition as
    /// [`CycleConservation`](crate::CycleConservation)).
    CONSERVATION = ["compute", "amo", "flush", "invalidate", "steal_protocol", "idle"];
    /// Fault-counter labels, in [`bigtiny_engine::FaultCounters::pairs`]
    /// order (the order [`HeartbeatSnap::faults`] uses).
    FAULTS = ["uli_drops", "uli_nacks", "uli_delays", "uli_rx_drops", "steal_misses", "crashes"];
}

/// Indices of [`bigtiny_engine::TIME_CATEGORIES`] folded into each
/// [`CONSERVATION`] bucket.
const BUCKETS: [&[usize]; 6] = [
    &[0, 1, 2], // Compute + Load + Store
    &[3],       // Atomic
    &[4],       // Flush
    &[5],       // Invalidate
    &[6, 7],    // Uli + UliWait
    &[8],       // Idle
];

/// Renders one heartbeat line (no trailing newline). `app` and `setup`
/// identify the run inside a multi-run stream; `extra` appends
/// harness-side out-of-band pairs (wall clock, rates, runtime stats) after
/// the deterministic fields.
pub fn heartbeat_line(
    app: &str,
    setup: &str,
    snap: &HeartbeatSnap,
    extra: Vec<(String, Json)>,
) -> String {
    let conservation = Json::row(
        &CONSERVATION,
        BUCKETS.map(|idxs| Json::u64(idxs.iter().map(|i| snap.breakdown[*i]).sum())),
    );
    let faults = Json::row(&FAULTS, snap.faults.map(Json::u64));
    // Per-core state strip, one char per core: running `r`, waiting `w`,
    // retired `.` (out-of-band — scheduler state is host-instantaneous).
    let strip: String = snap
        .cores
        .iter()
        .map(|c| {
            if c.retired {
                '.'
            } else if c.waiting_at.is_some() {
                'w'
            } else {
                'r'
            }
        })
        .collect();
    // The line itself keeps owned keys: `extra`'s are the harness's to name.
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::lit(HEARTBEAT_SCHEMA)),
        ("app".into(), Json::str(app)),
        ("setup".into(), Json::str(setup)),
        ("seq".into(), Json::u64(snap.seq)),
        ("cycle".into(), Json::u64(snap.time)),
        ("grants".into(), Json::u64(snap.total_grants)),
        ("max_core_clock".into(), Json::u64(snap.max_clock)),
        ("conservation".into(), conservation),
        ("faults".into(), faults),
        ("fast_grants".into(), Json::u64(snap.fast_grants)),
        ("strip".into(), Json::str(strip)),
        ("islands".into(), Json::Arr(snap.islands.iter().map(|t| Json::u64(*t)).collect())),
    ];
    fields.extend(extra);
    Json::Obj(fields).to_json()
}

/// Validates one heartbeat line: parseable JSON object, the
/// [`HEARTBEAT_SCHEMA`] tag, and every required field with its required
/// shape.
pub fn validate_heartbeat_line(line: &str) -> Result<(), String> {
    let doc = parse_json(line)?;
    let schema =
        doc.get("schema").and_then(Json::as_str).ok_or_else(|| "missing schema tag".to_owned())?;
    if schema != HEARTBEAT_SCHEMA {
        return Err(format!("schema {schema:?}, expected {HEARTBEAT_SCHEMA:?}"));
    }
    for key in ["app", "setup", "strip"] {
        doc.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string {key:?}"))?;
    }
    for key in ["seq", "cycle", "grants", "max_core_clock", "fast_grants"] {
        doc.get(key).and_then(Json::as_num).ok_or_else(|| format!("missing number {key:?}"))?;
    }
    let cons = doc.get("conservation").ok_or_else(|| "missing conservation".to_owned())?;
    for label in CONSERVATION.names() {
        cons.get(label)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("conservation missing bucket {label:?}"))?;
    }
    let faults = doc.get("faults").ok_or_else(|| "missing faults".to_owned())?;
    for label in FAULTS.names() {
        faults
            .get(label)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("faults missing counter {label:?}"))?;
    }
    doc.get("islands").and_then(Json::as_arr).ok_or_else(|| "missing islands".to_owned())?;
    Ok(())
}

/// Validates a whole heartbeat stream (one document per non-empty line)
/// and returns the number of heartbeat lines. `seq` must be
/// non-decreasing within each `(app, setup)` run.
pub fn validate_heartbeat_stream(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut last_seq: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_heartbeat_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let doc = parse_json(line).expect("validated above");
        let key = (
            doc.get("app").and_then(Json::as_str).expect("validated").to_owned(),
            doc.get("setup").and_then(Json::as_str).expect("validated").to_owned(),
        );
        let seq = doc.get("seq").and_then(Json::as_num).expect("validated");
        if let Some(prev) = last_seq.get(&key) {
            if seq < *prev {
                return Err(format!(
                    "line {}: seq went backwards ({seq} after {prev}) for {key:?}",
                    i + 1
                ));
            }
        }
        last_seq.insert(key, seq);
        count += 1;
    }
    if count == 0 {
        return Err("no heartbeat lines in stream".to_owned());
    }
    Ok(count)
}

/// Whether `text` looks like a heartbeat stream: its first non-empty line
/// is a JSON object carrying the [`HEARTBEAT_SCHEMA`] tag. Used by
/// `json_check` to route a file before strict validation.
pub fn looks_like_heartbeat_stream(text: &str) -> bool {
    text.lines().find(|l| !l.trim().is_empty()).is_some_and(|line| {
        parse_json(line)
            .ok()
            .and_then(|doc| doc.get("schema").and_then(Json::as_str).map(String::from))
            .is_some_and(|s| s == HEARTBEAT_SCHEMA)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigtiny_engine::SeqCoreDiag;

    fn snap() -> HeartbeatSnap {
        HeartbeatSnap {
            seq: 3,
            time: 3000,
            total_grants: 1500,
            fast_grants: 700,
            max_clock: 3100,
            breakdown: [100, 20, 10, 5, 2, 3, 7, 9, 44],
            faults: [1, 2, 3, 4, 5, 6],
            cores: vec![
                SeqCoreDiag { grants: 800, last_time: 3000, retired: false, waiting_at: None },
                SeqCoreDiag {
                    grants: 700,
                    last_time: 2990,
                    retired: false,
                    waiting_at: Some(3001),
                },
                SeqCoreDiag { grants: 0, last_time: 100, retired: true, waiting_at: None },
            ],
            islands: vec![3000, 2990],
        }
    }

    #[test]
    fn line_roundtrips_and_validates() {
        let line = heartbeat_line(
            "fib",
            "b.T/MESI",
            &snap(),
            vec![
                ("wall_ms".to_owned(), Json::u64(123)),
                ("grants_per_sec".to_owned(), Json::f64(1.5e6)),
            ],
        );
        assert!(!line.contains('\n'));
        validate_heartbeat_line(&line).unwrap();
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("strip").and_then(Json::as_str), Some("rw."));
        assert_eq!(doc.get("cycle").and_then(Json::as_num), Some(3000.0));
        assert_eq!(
            doc.get("conservation").and_then(|c| c.get("compute")).and_then(Json::as_num),
            Some(130.0)
        );
        assert_eq!(
            doc.get("conservation").and_then(|c| c.get("steal_protocol")).and_then(Json::as_num),
            Some(16.0)
        );
        assert_eq!(doc.get("wall_ms").and_then(Json::as_num), Some(123.0));
    }

    #[test]
    fn stream_validation_counts_and_orders() {
        let l1 = heartbeat_line("fib", "a", &snap(), vec![]);
        let mut later = snap();
        later.seq = 4;
        let l2 = heartbeat_line("fib", "a", &later, vec![]);
        let text = format!("{l1}\n{l2}\n\n");
        assert_eq!(validate_heartbeat_stream(&text).unwrap(), 2);
        // Reversed order must fail the seq monotonicity check.
        let rev = format!("{l2}\n{l1}\n");
        assert!(validate_heartbeat_stream(&rev).unwrap_err().contains("seq went backwards"));
        assert!(looks_like_heartbeat_stream(&text));
        assert!(!looks_like_heartbeat_stream("{\"schema\":\"other\"}"));
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(validate_heartbeat_line("{}").is_err());
        assert!(validate_heartbeat_line("not json").is_err());
        let line = heartbeat_line("fib", "a", &snap(), vec![]);
        let broken = line.replace("\"grants\"", "\"grantz\"");
        assert!(validate_heartbeat_line(&broken).is_err());
    }
}
