//! `tail_run`: follow a heartbeat stream with a refreshing terminal
//! dashboard.
//!
//! Point it at the file a `--heartbeat-out` run is writing and watch the
//! run live: per-core state strip, simulated-cycle progress, a throughput
//! sparkline over the recent grants/s samples, conservation buckets, and
//! a fault/recovery ticker. The stream is line-JSON
//! (`bigtiny-obs-heartbeat-v1`); each refresh re-renders from the newest
//! line, so tailing costs O(screen) regardless of run length.
//!
//! ```text
//! cargo run --release --bin eval_all -- --heartbeat-out /tmp/hb.jsonl &
//! cargo run --release --bin tail_run -- /tmp/hb.jsonl
//! ```
//!
//! `--once` renders the current tail and exits (no terminal control
//! sequences) — the mode tests and scripts use. Follow mode refreshes
//! until interrupted, or exits on its own once the file stops growing for
//! `--idle-exit` seconds (0 = never).

use std::io::{BufRead, BufReader, Seek, SeekFrom};

use bigtiny_bench::cli;
use bigtiny_obs::{parse_json, validate_heartbeat_line, Json};

const CLI: cli::Spec =
    cli::Spec::new(env!("CARGO_BIN_NAME"), &[&cli::ONCE, &cli::INTERVAL_MS, &cli::IDLE_EXIT])
        .positionals(&["heartbeat.jsonl"], &[]);

/// How many recent grants/s samples feed the sparkline.
const SPARK_WIDTH: usize = 32;

/// One parsed beat (only the fields the dashboard renders).
struct Beat {
    app: String,
    setup: String,
    seq: u64,
    cycle: u64,
    grants: u64,
    strip: String,
    conservation: Vec<(String, u64)>,
    faults: Vec<(String, u64)>,
    wall_ms: Option<u64>,
    rate: Option<f64>,
    tasks: Option<u64>,
    steals: Option<u64>,
}

fn get_u64(doc: &Json, key: &str) -> Option<u64> {
    doc.get(key).and_then(Json::as_num).map(|v| v as u64)
}

fn parse_beat(line: &str) -> Option<Beat> {
    validate_heartbeat_line(line).ok()?;
    let doc = parse_json(line).ok()?;
    let pairs = |key: &str| -> Vec<(String, u64)> {
        let fields = doc.get(key).into_iter().flat_map(Json::fields);
        fields.map(|(k, v)| (k.to_owned(), v.as_num().unwrap_or(0.0) as u64)).collect()
    };
    Some(Beat {
        app: doc.get("app").and_then(Json::as_str)?.to_owned(),
        setup: doc.get("setup").and_then(Json::as_str)?.to_owned(),
        seq: get_u64(&doc, "seq")?,
        cycle: get_u64(&doc, "cycle")?,
        grants: get_u64(&doc, "grants")?,
        strip: doc.get("strip").and_then(Json::as_str)?.to_owned(),
        conservation: pairs("conservation"),
        faults: pairs("faults"),
        wall_ms: get_u64(&doc, "wall_ms"),
        rate: doc.get("grants_per_sec").and_then(Json::as_num),
        tasks: get_u64(&doc, "tasks_executed"),
        steals: get_u64(&doc, "steals"),
    })
}

/// Renders `history`'s rates as a unicode sparkline.
fn sparkline(rates: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = rates.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return String::new();
    }
    rates.iter().map(|r| BARS[(((r / max) * 7.0).round() as usize).min(7)]).collect()
}

fn fmt_count(v: u64) -> String {
    if v >= 10_000_000 {
        format!("{:.1}M", v as f64 / 1e6)
    } else if v >= 10_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        v.to_string()
    }
}

/// Renders the dashboard for the newest beat (plus rate history).
fn render(beat: &Beat, rates: &[f64], beats_seen: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} @ {}  beat #{} ({} seen)\n",
        beat.app, beat.setup, beat.seq, beats_seen
    ));
    out.push_str(&format!(
        "cycle {:>12}  grants {:>10}  wall {:>7}  rate {:>10}/s  {}\n",
        fmt_count(beat.cycle),
        fmt_count(beat.grants),
        beat.wall_ms.map_or("-".to_owned(), |ms| format!("{:.1}s", ms as f64 / 1e3)),
        beat.rate.map_or("-".to_owned(), |r| fmt_count(r as u64)),
        sparkline(rates)
    ));
    // Per-core strip: `r` running, `w` waiting for the token, `.` retired.
    let cores = beat.strip.len();
    let running = beat.strip.chars().filter(|c| *c == 'r').count();
    let retired = beat.strip.chars().filter(|c| *c == '.').count();
    out.push_str(&format!(
        "cores [{}] {} running / {} waiting / {} retired\n",
        beat.strip,
        running,
        cores - running - retired,
        retired
    ));
    if let (Some(tasks), Some(steals)) = (beat.tasks, beat.steals) {
        out.push_str(&format!("tasks {:>9}  steals {:>8}\n", fmt_count(tasks), fmt_count(steals)));
    }
    let bucket_line: Vec<String> =
        beat.conservation.iter().map(|(k, v)| format!("{k}={}", fmt_count(*v))).collect();
    out.push_str(&format!("cycles  {}\n", bucket_line.join("  ")));
    // Fault ticker: only nonzero counters earn a line.
    let live_faults: Vec<String> =
        beat.faults.iter().filter(|(_, v)| *v > 0).map(|(k, v)| format!("{k}={v}")).collect();
    if !live_faults.is_empty() {
        out.push_str(&format!("faults  {}\n", live_faults.join("  ")));
    }
    out
}

fn main() {
    let args = CLI.parse();
    let once = args.given(&cli::ONCE);
    let interval_ms = args.get(&cli::INTERVAL_MS);
    let idle_exit_secs = args.get(&cli::IDLE_EXIT);
    let path = args.positional(0).expect("required positional");

    let mut offset = 0u64;
    let mut rates: Vec<f64> = Vec::new();
    let mut beats_seen = 0usize;
    let mut latest: Option<Beat> = None;
    let mut idle_since = std::time::Instant::now();
    loop {
        // Re-open each poll: the writer may have recreated the file, and a
        // fresh handle with an explicit seek is simpler than inotify.
        if let Ok(f) = std::fs::File::open(path) {
            let mut r = BufReader::new(f);
            if r.seek(SeekFrom::Start(offset)).is_ok() {
                let mut line = String::new();
                loop {
                    line.clear();
                    match r.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            offset += n as u64;
                            if let Some(beat) = parse_beat(line.trim_end()) {
                                beats_seen += 1;
                                if let Some(rate) = beat.rate {
                                    rates.push(rate);
                                    if rates.len() > SPARK_WIDTH {
                                        rates.remove(0);
                                    }
                                }
                                // A new run resets the rate window.
                                if latest
                                    .as_ref()
                                    .is_some_and(|l| l.app != beat.app || l.setup != beat.setup)
                                {
                                    rates.clear();
                                }
                                latest = Some(beat);
                                idle_since = std::time::Instant::now();
                            }
                        }
                    }
                }
            }
        }
        if once {
            match &latest {
                Some(beat) => print!("{}", render(beat, &rates, beats_seen)),
                None => {
                    eprintln!("tail_run: {path}: no heartbeat lines yet");
                    std::process::exit(1);
                }
            }
            return;
        }
        if let Some(beat) = &latest {
            // Clear screen + home, then the dashboard.
            print!("\x1b[2J\x1b[H{}", render(beat, &rates, beats_seen));
            use std::io::Write;
            let _ = std::io::stdout().flush();
        }
        if idle_exit_secs > 0 && idle_since.elapsed().as_secs() >= idle_exit_secs {
            eprintln!("tail_run: no new beats for {idle_exit_secs}s, exiting");
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
